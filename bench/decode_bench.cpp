// Fused-decode benchmark: per-pattern decode + assess cost of the
// unfused float path (Tcae::decode + accountActivationBatch) against
// the fused bit-packed route (FusedDecodeRoute::decodeMasks +
// accountMaskBatch, DESIGN.md §14) at every dispatch target.
//
//   decode_bench [--json FILE] [--reps N] [--samples N] [--threads N]
//   decode_bench --check bench/baselines/decode.json [--min-speedup S]
//
// Every route is timed --reps times (default 9), interleaved with the
// other routes, and reported as its median with p10/p90: the median
// under the route's key (e.g. "fused_total_us"), the spread under
// "<key>_p10" / "<key>_p90". --json writes the machine-readable report
// (BENCH_decode.json in CI, uploaded as an artifact). --check measures
// both paths IN THE SAME RUN and gates on the ratio of the fused and
// unfused medians at the baseline's named target, so the gate is
// immune to absolute host-speed drift: it fails only when the fused
// route loses its architectural advantage, not when the whole machine
// is slow. The baseline's recorded microsecond figures are reference
// context, not the gate. Measurements default to a single thread so
// ratios reflect the kernels, not the host's core count.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/flows.hpp"
#include "core/fused_generate.hpp"
#include "drc/topology_rules.hpp"
#include "io/json.hpp"
#include "models/tcae.hpp"
#include "tensor/gemm.hpp"

namespace {

volatile std::uint32_t gSink;  // defeats dead-code elimination

/// Wall time (µs) of `iters` back-to-back invocations of `fn`.
double blockMicros(const std::function<void()>& fn, long iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Inner iteration count that makes one timed block of `fn` run
/// >= ~60ms.
long calibrateIters(const std::function<void()>& fn) {
  long iters = 1;
  for (;;) {
    const double ms = blockMicros(fn, iters) / 1000.0;
    if (ms >= 60.0 || iters >= (1L << 20)) return iters;
    iters = ms <= 1.0 ? iters * 16
                      : static_cast<long>(iters * (80.0 / ms)) + 1;
  }
}

/// Linear-interpolated quantile `q` in [0, 1] of ascending `sorted`.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) *
                          (sorted[hi] - sorted[lo]);
}

/// One measured route: its report key and per-sample µs of each rep.
struct Route {
  const char* key;
  std::function<void()> fn;
  long iters = 1;
  std::vector<double> us{};
};

struct Fixture {
  dp::models::Tcae tcae;
  dp::core::FusedDecodeRoute route;
  dp::drc::TopologyChecker checker;
  dp::nn::Tensor latents;
  int samples;
};

Fixture makeFixture(int samples) {
  dp::Rng rng(2019);
  dp::models::TcaeConfig config;  // paper-default decoder stack
  dp::models::Tcae tcae(config, rng);
  dp::core::FusedDecodeRoute route(tcae);
  dp::nn::Tensor latents({samples, config.latentDim});
  for (std::size_t i = 0; i < latents.numel(); ++i)
    latents[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  return Fixture{std::move(tcae), std::move(route),
                 dp::drc::TopologyChecker(), std::move(latents), samples};
}

/// One dispatch target: per-sample µs of unfused decode-only, unfused
/// decode+assess, fused decode-only and fused decode+assess, each as
/// the median (under the route's key) with `_p10` / `_p90` siblings
/// over `reps` timed blocks, plus the same-run speedups of the medians.
/// Reps interleave the four routes, so host drift during the run
/// widens every route's spread alike instead of biasing one route.
dp::io::Json measureTarget(Fixture& fx, int reps) {
  std::vector<std::uint32_t> masks;
  std::vector<Route> routes = {
      {"unfused_decode_us",
       [&] {
         const dp::nn::Tensor activations = fx.tcae.decode(fx.latents);
         gSink = static_cast<std::uint32_t>(activations[0] > 0.5f);
       }},
      {"unfused_total_us",
       [&] {
         dp::core::GenerationResult result;
         dp::core::accountActivationBatch(fx.tcae.decode(fx.latents),
                                          fx.checker, result);
         gSink = static_cast<std::uint32_t>(result.legal);
       }},
      {"fused_decode_us",
       [&] {
         fx.route.decodeMasks(fx.latents, masks);
         gSink = masks[0];
       }},
      {"fused_total_us",
       [&] {
         fx.route.decodeMasks(fx.latents, masks);
         dp::core::GenerationResult result;
         dp::core::accountMaskBatch(masks.data(), fx.samples,
                                    fx.route.topologySize(), fx.checker,
                                    result);
         gSink = static_cast<std::uint32_t>(result.legal);
       }},
  };
  for (Route& r : routes) r.iters = calibrateIters(r.fn);
  for (int rep = 0; rep < reps; ++rep)
    for (Route& r : routes)
      r.us.push_back(blockMicros(r.fn, r.iters) /
                     static_cast<double>(r.iters) / fx.samples);

  auto entry = dp::io::Json::object();
  for (Route& r : routes) {
    std::sort(r.us.begin(), r.us.end());
    const std::string key = r.key;
    entry.set(key, quantile(r.us, 0.5));
    entry.set(key + "_p10", quantile(r.us, 0.1));
    entry.set(key + "_p90", quantile(r.us, 0.9));
  }
  const auto ratio = [&](const char* num, const char* den) {
    const double d = entry.at(den).asDouble();
    return d > 0 ? entry.at(num).asDouble() / d : 0.0;
  };
  entry.set("decode_speedup", ratio("unfused_decode_us", "fused_decode_us"));
  entry.set("total_speedup", ratio("unfused_total_us", "fused_total_us"));
  return entry;
}

bool hostSupportsTargetName(const std::string& target) {
  for (const dp::KernelTarget t :
       {dp::KernelTarget::kScalar, dp::KernelTarget::kAvx2,
        dp::KernelTarget::kAvx512})
    if (target == dp::kernelTargetName(t)) return dp::cpuSupports(t);
  return true;  // unknown names fail the gate rather than skip
}

/// The CI perf gate: the same-run decode+assess speedup at the
/// baseline's named target must reach `minSpeedup` (the baseline's
/// own min_speedup unless --min-speedup overrides it). A named target
/// the host cannot execute is a SKIP; a supported-but-unmeasured
/// target is a dispatch regression and fails.
int runCheck(const dp::io::Json& report, const std::string& baselinePath,
             double minSpeedupOverride) {
  std::ifstream in(baselinePath);
  if (!in) {
    std::fprintf(stderr, "decode_bench: cannot open baseline '%s'\n",
                 baselinePath.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const dp::io::Json baseline = dp::io::Json::parse(ss.str());

  int failures = 0;
  int checked = 0;
  const auto& gates = baseline.at("gates");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const auto& gate = gates.at(i);
    const std::string target = gate.at("target").asString();
    const double minSpeedup = minSpeedupOverride > 0
                                  ? minSpeedupOverride
                                  : gate.at("min_speedup").asDouble();
    if (!report.at("targets").has(target)) {
      if (hostSupportsTargetName(target)) {
        std::fprintf(stderr,
                     "FAIL  %s: target supported by this host but missing "
                     "from the run report — dispatch regression\n",
                     target.c_str());
        ++failures;
      } else {
        std::printf("SKIP  %s: target not supported on this host\n",
                    target.c_str());
      }
      continue;
    }
    ++checked;
    const auto& got = report.at("targets").at(target);
    const double speedup = got.at("total_speedup").asDouble();
    const bool ok = speedup >= minSpeedup;
    std::printf(
        "%s  %s: median fused %.2f µs vs unfused %.2f µs per pattern — "
        "%.2fx (gate %.2fx)\n",
        ok ? "OK  " : "FAIL", target.c_str(),
        got.at("fused_total_us").asDouble(),
        got.at("unfused_total_us").asDouble(), speedup, minSpeedup);
    if (!ok) ++failures;
  }
  if (failures) {
    std::fprintf(stderr, "decode_bench: %d gate failure(s)\n", failures);
    return 1;
  }
  if (checked == 0) {
    std::fprintf(stderr,
                 "decode_bench: no baseline gate was checkable on this "
                 "host\n");
    return 1;
  }
  std::printf("decode_bench: %d gate(s) passed\n", checked);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  std::string checkPath;
  double minSpeedup = 0.0;  // 0 = use the baseline's recorded gate
  int reps = 9;
  int samples = 256;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "decode_bench: %s expects a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) jsonPath = need("--json");
    else if (std::strcmp(argv[i], "--check") == 0) checkPath = need("--check");
    else if (std::strcmp(argv[i], "--min-speedup") == 0)
      minSpeedup = std::stod(need("--min-speedup"));
    else if (std::strcmp(argv[i], "--reps") == 0)
      reps = std::stoi(need("--reps"));
    else if (std::strcmp(argv[i], "--samples") == 0)
      samples = std::stoi(need("--samples"));
    else if (std::strcmp(argv[i], "--threads") == 0)
      threads = std::stoi(need("--threads"));
    else {
      std::fprintf(stderr,
                   "usage: decode_bench [--json FILE] [--check BASELINE "
                   "[--min-speedup S]] [--reps N] [--samples N] "
                   "[--threads N]\n");
      return 2;
    }
  }

  if (reps < 1) {
    std::fprintf(stderr, "decode_bench: --reps must be >= 1\n");
    return 2;
  }

  dp::ThreadPool::setGlobalThreads(threads);
  Fixture fx = makeFixture(samples);

  auto report = dp::io::Json::object();
  report.set("threads", threads);
  report.set("samples", samples);
  auto targets = dp::io::Json::object();
  for (const dp::KernelTarget t : dp::nn::supportedKernelTargets()) {
    dp::nn::setGemmKernelTarget(t);
    auto entry = measureTarget(fx, reps);
    const auto us = [&](const char* key) {
      return entry.at(key).asDouble();
    };
    std::printf(
        "%-7s unfused %7.2f µs [%.2f-%.2f] (decode %7.2f)  fused %6.2f µs "
        "[%.2f-%.2f] (decode %6.2f)  %5.2fx decode+assess\n",
        dp::kernelTargetName(t), us("unfused_total_us"),
        us("unfused_total_us_p10"), us("unfused_total_us_p90"),
        us("unfused_decode_us"), us("fused_total_us"),
        us("fused_total_us_p10"), us("fused_total_us_p90"),
        us("fused_decode_us"), us("total_speedup"));
    targets.set(dp::kernelTargetName(t), std::move(entry));
  }
  report.set("targets", std::move(targets));

  if (!jsonPath.empty()) {
    std::ofstream out(jsonPath);
    out << report.dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "decode_bench: cannot write '%s'\n",
                   jsonPath.c_str());
      return 2;
    }
    std::printf("wrote %s\n", jsonPath.c_str());
  }
  if (!checkPath.empty()) return runCheck(report, checkPath, minSpeedup);
  return 0;
}
