// Per-layer profile of one TCAE training step, in the configuration of
// e2ebench's train_tcae job: TcaeConfig defaults (batch 64), lr 2e-3
// decayed 0.7x halfway, 800 datagen clips.
//
//   train_step_bench [--steps N] [--threads N] [--json FILE]
//
// Two copies of the model train in lockstep from the same init on the
// same batches. "trainStep" runs the forward, loss and backward passes
// under FlushSubnormalsScope, as Tcae::trainStep does; "ieee" runs them
// in default IEEE mode. For each it reports the median forward and
// backward time of every layer, the loss, the gradient sentinel scan
// (the harness's non-finite check) and the Adam update, with p10/p90
// of the step total, plus how many entries of each layer's output
// gradient (the dx its backward returns) are subnormal at the last
// step. It has no gate: it is the breakdown the training item of
// ROADMAP.md works from.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/fp_env.hpp"
#include "common/thread_pool.hpp"
#include "io/json.hpp"
#include "models/batch.hpp"
#include "models/topology_codec.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Linear-interpolated quantile `q` in [0, 1] of `v`.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

long subnormalCount(const dp::nn::Tensor& t) {
  long n = 0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    // Bits, not fpclassify: under DAZ a subnormal compares equal to 0.
    const auto bits = std::bit_cast<std::uint32_t>(t[i]);
    n += (bits & 0x7F800000U) == 0 && (bits & 0x007FFFFFU) != 0 ? 1 : 0;
  }
  return n;
}

struct LayerStats {
  std::string name;
  std::vector<double> forwardMs, backwardMs;
  long subnormalDx = 0;  ///< at the last step
  long dxEntries = 0;
};

/// One copy of the model and its per-step timings.
struct Run {
  const char* key = "";
  bool flush = false;
  std::unique_ptr<dp::models::Tcae> tcae;
  std::unique_ptr<dp::nn::Adam> opt;
  std::vector<dp::nn::Layer*> layers;  ///< encoder, then decoder
  std::vector<LayerStats> stats;
  std::vector<double> lossMs, sentinelMs, adamMs, stepMs;
  double loss = 0.0;
  long nonFinite = 0;
};

Run makeRun(const char* key, bool flush,
            const dp::models::TcaeConfig& cfg) {
  Run r;
  r.key = key;
  r.flush = flush;
  dp::Rng init(2021);  // e2ebench's train_tcae init seed
  r.tcae = std::make_unique<dp::models::Tcae>(cfg, init);
  r.opt = std::make_unique<dp::nn::Adam>(r.tcae->params(), cfg.initialLr);
  for (dp::nn::Sequential* stack :
       {&r.tcae->encoder(), &r.tcae->decoder()}) {
    const char* unit = stack == &r.tcae->encoder() ? "enc" : "dec";
    for (std::size_t i = 0; i < stack->layerCount(); ++i) {
      r.layers.push_back(&stack->layer(i));
      r.stats.push_back({std::string(unit) + "." + std::to_string(i) + " " +
                             stack->layer(i).name(),
                         {}, {}, 0, 0});
    }
  }
  return r;
}

/// One training step, as Tcae::trainStep runs it (with or without the
/// flush), timed layer by layer. Counting subnormals is not timed.
void step(Run& r, const dp::nn::Tensor& batch, double lr) {
  r.opt->setLearningRate(lr);
  r.opt->zeroGrad();
  double total = 0.0;
  {
    std::optional<dp::FlushSubnormalsScope> flush;
    if (r.flush) flush.emplace();
    dp::nn::Tensor h = batch;
    for (std::size_t i = 0; i < r.layers.size(); ++i) {
      const auto t0 = Clock::now();
      h = r.layers[i]->forward(h, /*training=*/true);
      r.stats[i].forwardMs.push_back(msSince(t0));
      total += r.stats[i].forwardMs.back();
    }
    dp::nn::Tensor grad;
    auto t0 = Clock::now();
    r.loss = dp::nn::mseLoss(h, batch, grad);
    r.lossMs.push_back(msSince(t0));
    total += r.lossMs.back();
    for (std::size_t i = r.layers.size(); i-- > 0;) {
      t0 = Clock::now();
      grad = r.layers[i]->backward(grad);
      r.stats[i].backwardMs.push_back(msSince(t0));
      total += r.stats[i].backwardMs.back();
      r.stats[i].subnormalDx = subnormalCount(grad);
      r.stats[i].dxEntries = static_cast<long>(grad.numel());
    }
  }
  auto t0 = Clock::now();
  for (const dp::nn::Param* p : r.opt->params())
    for (std::size_t i = 0; i < p->grad.numel(); ++i)
      if (!std::isfinite(p->grad[i])) ++r.nonFinite;
  r.sentinelMs.push_back(msSince(t0));
  t0 = Clock::now();
  r.opt->step();
  r.adamMs.push_back(msSince(t0));
  r.stepMs.push_back(total + r.sentinelMs.back() + r.adamMs.back());
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

dp::io::Json report(const Run& r) {
  auto layers = dp::io::Json::array();
  for (const LayerStats& s : r.stats) {
    auto e = dp::io::Json::object();
    e.set("name", s.name);
    e.set("forward_ms", median(s.forwardMs));
    e.set("backward_ms", median(s.backwardMs));
    e.set("subnormal_dx", s.subnormalDx);
    e.set("dx_entries", s.dxEntries);
    layers.push(std::move(e));
  }
  auto out = dp::io::Json::object();
  out.set("flush_subnormals", r.flush);
  out.set("layers", std::move(layers));
  out.set("loss_ms", median(r.lossMs));
  out.set("sentinel_ms", median(r.sentinelMs));
  out.set("adam_ms", median(r.adamMs));
  out.set("step_ms", median(r.stepMs));
  out.set("step_ms_p10", quantile(r.stepMs, 0.1));
  out.set("step_ms_p90", quantile(r.stepMs, 0.9));
  out.set("final_loss", r.loss);
  out.set("non_finite_grads", r.nonFinite);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const dp::bench::Args args(argc, argv);
  const long steps = args.getLong("steps", 200);
  const int threads = static_cast<int>(
      args.getLong("threads", dp::ThreadPool::defaultThreads()));
  const std::string jsonPath = args.getString("json");
  if (steps < 1 || threads < 1) {
    std::fprintf(stderr, "train_step_bench: --steps and --threads must be "
                         ">= 1\n");
    return 2;
  }
  dp::ThreadPool::setGlobalThreads(threads);

  constexpr int kClips = 800;
  dp::models::TcaeConfig cfg;
  cfg.initialLr = 2e-3;
  cfg.lrDecayEvery = std::max<long>(steps / 2, 1);
  const dp::nn::StepDecaySchedule schedule(cfg.initialLr, cfg.lrDecayFactor,
                                           cfg.lrDecayEvery);
  dp::Rng dataRng(2020);  // e2ebench's train_tcae data seed
  const auto clips = dp::datagen::generateLibrary(
      dp::datagen::directprintSpec(1), dp::euv7nmM2(), kClips, dataRng);
  const dp::nn::Tensor dataset = dp::models::encodeTopologies(
      dp::datagen::extractTopologies(clips), cfg.inputSize);

  std::vector<Run> runs;
  runs.push_back(makeRun("trainStep", true, cfg));
  runs.push_back(makeRun("ieee", false, cfg));
  dp::Rng batchRng(1);
  for (long s = 0; s < steps; ++s) {
    const dp::nn::Tensor batch = dp::models::gatherRows(
        dataset, dp::models::sampleIndices(dataset.size(0), cfg.batchSize,
                                           batchRng));
    for (Run& r : runs) step(r, batch, schedule.lrAt(s));
  }

  std::printf("TCAE training step: batch %d, %d clips, %ld steps, %d "
              "threads (medians in ms; subnormal dx at the last step)\n",
              cfg.batchSize, kClips, steps, threads);
  std::printf("%-22s", "layer");
  for (const Run& r : runs)
    std::printf(" | %-9s %8s %8s %7s", r.key, "fwd", "bwd", "subn dx");
  std::printf("\n");
  for (std::size_t i = 0; i < runs[0].stats.size(); ++i) {
    std::printf("%-22s", runs[0].stats[i].name.c_str());
    for (const Run& r : runs) {
      const LayerStats& s = r.stats[i];
      std::printf(" | %-9s %8.3f %8.3f %7ld", "", median(s.forwardMs),
                  median(s.backwardMs), s.subnormalDx);
    }
    std::printf("\n");
  }
  const auto row = [&](const char* label, auto field) {
    std::printf("%-22s", label);
    for (const Run& r : runs)
      std::printf(" | %-9s %17.3f %7s", "", median(r.*field), "");
    std::printf("\n");
  };
  row("loss (mse)", &Run::lossMs);
  row("sentinel scan", &Run::sentinelMs);
  row("adam", &Run::adamMs);
  std::printf("%-22s", "step [p10-p90]");
  for (const Run& r : runs)
    std::printf(" | %-9s %8.3f [%.2f-%.2f]", "", median(r.stepMs),
                quantile(r.stepMs, 0.1), quantile(r.stepMs, 0.9));
  std::printf("\n%-22s", "final loss");
  for (const Run& r : runs) std::printf(" | %-9s %17.10g %7s", "", r.loss, "");
  std::printf("\n");

  if (!jsonPath.empty()) {
    auto out = dp::io::Json::object();
    out.set("steps", steps);
    out.set("threads", threads);
    out.set("batch", cfg.batchSize);
    out.set("clips", kClips);
    auto modes = dp::io::Json::object();
    for (const Run& r : runs) modes.set(r.key, report(r));
    out.set("modes", std::move(modes));
    std::ofstream file(jsonPath);
    file << out.dump() << "\n";
    if (!file) {
      std::fprintf(stderr, "train_step_bench: cannot write '%s'\n",
                   jsonPath.c_str());
      return 2;
    }
    std::printf("wrote %s\n", jsonPath.c_str());
  }
  for (const Run& r : runs)
    if (r.nonFinite > 0) {
      std::fprintf(stderr, "train_step_bench: %s met %ld non-finite "
                           "gradients\n", r.key, r.nonFinite);
      return 1;
    }
  return 0;
}
