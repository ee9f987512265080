// e2e_bench — end-to-end benchmark of the pattern-generation system:
// the /generate service behind the load balancer, the streaming
// library-build pipeline, and TCAE training.
//
//   e2e_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--workdir DIR] [--smoke]
//             [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload with benchmark-side spans on and reports the per-layer
// metrics (see README.md for both catalogues). The last line of stdout
// is one JSON object {correct, attempted, failed, metrics}; any failed
// correctness check makes the exit code non-zero.
//
// Every input is derived from --seed: the clip library, the trained
// model, request seeds and the request mix.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/flows.hpp"
#include "core/fused_generate.hpp"
#include "core/pipeline.hpp"
#include "core/sensitivity.hpp"
#include "datagen/generator.hpp"
#include "datagen/library_spec.hpp"
#include "http_client.hpp"
#include "io/json.hpp"
#include "models/batch.hpp"
#include "models/tcae.hpp"
#include "models/topology_codec.hpp"
#include "nn/optimizer.hpp"
#include "pipeline/massive.hpp"
#include "serve/bundle.hpp"
#include "serve/lb.hpp"
#include "serve/server.hpp"
#include "squish/hash.hpp"
#include "trace.hpp"
#include "train/checkpoint.hpp"

namespace {

namespace fs = std::filesystem;
using dp::io::Json;
using e2e::Span;

// ---------------------------------------------------------------------------
// Workloads and scale
// ---------------------------------------------------------------------------

enum class Kind { kServe, kPipeline, kTrain };

struct Workload {
  const char* name;
  Kind kind;
  double rate;    ///< open-loop arrivals per second (serve only)
  int bulkEvery;  ///< one bulk request per this many (0 = none)
};

// Why these four: serve_small is dominated by per-request fixed costs
// (LB hop, HTTP, JSON, queue hop, batcher wake); serve_mixed by decode,
// assess and the Eq. 10 LP on the single batcher thread, with small
// requests queued behind bulk ones; pipeline_256k is the library build
// with no HTTP and no LP; train_tcae is the only user of the backward
// path and checkpoint sealing.
constexpr Workload kWorkloads[] = {
    {"serve_small", Kind::kServe, 600.0, 0},
    {"serve_mixed", Kind::kServe, 150.0, 8},
    {"pipeline_256k", Kind::kPipeline, 0.0, 0},
    {"train_tcae", Kind::kTrain, 0.0, 0},
};

struct Scale {
  int modelClips = 100;       ///< library the served/pipeline model learns
  long modelSteps = 200;      ///< its TCAE training steps
  int setups = 3;             ///< set-ups per untraced run (median reported)
  double warmupS = 1.0;       ///< open-loop warm-up before measuring
  double openShare = 0.5;     ///< of --seconds; the rest is closed loop
  long smallCount = 64;
  long bulkCount = 1024;
  long bulkMaxClips = 256;
  int connections = 4;        ///< load-generator threads = connections
  long pipeCount = 262'144;   ///< samples per library build
  long pipeEvery = 65'536;    ///< checkpoint pitch
  int trainClips = 800;
  long trainSteps = 200;      ///< steps per training job
  long trainEvery = 50;       ///< checkpoint pitch
  int verifyEvery = 16;       ///< every Nth response vs the reference
  int replayMax = 256;        ///< requests replayed per traced run
  double sideRate = 200.0;    ///< serve traffic in non-serve traced runs
  double sideSeconds = 1.0;
  long sidePipeCount = 65'536;
  long sideTrainSteps = 50;
  int bareSteps = 200;        ///< bare trainStep loop (traced)

  static Scale smoke() {
    Scale s;
    s.modelClips = 40;
    s.modelSteps = 100;
    s.setups = 1;
    s.warmupS = 0.1;
    s.bulkCount = 256;
    s.bulkMaxClips = 32;
    s.pipeCount = 16'384;
    s.pipeEvery = 4'096;
    s.trainClips = 100;
    s.trainSteps = 20;
    s.trainEvery = 10;
    s.verifyEvery = 4;
    s.replayMax = 16;
    s.sideSeconds = 0.2;
    s.sidePipeCount = 8'192;
    s.sideTrainSteps = 10;
    s.bareSteps = 10;
    return s;
  }
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;  ///< off-by-one expected values: checks must fail
  fs::path workdir = ".bench_build/work";
  std::string traceOut;  ///< <workdir>/trace-<workload>-<seed>.jsonl
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Report {
  long attempted = 0;
  long failed = 0;
  long checkFailures = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++checkFailures;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  [[nodiscard]] bool correct() const {
    return checkFailures == 0 && failed == 0;
  }
};

struct Ctx {
  Options opt;
  Scale scale;
  e2e::Tracer tracer{1u << 17};
  Report report;
};

double secondsSince(e2e::Clock::time_point t0) {
  return std::chrono::duration<double>(e2e::Clock::now() - t0).count();
}

double millis(e2e::Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------------------
// Set-up: data, model, bundle, deployment
// ---------------------------------------------------------------------------

struct Stack {
  std::vector<dp::squish::Topology> topologies;  ///< model training set
  std::vector<dp::squish::Topology> trainSet;    ///< train_tcae data
  std::shared_ptr<dp::serve::Bundle> bundle;
  fs::path bundleRoot;
  dp::serve::Deployment* deployment = nullptr;
  int lbPort = 0;
  int workerPort = 0;
};

dp::serve::BundleSpec bundleSpec(const Scale& scale) {
  dp::serve::BundleSpec spec;
  spec.name = "bench";
  spec.tcae.trainSteps = scale.modelSteps;
  spec.tcae.initialLr = 2e-3;
  spec.tcae.lrDecayEvery = std::max<long>(scale.modelSteps / 2, 1);
  return spec;
}

std::vector<dp::squish::Topology> makeLibrary(int clips, dp::Rng& rng) {
  const auto clipSet = dp::datagen::generateLibrary(
      dp::datagen::directprintSpec(1), dp::euv7nmM2(), clips, rng);
  return dp::datagen::extractTopologies(clipSet);
}

bool waitHealthy(int port) {
  const auto deadline = e2e::Clock::now() + std::chrono::seconds(30);
  while (e2e::Clock::now() < deadline) {
    e2e::KeepAliveClient client(port);
    if (client.call("GET", "/healthz", "").status == 200) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// The system under test is one fixed configuration: the served model,
/// its library and the training set come from these seeds, while
/// --seed picks the traffic (request seeds and mix), the pipeline's
/// sample stream and the trainer's batch order. A per-seed model would
/// change how much work every request does (legal and unique ratios,
/// response size), which is a different system, not different input.
constexpr std::uint64_t kModelSeed = 2019;
constexpr std::uint64_t kTrainDataSeed = 2020;
constexpr std::uint64_t kTrainInitSeed = 2021;

/// One complete set-up. The bundle is assembled step by step in the
/// same order as serve::buildBundle (TCAE training, Algorithm-1
/// sensitivity, source-latent encoding, fused-route prepack) so each
/// step gets its own span.
Stack setUp(Ctx& ctx, bool withBundle, dp::serve::Deployment* deployment,
            int index) {
  const Scale& sc = ctx.scale;
  Span root(ctx.tracer, "setup");
  Stack st;
  dp::Rng rng(kModelSeed);
  {
    Span s(ctx.tracer, "setup.datagen");
    if (withBundle) st.topologies = makeLibrary(sc.modelClips, rng);
    if (ctx.opt.workload->kind == Kind::kTrain) {
      dp::Rng dataRng(kTrainDataSeed);
      st.trainSet = makeLibrary(sc.trainClips, dataRng);
    }
    s.setItems(static_cast<long>(st.topologies.size() + st.trainSet.size()));
  }
  if (withBundle) {
    const dp::serve::BundleSpec spec = bundleSpec(sc);
    {
      Span s(ctx.tracer, "setup.train");
      st.bundle = std::make_shared<dp::serve::Bundle>(spec, rng);
      (void)st.bundle->tcae().train(st.topologies, rng,
                                    dp::train::TrainOptions{});
      s.setItems(sc.modelSteps);
    }
    {
      Span s(ctx.tracer, "setup.sensitivity");
      st.bundle->setSensitivity(dp::core::estimateSensitivity(
          st.bundle->tcae(), st.topologies, st.bundle->checker(),
          dp::core::SensitivityConfig{}));
    }
    {
      Span s(ctx.tracer, "setup.encode");
      st.bundle->setSourceLatents(dp::core::encodeSourceLatents(
          st.bundle->tcae(), st.topologies, spec.sourcePoolSize));
      st.bundle->refreshFusedRoute();
    }
  }
  if (deployment != nullptr) {
    st.bundleRoot = ctx.opt.workdir / ("bundles-" + std::to_string(index));
    fs::remove_all(st.bundleRoot);
    {
      Span s(ctx.tracer, "setup.bundle_save");
      st.bundle->save((st.bundleRoot / "bench").string());
    }
    Span s(ctx.tracer, "setup.deploy");
    dp::serve::Deployment::Options options;
    options.bundleRoot = st.bundleRoot.string();
    options.workers = 1;
    options.handlerThreads = 4;
    deployment->launch(options);
    st.deployment = deployment;
    st.lbPort = deployment->lbPort();
    if (!waitHealthy(st.lbPort))
      throw std::runtime_error("deployment never became healthy");
    const auto workers = deployment->queryWorkers();
    if (workers.empty()) throw std::runtime_error("deployment has no worker");
    st.workerPort = workers.front().port;
  }
  return st;
}

// ---------------------------------------------------------------------------
// Serve: request stream, load generator, reference, replay
// ---------------------------------------------------------------------------

struct ServeRequest {
  std::uint64_t seed = 0;
  bool bulk = false;
  long count = 0;
  long maxClips = -1;
  std::string payload;
};

/// Request `i` of the seeded stream: a fixed function of (seed, i), so
/// any thread can build any request. With bulkEvery = k, each block of
/// k consecutive requests holds exactly one bulk request at a seeded
/// position.
ServeRequest makeRequest(const Ctx& ctx, long i) {
  const std::uint64_t stream = dp::splitmix64(ctx.opt.seed ^ 0x5e7e5e7eULL);
  const int every = ctx.opt.workload->kind == Kind::kServe
                        ? ctx.opt.workload->bulkEvery
                        : 0;
  ServeRequest r;
  r.seed = dp::splitmix64(stream + static_cast<std::uint64_t>(i));
  if (every > 0) {
    const auto block = static_cast<std::uint64_t>(i / every);
    r.bulk = static_cast<long>(dp::splitmix64(stream ^ (block * 0x9e37ULL)) %
                               static_cast<std::uint64_t>(every)) == i % every;
  }
  r.count = r.bulk ? ctx.scale.bulkCount : ctx.scale.smallCount;
  Json body = Json::object();
  body.set("bundle", "bench");
  body.set("flow", "random");
  body.set("count", r.count);
  body.set("seed", std::to_string(r.seed));
  if (r.bulk) {
    r.maxClips = ctx.scale.bulkMaxClips;
    body.set("materialize", true);
    body.set("maxClips", r.maxClips);
  }
  r.payload = body.dump();
  return r;
}

struct Outcome {
  long index = 0;
  bool ok = false;
  double atS = 0.0;        ///< due (open) or completion (closed) time,
                           ///< seconds from the phase start
  double latencyMs = 0.0;  ///< from scheduled send (open) or send (closed)
  double lateMs = 0.0;     ///< send time minus scheduled time (open)
  double batcherMs = 0.0;  ///< the response's latencyMs
  int decodeBatches = 0;
};

struct LoadPhase {
  std::vector<Outcome> outcomes;
  double seconds = 0.0;
  long scheduled = 0;
};

struct LoadState {
  std::vector<std::unique_ptr<e2e::KeepAliveClient>> clients;
  long nextIndex = 0;
  long sent = 0;
  long ok = 0;
  long non200 = 0;
  std::mutex sampleMutex;
  std::vector<std::pair<long, std::string>> samples;  ///< (index, body)
};

/// Sends `req` (stream position `index`) on `client` and fills `out`,
/// timing aside.
void exchange(Ctx& ctx, LoadState& ls, e2e::KeepAliveClient& client,
              const ServeRequest& req, long index, Outcome& out) {
  Span span(ctx.tracer, "serve.request", index);
  const e2e::HttpReply reply = client.call("POST", "/generate", req.payload);
  out.index = index;
  out.ok = reply.status == 200;
  if (!out.ok) {
    std::cerr << "request " << index << ": status " << reply.status << " "
              << reply.body.substr(0, 160) << "\n";
    return;
  }
  try {
    const Json j = Json::parse(reply.body);
    out.batcherMs = j.at("latencyMs").asDouble();
    out.decodeBatches = static_cast<int>(j.at("decodeBatches").asLong());
  } catch (const std::exception& e) {
    out.ok = false;
    std::cerr << "request " << index << ": bad body: " << e.what() << "\n";
    return;
  }
  if (index % ctx.scale.verifyEvery == 0) {
    std::lock_guard<std::mutex> lock(ls.sampleMutex);
    ls.samples.emplace_back(index, reply.body);
  }
}

/// Open loop: arrival k is due at t0 + k/rate and goes out on
/// connection k mod C; latency runs from the due time, so a stall also
/// counts against the requests queued behind it.
LoadPhase openLoop(Ctx& ctx, LoadState& ls, double rate, double seconds) {
  const int conns = static_cast<int>(ls.clients.size());
  const long total = std::max<long>(1, std::lround(rate * seconds));
  const long base = ls.nextIndex;
  ls.nextIndex += total;
  std::vector<Outcome> outcomes(static_cast<std::size_t>(total));
  const auto t0 = e2e::Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      for (long k = c; k < total; k += conns) {
        const auto due = t0 + std::chrono::duration_cast<e2e::Clock::duration>(
                                  std::chrono::duration<double>(
                                      static_cast<double>(k) / rate));
        const ServeRequest req = makeRequest(ctx, base + k);
        std::this_thread::sleep_until(due);
        const auto start = e2e::Clock::now();
        Outcome& o = outcomes[static_cast<std::size_t>(k)];
        exchange(ctx, ls, *ls.clients[static_cast<std::size_t>(c)], req,
                 base + k, o);
        const auto end = e2e::Clock::now();
        o.atS = static_cast<double>(k) / rate;
        o.latencyMs = o.ok ? millis(end - due)
                           : std::numeric_limits<double>::infinity();
        o.lateMs = millis(start - due);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadPhase phase;
  phase.seconds = secondsSince(t0);
  phase.scheduled = total;
  phase.outcomes = std::move(outcomes);
  return phase;
}

/// Closed loop: each connection sends its next request as soon as the
/// previous one completes, for `seconds`.
LoadPhase closedLoop(Ctx& ctx, LoadState& ls, double seconds) {
  const int conns = static_cast<int>(ls.clients.size());
  std::atomic<long> next{ls.nextIndex};
  std::vector<std::vector<Outcome>> perThread(static_cast<std::size_t>(conns));
  const auto t0 = e2e::Clock::now();
  const auto end = t0 + std::chrono::duration_cast<e2e::Clock::duration>(
                            std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      while (e2e::Clock::now() < end) {
        Outcome o;
        const long index = next.fetch_add(1);
        const ServeRequest req = makeRequest(ctx, index);
        const auto start = e2e::Clock::now();
        exchange(ctx, ls, *ls.clients[static_cast<std::size_t>(c)], req,
                 index, o);
        const auto done = e2e::Clock::now();
        o.atS = std::chrono::duration<double>(done - t0).count();
        o.latencyMs = millis(done - start);
        perThread[static_cast<std::size_t>(c)].push_back(o);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadPhase phase;
  phase.seconds = secondsSince(t0);
  ls.nextIndex = next.load();
  for (auto& v : perThread)
    phase.outcomes.insert(phase.outcomes.end(), v.begin(), v.end());
  phase.scheduled = static_cast<long>(phase.outcomes.size());
  return phase;
}

void tally(Ctx& ctx, LoadState& ls, const LoadPhase& phase) {
  for (const Outcome& o : phase.outcomes) {
    ++ls.sent;
    ++ctx.report.attempted;
    if (o.ok) {
      ++ls.ok;
    } else {
      ++ls.non200;
      ++ctx.report.failed;
    }
  }
}

struct Expected {
  long generated = 0;
  long legal = 0;
  long unique = 0;
  std::vector<std::uint64_t> hashes;
  long attempted = 0;
  long solved = 0;
  long drcClean = 0;
  double workMs = 0.0;  ///< decode + account + Eq. 10 as the batcher runs them
};

Expected summarize(const dp::core::GenerationResult& res) {
  Expected e;
  e.generated = res.generated;
  e.legal = res.legal;
  e.unique = static_cast<long>(res.unique.size());
  for (const dp::squish::Topology& p : res.unique.patterns())
    e.hashes.push_back(dp::squish::hashTopology(p));
  std::sort(e.hashes.begin(), e.hashes.end());
  return e;
}

void materializeInto(Ctx& ctx, const dp::serve::Bundle& b, long maxClips,
                     const dp::core::PatternLibrary& lib, dp::Rng& rng,
                     Expected& e) {
  if (lib.empty()) return;
  Span s(ctx.tracer, "lp.materialize");
  const dp::core::MaterializeResult mat = dp::core::materialize(
      lib, b.solver(), b.geomChecker(), rng, maxClips);
  e.attempted = mat.attempted;
  e.solved = mat.solved;
  e.drcClean = mat.drcClean;
  s.setItems(mat.attempted);
}

/// One request computed layer by layer in-process, in the batcher's
/// order and with its route: plan on Rng(seed), fused decode in batches
/// of the batcher's decode size, packed accounting, then Eq. 10 on the
/// post-plan stream. What the service answers must equal this, however
/// requests were coalesced and whichever connection carried them. With
/// `lpForSmall`, small requests also solve Eq. 10 for their unique set,
/// so the LP layer is measured on every workload.
Expected layerReplay(Ctx& ctx, const dp::serve::Bundle& b,
                     const ServeRequest& r, bool lpForSmall = false) {
  const dp::core::FusedDecodeRoute* route = b.fusedRoute();
  if (route == nullptr) throw std::runtime_error("bundle has no fused route");
  const int decodeBatch = dp::serve::Batcher::Config{}.decodeBatch;
  const int latentDim = route->latentDim();
  dp::Rng rng(r.seed);
  dp::nn::Tensor latents;
  {
    Span s(ctx.tracer, "core.plan");
    latents = dp::core::planRandomLatents(b.sourceLatents(), b.perturber(),
                                          r.count, 128, rng)
                  .latents;
    s.setItems(r.count);
  }
  const auto start = e2e::Clock::now();
  dp::core::GenerationResult result;
  std::vector<std::uint32_t> masks;
  for (long off = 0; off < r.count; off += decodeBatch) {
    const int n = static_cast<int>(std::min<long>(decodeBatch, r.count - off));
    dp::nn::Tensor slice({n, latentDim});
    std::copy_n(latents.data() + off * latentDim,
                static_cast<std::size_t>(n) * latentDim, slice.data());
    {
      Span s(ctx.tracer, "tensor.decode");
      route->decodeMasks(slice, masks);
      s.setItems(n);
    }
    Span s(ctx.tracer, "core.account");
    dp::core::accountMaskBatch(masks.data(), n, route->topologySize(),
                               b.checker(), result);
    s.setItems(n);
  }
  Expected e = summarize(result);
  if (r.bulk) materializeInto(ctx, b, r.maxClips, result.unique, rng, e);
  e.workMs = millis(e2e::Clock::now() - start);
  if (!r.bulk && lpForSmall)
    materializeInto(ctx, b, r.maxClips, result.unique, rng, e);
  return e;
}

/// The same request through the unfused float path
/// (core::decodeLatentsAndAccount), the repository's bit-exactness
/// reference for the fused route.
Expected floatPathReplay(Ctx& ctx, const dp::serve::Bundle& b,
                         const ServeRequest& r) {
  dp::Rng rng(r.seed);
  const dp::core::LatentPlan plan = dp::core::planRandomLatents(
      b.sourceLatents(), b.perturber(), r.count, 128, rng);
  const dp::core::GenerationResult res = dp::core::decodeLatentsAndAccount(
      b.tcae(), plan.latents, nullptr, b.checker(), 128);
  Expected e = summarize(res);
  if (r.bulk) materializeInto(ctx, b, r.maxClips, res.unique, rng, e);
  return e;
}

/// Compares a /generate body with the expected outcome; "" when equal.
std::string mismatch(const std::string& body, const Expected& e, bool bulk) {
  const Json j = Json::parse(body);
  if (j.at("generated").asLong() != e.generated) return "generated";
  if (j.at("legal").asLong() != e.legal) return "legal";
  if (j.at("unique").asLong() != e.unique) return "unique";
  const Json& hashes = j.at("patternHashes");
  if (hashes.size() != e.hashes.size()) return "patternHashes size";
  for (std::size_t i = 0; i < hashes.size(); ++i)
    if (hashes.at(i).asUint64() != e.hashes[i]) return "patternHashes";
  if (bulk && e.attempted > 0) {
    if (!j.has("materialize")) return "materialize missing";
    const Json& m = j.at("materialize");
    if (m.at("attempted").asLong() != e.attempted) return "attempted";
    if (m.at("solved").asLong() != e.solved) return "solved";
    if (m.at("drcClean").asLong() != e.drcClean) return "drcClean";
  }
  return {};
}

void verifySamples(Ctx& ctx, const Stack& st, const LoadState& ls) {
  for (const auto& [index, body] : ls.samples) {
    const ServeRequest req = makeRequest(ctx, index);
    std::string why;
    try {
      Expected e = layerReplay(ctx, *st.bundle, req);
      e.legal += ctx.opt.corrupt ? 1 : 0;
      why = mismatch(body, e, req.bulk);
    } catch (const std::exception& e) {
      why = e.what();
    }
    ctx.report.check(why.empty(), "response " + std::to_string(index) +
                                      " differs from the reference: " + why);
  }
}

std::string scrapeMetrics(int port) {
  e2e::KeepAliveClient client(port);
  return client.call("GET", "/metrics", "").body;
}

/// Checks the load balancer's own 200 count against the client count.
void checkServedCount(Ctx& ctx, const Stack& st, const LoadState& ls,
                      long extraOk) {
  const double served = e2e::metricValue(
      scrapeMetrics(st.lbPort),
      "dp_requests_total{route=\"/generate\",status=\"200\"}");
  const long expected = ls.ok + extraOk + (ctx.opt.corrupt ? 1 : 0);
  ctx.report.check(static_cast<long>(served) == expected,
                   "/metrics 200-count " + std::to_string(served) +
                       " != client ok count " + std::to_string(expected));
}

struct ServeRun {
  LoadPhase open;
  LoadPhase closed;
};

ServeRun runServeLoad(Ctx& ctx, LoadState& ls, double rate, double seconds) {
  ServeRun run;
  run.open = openLoop(ctx, ls, rate, seconds * ctx.scale.openShare);
  tally(ctx, ls, run.open);
  run.closed = closedLoop(ctx, ls, seconds * (1.0 - ctx.scale.openShare));
  tally(ctx, ls, run.closed);
  return run;
}

/// Latencies of a phase; a failed request counts as +inf.
std::vector<double> latencies(const LoadPhase& p) {
  std::vector<double> v;
  for (const Outcome& o : p.outcomes) v.push_back(o.latencyMs);
  return v;
}

// ---------------------------------------------------------------------------
// Pipeline: streaming library builds
// ---------------------------------------------------------------------------

struct PipeJob {
  double seconds = 0.0;
  dp::pipeline::MassiveResult result;
};

dp::pipeline::MassiveConfig massiveConfig(const Ctx& ctx, const fs::path& dir,
                                          long count) {
  dp::pipeline::MassiveConfig cfg;
  cfg.dir = dir.string();
  cfg.count = count;
  cfg.batchSize = 256;
  cfg.checkpointEvery = std::min(count, ctx.scale.pipeEvery);
  cfg.patternsPerSegment = 65'536;
  cfg.seed = dp::splitmix64(ctx.opt.seed ^ 0x9199ULL);
  return cfg;
}

/// Builds libraries of `count` samples into fresh stores until
/// `seconds` pass (at least one). Every build uses the same seed, so
/// every build must yield the same store statistics. The last store is
/// kept for verification.
std::vector<PipeJob> runPipelineJobs(Ctx& ctx, const Stack& st, long count,
                                     double seconds, const fs::path& dir) {
  std::vector<PipeJob> jobs;
  const auto t0 = e2e::Clock::now();
  do {
    fs::remove_all(dir);
    const auto cfg = massiveConfig(ctx, dir, count);
    PipeJob job;
    const auto start = e2e::Clock::now();
    {
      Span s(ctx.tracer, "pipeline.run", static_cast<long>(jobs.size()));
      const dp::serve::Bundle& b = *st.bundle;
      job.result = dp::pipeline::runMassive(
          b.tcae(), b.sourceLatents(), b.perturber(), b.checker(), cfg);
      s.setItems(job.result.generated);
    }
    job.seconds = secondsSince(start);
    ++ctx.report.attempted;
    const auto& r = job.result;
    const bool ok = r.generated == count + (ctx.opt.corrupt ? 1 : 0) &&
                    !r.resumed &&
                    (jobs.empty() ||
                     (r.legal == jobs.front().result.legal &&
                      r.unique == jobs.front().result.unique &&
                      r.diversity == jobs.front().result.diversity));
    if (!ok) ++ctx.report.failed;
    ctx.report.check(ok, "library build " + std::to_string(jobs.size()) +
                             ": generated " + std::to_string(r.generated) +
                             " of " + std::to_string(count) +
                             " or statistics differ from the first build");
    jobs.push_back(std::move(job));
  } while (secondsSince(t0) < seconds);
  return jobs;
}

std::uintmax_t directoryBytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

/// Store checks on the last build: the stored library has exactly
/// `unique` patterns, each legal, and a rerun over the finished store is
/// a no-op resume with identical statistics.
void verifyStore(Ctx& ctx, const Stack& st, const fs::path& dir,
                 const PipeJob& last, long count) {
  {
    Span s(ctx.tracer, "pipeline.verify");
    const dp::core::PatternLibrary lib =
        dp::pipeline::loadLibrary(dir.string());
    ctx.report.check(lib.size() == last.result.unique,
                     "stored library size " + std::to_string(lib.size()) +
                         " != unique " + std::to_string(last.result.unique));
    long illegal = 0;
    for (const dp::squish::Topology& p : lib.patterns())
      if (!st.bundle->checker().isLegal(p)) ++illegal;
    ctx.report.check(illegal == 0,
                     std::to_string(illegal) + " stored patterns are illegal");
    s.setItems(static_cast<long>(lib.size()));
  }
  Span s(ctx.tracer, "pipeline.resume_noop");
  const dp::pipeline::MassiveResult again = dp::pipeline::runMassive(
      st.bundle->tcae(), st.bundle->sourceLatents(), st.bundle->perturber(),
      st.bundle->checker(), massiveConfig(ctx, dir, count));
  ctx.report.check(again.resumed && again.resumedFrom == count &&
                       again.legal == last.result.legal &&
                       again.unique == last.result.unique &&
                       again.diversity == last.result.diversity,
                   "rerun over the finished store is not a no-op resume");
}

// ---------------------------------------------------------------------------
// Train: checkpointed TCAE training jobs
// ---------------------------------------------------------------------------

struct TrainJob {
  double seconds = 0.0;
  dp::models::TrainStats stats;
};

dp::models::TcaeConfig trainConfig(long steps) {
  dp::models::TcaeConfig cfg;
  cfg.trainSteps = steps;
  cfg.initialLr = 2e-3;
  cfg.lrDecayEvery = std::max<long>(steps / 2, 1);
  return cfg;
}

std::uint64_t trainSeed(const Ctx& ctx) {
  return dp::splitmix64(ctx.opt.seed ^ 0x7cae7caeULL);
}

/// Trains fresh TCAEs with disk checkpoints until `seconds` pass. Every
/// job has the same init, data and batch order, so every job must reach
/// the same loss.
std::vector<TrainJob> runTrainJobs(
    Ctx& ctx, const std::vector<dp::squish::Topology>& data, long steps,
    long every, double seconds, const fs::path& dir) {
  std::vector<TrainJob> jobs;
  const auto t0 = e2e::Clock::now();
  do {
    fs::remove_all(dir);
    dp::train::TrainOptions options;
    options.checkpointDir = dir.string();
    options.checkpointEvery = every;
    TrainJob job;
    const auto start = e2e::Clock::now();
    {
      Span s(ctx.tracer, "train.run", static_cast<long>(jobs.size()));
      dp::Rng init(kTrainInitSeed);
      dp::models::Tcae tcae(trainConfig(steps), init);
      dp::Rng rng(trainSeed(ctx));
      job.stats = tcae.train(data, rng, options);
      s.setItems(job.stats.steps);
    }
    job.seconds = secondsSince(start);
    ++ctx.report.attempted;
    const auto& t = job.stats;
    const bool ok =
        t.steps == steps && std::isfinite(t.finalLoss) && t.rollbacks == 0 &&
        t.nanEvents == 0 &&
        (jobs.empty() || t.finalLoss == jobs.front().stats.finalLoss);
    if (!ok) ++ctx.report.failed;
    ctx.report.check(ok, "training job " + std::to_string(jobs.size()) +
                             ": non-finite or diverging loss, a rollback, or "
                             "a loss differing from the first job");
    jobs.push_back(std::move(job));
  } while (secondsSince(t0) < seconds);
  return jobs;
}

/// loadCheckpoint on the last job's directory must land on its final
/// step.
void verifyCheckpoint(Ctx& ctx, const std::vector<dp::squish::Topology>& data,
                      long steps, const fs::path& dir) {
  dp::Rng init(kTrainInitSeed);
  dp::models::Tcae tcae(trainConfig(steps), init);
  dp::nn::Adam opt(tcae.params(), 2e-3);
  std::vector<dp::nn::Tensor*> tensors;
  for (dp::nn::Param* p : tcae.params()) tensors.push_back(&p->value);
  for (dp::nn::Tensor* t : opt.state()) tensors.push_back(t);
  std::optional<dp::train::TrainCheckpoint> record;
  {
    Span s(ctx.tracer, "train.checkpoint_load");
    record = dp::train::loadCheckpoint(dir.string(),
                                       tcae.configHash(data.size()), tensors);
  }
  const long want = steps + (ctx.opt.corrupt ? 1 : 0);
  ctx.report.check(
      record && record->step == want,
      "loadCheckpoint did not return step " + std::to_string(want));
}

// ---------------------------------------------------------------------------
// Traced-only replays
// ---------------------------------------------------------------------------

struct ReplayTotals {
  long generated = 0;
  long legal = 0;
  long unique = 0;
  long attempted = 0;
  long solved = 0;
  long drcClean = 0;
  long floatMismatches = 0;
  std::vector<double> queueWaitMs;
};

/// Replays sampled requests of the traced load on one connection:
/// through the LB, straight to the worker, through an in-process
/// PatternServer::handle(), through parse / batcher / serialize, and
/// through the core layers one by one. The layer replay must reproduce
/// the served response; disagreements with the float path are counted.
ReplayTotals replayServe(Ctx& ctx, const Stack& st,
                         const std::vector<std::pair<long, double>>& picks) {
  ReplayTotals tot;
  e2e::KeepAliveClient viaLb(st.lbPort);
  e2e::KeepAliveClient direct(st.workerPort);
  dp::serve::PatternServer server;
  server.loadBundles(st.bundleRoot.string());
  for (const auto& [index, batcherMs] : picks) {
    const ServeRequest req = makeRequest(ctx, index);
    e2e::HttpReply served;
    {
      Span s(ctx.tracer, "serve.lb", index);
      served = viaLb.call("POST", "/generate", req.payload);
    }
    ctx.report.check(served.status == 200, "replay via LB failed");
    {
      Span s(ctx.tracer, "serve.direct", index);
      const int status = direct.call("POST", "/generate", req.payload).status;
      ctx.report.check(status == 200, "replay direct to worker failed");
    }
    dp::serve::HttpRequest http;
    http.method = "POST";
    http.target = "/generate";
    http.body = req.payload;
    {
      Span s(ctx.tracer, "serve.handle", index);
      ctx.report.check(server.handle(http).status == 200,
                       "in-process handle() failed");
    }
    dp::serve::GenerateRequest parsed;
    {
      Span s(ctx.tracer, "serve.parse", index);
      parsed = dp::serve::parseGenerateRequest(req.payload);
    }
    dp::serve::GenerateResponse response;
    {
      Span s(ctx.tracer, "serve.batcher", index);
      dp::serve::SubmitResult sub = server.batcher().submit(parsed);
      if (sub.status != dp::serve::SubmitResult::Status::kAccepted)
        throw std::runtime_error("in-process submit rejected: " + sub.error);
      response = sub.future.get();
    }
    {
      Span s(ctx.tracer, "serve.serialize", index);
      s.setItems(static_cast<long>(
          dp::serve::generateResponseJson(response).size()));
    }

    const Expected e = layerReplay(ctx, *st.bundle, req, true);
    tot.queueWaitMs.push_back(batcherMs - e.workMs);
    ctx.report.check(served.status != 200 ||
                         mismatch(served.body, e, req.bulk).empty(),
                     "layer replay of request " + std::to_string(index) +
                         " differs from the served response");
    ctx.tracer.setEnabled(false);
    const Expected f = floatPathReplay(ctx, *st.bundle, req);
    ctx.tracer.setEnabled(true);
    if (f.legal != e.legal || f.hashes != e.hashes ||
        (req.bulk && f.solved != e.solved))
      ++tot.floatMismatches;
    tot.generated += e.generated;
    tot.legal += e.legal;
    tot.unique += e.unique;
    tot.attempted += e.attempted;
    tot.solved += e.solved;
    tot.drcClean += e.drcClean;
  }
  server.stop();
  return tot;
}

/// Bare trainStep loop and batched forward passes on the train data.
void replayTrainSteps(Ctx& ctx,
                      const std::vector<dp::squish::Topology>& data) {
  const dp::models::TcaeConfig cfg = trainConfig(ctx.scale.bareSteps);
  dp::Rng init(kTrainInitSeed);
  dp::models::Tcae tcae(cfg, init);
  dp::Rng rng(trainSeed(ctx));
  const dp::nn::Tensor dataset =
      dp::models::encodeTopologies(data, cfg.inputSize);
  dp::nn::Adam opt(tcae.params(), cfg.initialLr);
  for (int step = 0; step < ctx.scale.bareSteps; ++step) {
    const auto idx = dp::models::sampleIndices(static_cast<int>(data.size()),
                                               cfg.batchSize, rng);
    const dp::nn::Tensor batch = dp::models::gatherRows(dataset, idx);
    Span s(ctx.tracer, "train.step", step);
    (void)tcae.trainStep(batch, opt);
    s.setItems(1);
  }
  for (int i = 0; i < 16; ++i) {
    const auto idx = dp::models::sampleIndices(static_cast<int>(data.size()),
                                               cfg.batchSize, rng);
    const dp::nn::Tensor batch = dp::models::gatherRows(dataset, idx);
    Span s(ctx.tracer, "nn.forward", i);
    (void)tcae.reconstruct(batch);
    s.setItems(cfg.batchSize);
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double peakRssMb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

void printLoadgen(const ServeRun& run, double rate, int connections) {
  std::vector<double> late;
  long ok = 0;
  for (const Outcome& o : run.open.outcomes) {
    late.push_back(o.lateMs);
    ok += o.ok ? 1 : 0;
  }
  const auto lat = latencies(run.open);
  std::cout << "open loop   : offered " << rate << " req/s, completed "
            << static_cast<double>(ok) / run.open.seconds << " req/s, "
            << lat.size() << " requests, late p99 "
            << e2e::quantile(late, 0.99) << " ms\n"
            << "              p50 " << e2e::quantile(lat, 0.5) << " / p95 "
            << e2e::quantile(lat, 0.95) << " / p99 "
            << e2e::quantile(lat, 0.99) << " ms\n"
            << "closed loop : " << run.closed.outcomes.size()
            << " requests in " << run.closed.seconds << " s on "
            << connections << " connections\n";
}

/// End-to-end numbers of one measured phase of the workload: latency
/// quantiles of its work items and its completion rate.
struct E2e {
  double p50Ms = 0.0;
  double p95Ms = 0.0;
  double perSecond = 0.0;
};

/// Serve numbers are medians over time windows, so a slow stretch of a
/// shared host moves a few windows instead of the whole run: each
/// latency quantile is the median of the per-window quantiles (windows
/// of at least 200 open-loop arrivals, so p95 has 10 samples beyond it),
/// and throughput the median of per-second closed-loop completions.
E2e serveE2e(const ServeRun& run, double rate) {
  // Equal windows covering the phase; the count rounds down, so every
  // window is at least as long as asked.
  const auto windows = [](double seconds, double minLen) {
    const long n = std::max(1L, static_cast<long>(seconds / minLen));
    return std::make_pair(n, seconds / static_cast<double>(n));
  };
  const auto [nOpen, lenOpen] =
      windows(static_cast<double>(run.open.scheduled) / rate,
              std::max(1.0, 200.0 / rate));
  std::vector<std::vector<double>> open(static_cast<std::size_t>(nOpen));
  for (const Outcome& o : run.open.outcomes)
    open[static_cast<std::size_t>(
             std::min(nOpen - 1, static_cast<long>(o.atS / lenOpen)))]
        .push_back(o.latencyMs);
  std::vector<double> p50;
  std::vector<double> p95;
  for (const auto& lat : open) {
    p50.push_back(e2e::quantile(lat, 0.5));
    p95.push_back(e2e::quantile(lat, 0.95));
  }
  const auto [nClosed, lenClosed] = windows(run.closed.seconds, 1.0);
  std::vector<double> perSecond(static_cast<std::size_t>(nClosed), 0.0);
  for (const Outcome& o : run.closed.outcomes)
    if (o.ok)
      perSecond[static_cast<std::size_t>(
          std::min(nClosed - 1, static_cast<long>(o.atS / lenClosed)))] +=
          1.0 / lenClosed;
  return {e2e::median(p50), e2e::median(p95), e2e::median(perSecond)};
}

template <typename Job>
E2e jobE2e(const std::vector<Job>& jobs, double itemsPerJob) {
  std::vector<double> ms;
  std::vector<double> rate;
  for (const Job& j : jobs) {
    ms.push_back(j.seconds * 1000.0);
    rate.push_back(itemsPerJob / j.seconds);
  }
  return {e2e::quantile(ms, 0.5), e2e::quantile(ms, 0.95), e2e::median(rate)};
}

std::string formatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int finish(Ctx& ctx) {
  Report& r = ctx.report;
  std::cout << "\n";
  for (const auto& [name, vu] : r.metrics)
    std::cout << "  " << name << " = " << formatNumber(vu.first) << " "
              << vu.second << "\n";
  std::cout << "attempted " << r.attempted << ", failed " << r.failed
            << ", check failures " << r.checkFailures << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<long>(r.attempted, 1)
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << formatNumber(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return r.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

void makeClients(LoadState& ls, int port, int n) {
  ls.clients.clear();
  for (int i = 0; i < n; ++i)
    ls.clients.push_back(std::make_unique<e2e::KeepAliveClient>(port));
}

/// Untraced run: set up `setups` times (median = setup_s), measure the
/// workload for --seconds, check every output.
int runUntraced(Ctx& ctx,
                std::vector<std::unique_ptr<dp::serve::Deployment>>& deps) {
  const Workload& w = *ctx.opt.workload;
  const Scale& sc = ctx.scale;
  const bool serve = w.kind == Kind::kServe;
  // A serve set-up needs one pre-forked deployment each, so it runs
  // exactly `setups` times; cheaper set-ups repeat until their median
  // is steady.
  std::vector<double> setupS;
  Stack st;
  const auto setupStart = e2e::Clock::now();
  for (int i = 0;
       i < sc.setups || (!serve && i < 400 && secondsSince(setupStart) < 2.0);
       ++i) {
    if (st.deployment != nullptr) st.deployment->stop();
    const auto t0 = e2e::Clock::now();
    st = setUp(ctx, w.kind != Kind::kTrain,
               serve ? deps[static_cast<std::size_t>(i)].get() : nullptr, i);
    setupS.push_back(secondsSince(t0));
  }
  std::cout << "set-up      : median " << e2e::median(setupS) << " s over "
            << setupS.size() << "\n";

  E2e m;
  if (serve) {
    LoadState ls;
    makeClients(ls, st.lbPort, sc.connections);
    tally(ctx, ls, openLoop(ctx, ls, w.rate, sc.warmupS));
    const ServeRun run = runServeLoad(ctx, ls, w.rate, ctx.opt.seconds);
    printLoadgen(run, w.rate, sc.connections);
    m = serveE2e(run, w.rate);
    ls.clients.clear();
    checkServedCount(ctx, st, ls, 0);
    verifySamples(ctx, st, ls);
    st.deployment->stop();
  } else if (w.kind == Kind::kPipeline) {
    const fs::path dir = ctx.opt.workdir / "store";
    const auto jobs =
        runPipelineJobs(ctx, st, sc.pipeCount, ctx.opt.seconds, dir);
    m = jobE2e(jobs, static_cast<double>(sc.pipeCount));
    std::cout << "library builds: " << jobs.size() << " of " << sc.pipeCount
              << " samples, unique " << jobs.back().result.unique << "\n";
    verifyStore(ctx, st, dir, jobs.back(), sc.pipeCount);
  } else {
    const fs::path dir = ctx.opt.workdir / "ckpt";
    const auto jobs = runTrainJobs(ctx, st.trainSet, sc.trainSteps,
                                   sc.trainEvery, ctx.opt.seconds, dir);
    m = jobE2e(jobs, static_cast<double>(sc.trainSteps));
    std::cout << "training jobs: " << jobs.size() << " of " << sc.trainSteps
              << " steps, final loss " << jobs.back().stats.finalLoss << "\n";
    verifyCheckpoint(ctx, st.trainSet, sc.trainSteps, dir);
  }
  ctx.report.metric("setup_s", e2e::median(setupS), "s");
  ctx.report.metric("latency_p50_ms", m.p50Ms, "ms");
  ctx.report.metric("latency_p95_ms", m.p95Ms, "ms");
  ctx.report.metric("throughput_per_s", m.perSecond, "1/s");
  ctx.report.metric("peak_rss_mb", peakRssMb(), "MB");
  return finish(ctx);
}

/// Everything a traced run measured, for the per-layer metrics.
struct TracedRun {
  ServeRun traffic;
  long sent = 0;      ///< requests the load generator sent (all phases)
  long non200 = 0;
  long replayed = 0;  ///< replay requests sent through the LB
  ReplayTotals replay;
  std::string metricsPage;  ///< LB /metrics after all serve traffic
  std::vector<PipeJob> pipeJobs;
  std::uintmax_t storeBytes = 0;
  std::vector<TrainJob> trainJobs;
  long trainSteps = 0;
  double overheadPct = 0.0;
};

/// Per-layer metrics: span self times, response fields and /metrics.
void reportLayers(Ctx& ctx, const TracedRun& t) {
  const auto agg = ctx.tracer.aggregate();
  const auto get = [&agg](const char* name) -> const e2e::SpanStats& {
    static const e2e::SpanStats kEmpty;
    const auto it = agg.find(name);
    return it == agg.end() ? kEmpty : it->second;
  };
  const auto medNs = [&](const char* n) { return e2e::median(get(n).durNs); };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto selfPerItemUs = [&](const char* n) {
    return ratio(get(n).selfNs / 1000.0, static_cast<double>(get(n).items));
  };
  Report& r = ctx.report;
  for (const char* name :
       {"setup.datagen", "setup.train", "setup.sensitivity", "setup.encode",
        "setup.bundle_save", "setup.deploy"})
    r.metric(std::string(name) + "_s", get(name).selfNs / 1e9, "s");

  const double lbNs = medNs("serve.lb");
  const double directNs = medNs("serve.direct");
  const double handleNs = medNs("serve.handle");
  const double parseNs = medNs("serve.parse");
  const double batcherNs = medNs("serve.batcher");
  const double serializeNs = medNs("serve.serialize");
  r.metric("serve.lb_hop_us", (lbNs - directNs) / 1000.0, "us");
  r.metric("serve.http_us", (directNs - handleNs) / 1000.0, "us");
  r.metric("serve.parse_us", parseNs / 1000.0, "us");
  r.metric("serve.serialize_us", serializeNs / 1000.0, "us");
  r.metric("serve.batcher_us", batcherNs / 1000.0, "us");
  const double inProcessNs = parseNs + batcherNs + serializeNs;
  r.metric("serve.attributed_pct",
           100.0 * ratio(lbNs - handleNs + inProcessNs, lbNs), "%");
  std::vector<double> batcherMs;
  double decodeBatches = 0.0;
  for (const LoadPhase* p : {&t.traffic.open, &t.traffic.closed})
    for (const Outcome& o : p->outcomes)
      if (o.ok) {
        batcherMs.push_back(o.batcherMs);
        decodeBatches += o.decodeBatches;
      }
  r.metric("serve.batcher_p50_ms", e2e::quantile(batcherMs, 0.5), "ms");
  r.metric("serve.batcher_p95_ms", e2e::quantile(batcherMs, 0.95), "ms");
  const std::vector<double>& waits = t.replay.queueWaitMs;
  double wait = 0.0;
  for (const double q : waits) wait += q;
  r.metric("serve.queue_wait_ms", ratio(wait, waits.size()), "ms");
  r.metric("serve.decode_batches_per_req",
           ratio(decodeBatches, batcherMs.size()), "count");
  const std::string& page = t.metricsPage;
  r.metric("serve.batch_occupancy_mean",
           ratio(e2e::sumMetricLines(page, "dp_batch_occupancy_sum{worker="),
                 e2e::sumMetricLines(page,
                                     "dp_batch_occupancy_count{worker=")),
           "count");
  r.metric("serve.keepalive_reuse_ratio",
           ratio(e2e::metricValue(page, "dp_keepalive_reuses_total "),
                 t.sent + t.replayed),
           "ratio");
  r.metric("serve.shed_total", e2e::sumMetricLines(page, "dp_shed_total{"),
           "count");
  r.metric("serve.non200_total", t.non200, "count");

  const ReplayTotals& rep = t.replay;
  r.metric("core.plan_us_per_pattern", selfPerItemUs("core.plan"), "us");
  r.metric("tensor.decode_us_per_pattern", selfPerItemUs("tensor.decode"),
           "us");
  r.metric("core.account_us_per_pattern", selfPerItemUs("core.account"),
           "us");
  r.metric("lp.materialize_us_per_clip", selfPerItemUs("lp.materialize"),
           "us");
  r.metric("core.legal_ratio", ratio(rep.legal, rep.generated), "ratio");
  r.metric("core.unique_ratio", ratio(rep.unique, rep.generated), "ratio");
  r.metric("lp.solved_ratio", ratio(rep.solved, rep.attempted), "ratio");
  r.metric("drc.clean_ratio", ratio(rep.drcClean, rep.solved), "ratio");
  r.metric("tensor.float_path_mismatches", rep.floatMismatches, "count");

  std::map<std::string, double> stageS;
  double wallS = 0.0;
  double samples = 0.0;
  for (const PipeJob& j : t.pipeJobs) {
    for (const auto& [stage, s] : j.result.stages) stageS[stage] += s.seconds;
    wallS += j.seconds;
    samples += j.result.generated;
  }
  double attributed = 0.0;
  for (const char* stage :
       {"plan", "decode", "assess", "dedup", "seal", "commit"}) {
    attributed += stageS[stage];
    r.metric(std::string("pipeline.") + stage + "_ns_per_sample",
             ratio(stageS[stage] * 1e9, samples), "ns");
  }
  r.metric("pipeline.unattributed_ns_per_sample",
           ratio((wallS - attributed) * 1e9, samples), "ns");
  r.metric("pipeline.attributed_pct", 100.0 * ratio(attributed, wallS), "%");
  r.metric("pipeline.verify_s", get("pipeline.verify").totalNs / 1e9, "s");
  r.metric("pipeline.resume_noop_s",
           get("pipeline.resume_noop").totalNs / 1e9, "s");
  r.metric("pipeline.store_bytes", static_cast<double>(t.storeBytes),
           "bytes");
  const dp::pipeline::MassiveResult& last = t.pipeJobs.back().result;
  r.metric("pipeline.legal_ratio", last.legalFraction(), "ratio");
  r.metric("pipeline.unique_ratio",
           ratio(static_cast<double>(last.unique), last.generated), "ratio");
  r.metric("pipeline.unique_patterns", static_cast<double>(last.unique),
           "count");

  const double stepMs = medNs("train.step") / 1e6;
  std::vector<double> perStepMs;
  for (const TrainJob& j : t.trainJobs)
    perStepMs.push_back(j.seconds * 1000.0 / t.trainSteps);
  const dp::models::TrainStats& ts = t.trainJobs.back().stats;
  r.metric("train.step_ms", stepMs, "ms");
  r.metric("train.harness_overhead_ms", e2e::median(perStepMs) - stepMs,
           "ms");
  r.metric("nn.forward_us_per_pattern", selfPerItemUs("nn.forward"), "us");
  r.metric("train.checkpoint_load_ms",
           get("train.checkpoint_load").totalNs / 1e6, "ms");
  r.metric("train.checkpoints_saved", ts.checkpointsSaved, "count");
  r.metric("train.rollbacks", ts.rollbacks, "count");
  r.metric("train.nan_events", ts.nanEvents, "count");
  r.metric("train.final_loss", ts.finalLoss, "mse");
  r.metric("trace.overhead_pct", t.overheadPct, "%");
}

/// Traced run: one traced set-up (bundle and deployment for every
/// workload, so every layer has a measurement), the workload's own
/// measurement twice — spans off, then on — for the tracing overhead,
/// then short side runs of the other workloads and the replays that
/// attribute time to layers.
int runTraced(Ctx& ctx,
              std::vector<std::unique_ptr<dp::serve::Deployment>>& deps) {
  const Workload& w = *ctx.opt.workload;
  const Scale& sc = ctx.scale;
  e2e::Tracer& tr = ctx.tracer;
  const double half = ctx.opt.seconds / 2.0;
  tr.setEnabled(true);
  Stack st = setUp(ctx, true, deps.front().get(), 0);
  // Side training runs of the other workloads use the model library.
  if (w.kind != Kind::kTrain) st.trainSet = st.topologies;

  TracedRun t;
  const auto overhead = [](const E2e& off, const E2e& on) {
    return off.p50Ms > 0 ? 100.0 * (on.p50Ms - off.p50Ms) / off.p50Ms : 0.0;
  };
  // Runs the workload's own phase untraced, then traced, and keeps the
  // overhead; `measure` returns the phase's end-to-end numbers.
  const auto ownPhase = [&](const std::function<E2e()>& measure) {
    tr.setEnabled(false);
    const E2e off = measure();
    tr.setEnabled(true);
    t.overheadPct = overhead(off, measure());
  };

  LoadState ls;
  makeClients(ls, st.lbPort, sc.connections);
  if (w.kind == Kind::kServe) {
    tr.setEnabled(false);
    tally(ctx, ls, openLoop(ctx, ls, w.rate, sc.warmupS));
    ownPhase([&] {
      t.traffic = runServeLoad(ctx, ls, w.rate, half);
      return serveE2e(t.traffic, w.rate);
    });
  } else {
    t.traffic = runServeLoad(ctx, ls, sc.sideRate, sc.sideSeconds);
  }

  const fs::path storeDir = ctx.opt.workdir / "store";
  if (w.kind == Kind::kPipeline) {
    ownPhase([&] {
      t.pipeJobs = runPipelineJobs(ctx, st, sc.pipeCount, half, storeDir);
      return jobE2e(t.pipeJobs, static_cast<double>(sc.pipeCount));
    });
  } else {
    t.pipeJobs = runPipelineJobs(ctx, st, sc.sidePipeCount, 0.0, storeDir);
  }

  const fs::path ckptDir = ctx.opt.workdir / "ckpt";
  const bool ownTrain = w.kind == Kind::kTrain;
  t.trainSteps = ownTrain ? sc.trainSteps : sc.sideTrainSteps;
  const long every = std::min(sc.trainEvery, t.trainSteps);
  const auto train = [&](double seconds) {
    t.trainJobs = runTrainJobs(ctx, st.trainSet, t.trainSteps, every,
                               seconds, ckptDir);
    return jobE2e(t.trainJobs, static_cast<double>(t.trainSteps));
  };
  if (ownTrain)
    ownPhase([&] { return train(half); });
  else
    (void)train(0.0);

  // Replays and checks.
  std::vector<std::pair<long, double>> picks;
  for (const LoadPhase* p : {&t.traffic.open, &t.traffic.closed})
    for (const Outcome& o : p->outcomes)
      if (o.ok && o.index % sc.verifyEvery == 0 &&
          static_cast<int>(picks.size()) < sc.replayMax)
        picks.emplace_back(o.index, o.batcherMs);
  ls.clients.clear();
  t.replay = replayServe(ctx, st, picks);
  t.replayed = static_cast<long>(picks.size());
  t.metricsPage = scrapeMetrics(st.lbPort);
  checkServedCount(ctx, st, ls, t.replayed);
  verifyStore(ctx, st, storeDir, t.pipeJobs.back(),
              t.pipeJobs.front().result.generated);
  t.storeBytes = directoryBytes(storeDir);
  verifyCheckpoint(ctx, st.trainSet, t.trainSteps, ckptDir);
  replayTrainSteps(ctx, st.trainSet);
  tr.setEnabled(false);
  verifySamples(ctx, st, ls);
  st.deployment->stop();
  t.sent = ls.sent;
  t.non200 = ls.non200;

  reportLayers(ctx, t);
  const std::string& out = ctx.opt.traceOut;
  ctx.report.check(tr.write(out), "cannot write trace file " + out);
  ctx.report.check(tr.dropped() == 0, "span buffer overflowed");
  std::cout << "trace       : " << tr.closed().size() << " spans -> " << out
            << "\n";
  return finish(ctx);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--workdir DIR] [--smoke] "
               "[--corrupt-reference]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " expects a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        const std::string name = value();
        for (const Workload& w : kWorkloads)
          if (name == w.name) o.workload = &w;
        if (o.workload == nullptr) usage("unknown workload " + name);
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() != "0";
      } else if (a == "--workdir") {
        o.workdir = value();
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--corrupt-reference") {
        o.corrupt = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Ctx ctx;
  ctx.opt = parseArgs(argc, argv);
  ctx.scale = ctx.opt.smoke ? Scale::smoke() : Scale{};
  if (ctx.opt.smoke) ctx.opt.seconds = std::min(ctx.opt.seconds, 0.5);
  const Workload& w = *ctx.opt.workload;

  // Deployments fork their supervisor at construction, which must
  // happen while this process has no threads yet.
  std::vector<std::unique_ptr<dp::serve::Deployment>> deps;
  const int needed =
      ctx.opt.trace ? 1 : (w.kind == Kind::kServe ? ctx.scale.setups : 0);
  for (int i = 0; i < needed; ++i) {
    deps.push_back(std::make_unique<dp::serve::Deployment>());
    if (!deps.back()->available()) {
      std::cerr << "e2e_bench: supervisor fork failed\n";
      return 1;
    }
  }
  std::cout << "# workload=" << w.name << " seed=" << ctx.opt.seed
            << " seconds=" << ctx.opt.seconds
            << " trace=" << (ctx.opt.trace ? 1 : 0)
            << " threads=" << dp::ThreadPool::defaultThreads() << "\n";
  int rc = 1;
  try {
    fs::create_directories(ctx.opt.workdir);
    ctx.opt.traceOut = (ctx.opt.workdir /
                        ("trace-" + std::string(w.name) + "-" +
                         std::to_string(ctx.opt.seed) + ".jsonl"))
                           .string();
    const fs::path mine = ctx.opt.workdir / (std::string(w.name) + "-" +
                                             std::to_string(::getpid()));
    ctx.opt.workdir = mine;
    fs::create_directories(mine);
    rc = ctx.opt.trace ? runTraced(ctx, deps) : runUntraced(ctx, deps);
    for (auto& d : deps) d->stop();
    fs::remove_all(mine);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
  return rc;
}
