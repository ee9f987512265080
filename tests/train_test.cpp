// Training-robustness suite (ctest label: train) — DESIGN.md §16.
//
// Covers the TrainCheckpoint record (atomic generation-suffixed
// publication, CRC/size/config-hash validation, stale-generation
// sweeps), the harness's behavior parity with an unguarded loop, and
// the headline crash-equivalence property ported from the massive
// pipeline: a training run crashed at ANY point (every
// train.checkpoint.* site plus the io.atomic.* writer sites), then
// resumed, converges on a checkpoint directory byte-identical to an
// uninterrupted run's — at DP_THREADS=1 and 8. The divergence guard
// (train.guard.nan injection, rollback + LR backoff, bounded retries)
// and the SIGTERM seal-and-resume path round out the failure matrix.
// Tcae::trainStep's subnormal flush is held to its bit tolerance
// against an unflushed step.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/fp_env.hpp"
#include "common/rng.hpp"
#include "datagen/generator.hpp"
#include "geometry/design_rules.hpp"
#include "models/batch.hpp"
#include "models/tcae.hpp"
#include "models/topology_codec.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "serve/metrics.hpp"
#include "testutil.hpp"
#include "train/checkpoint.hpp"
#include "train/harness.hpp"

namespace {

using dp::test::ScopedDpThreads;
using dp::test::ScopedTempDir;
using dp::test::tensorsBitEqual;
using dp::train::DivergenceError;
using dp::train::Harness;
using dp::train::HarnessSpec;
using dp::train::HarnessStats;
using dp::train::TrainCheckpoint;
using dp::train::TrainOptions;

std::map<std::string, std::string> dirBytes(const std::string& dir) {
  std::map<std::string, std::string> out;  // sorted by file name
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    out[entry.path().filename().string()] = ss.str();
  }
  return out;
}

::testing::AssertionResult storesIdentical(
    const std::map<std::string, std::string>& a,
    const std::map<std::string, std::string>& b) {
  for (const auto& [name, bytes] : a) {
    const auto it = b.find(name);
    if (it == b.end())
      return ::testing::AssertionFailure() << name << " missing";
    if (it->second != bytes)
      return ::testing::AssertionFailure()
             << name << " differs (" << bytes.size() << " vs "
             << it->second.size() << " bytes)";
  }
  for (const auto& [name, bytes] : b)
    if (a.find(name) == a.end())
      return ::testing::AssertionFailure() << name << " unexpected";
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------- checkpoint record

TrainCheckpoint sampleRecord() {
  TrainCheckpoint rec;
  rec.step = 40;
  rec.totalSteps = 100;
  rec.epoch = 3;
  rec.rollbacks = 2;
  rec.lrScale = 0.25;
  rec.nanEvents = 5;
  rec.lossTrace = {0.9, 0.5, 0.25, 0.125};
  rec.recentLosses = {0.13, 0.12, 0.11};
  rec.rngState = dp::Rng(17).state();
  rec.configHash = 0xdeadbeefcafef00dULL;  // needs exact serialization
  return rec;
}

TEST(TrainCheckpointRecord, FreshDirectorySweepsDebrisAndReturnsNullopt) {
  ScopedTempDir dir("dp_train_fresh");
  // A crashed save can leave an uncommitted state file and atomic-
  // writer temp files behind with no manifest.
  { std::ofstream(dir.file("state.40.bin")) << "junk"; }
  { std::ofstream(dir.file("manifest.json.tmp.123")) << "junk"; }
  dp::nn::Tensor t = dp::nn::Tensor::zeros({4});
  EXPECT_FALSE(
      dp::train::loadCheckpoint(dir.path(), 1, {&t}).has_value());
  EXPECT_TRUE(dirBytes(dir.path()).empty());
}

TEST(TrainCheckpointRecord, RoundTripsRecordAndTensors) {
  ScopedTempDir dir("dp_train_roundtrip");
  dp::Rng rng(3);
  const dp::nn::Tensor a = dp::nn::Tensor::randn({3, 4}, rng);
  const dp::nn::Tensor b = dp::nn::Tensor::randn({7}, rng);
  const TrainCheckpoint rec = sampleRecord();
  dp::train::saveCheckpoint(dir.path(), rec, {&a, &b});

  const auto files = dirBytes(dir.path());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files.count("manifest.json"), 1u);
  EXPECT_EQ(files.count("state.40.bin"), 1u);

  dp::nn::Tensor la = dp::nn::Tensor::zeros({3, 4});
  dp::nn::Tensor lb = dp::nn::Tensor::zeros({7});
  const auto loaded =
      dp::train::loadCheckpoint(dir.path(), rec.configHash, {&la, &lb});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->step, rec.step);
  EXPECT_EQ(loaded->totalSteps, rec.totalSteps);
  EXPECT_EQ(loaded->epoch, rec.epoch);
  EXPECT_EQ(loaded->rollbacks, rec.rollbacks);
  EXPECT_DOUBLE_EQ(loaded->lrScale, rec.lrScale);
  EXPECT_EQ(loaded->nanEvents, rec.nanEvents);
  EXPECT_EQ(loaded->lossTrace, rec.lossTrace);
  EXPECT_EQ(loaded->recentLosses, rec.recentLosses);
  EXPECT_EQ(loaded->rngState, rec.rngState);
  EXPECT_EQ(loaded->configHash, rec.configHash);
  EXPECT_TRUE(tensorsBitEqual(la, a));
  EXPECT_TRUE(tensorsBitEqual(lb, b));
}

TEST(TrainCheckpointRecord, RejectsConfigHashMismatch) {
  ScopedTempDir dir("dp_train_hashmismatch");
  const TrainCheckpoint rec = sampleRecord();
  dp::nn::Tensor t = dp::nn::Tensor::zeros({2});
  dp::train::saveCheckpoint(dir.path(), rec, {&t});
  try {
    (void)dp::train::loadCheckpoint(dir.path(), rec.configHash + 1, {&t});
    FAIL() << "hash mismatch not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos)
        << e.what();
  }
}

TEST(TrainCheckpointRecord, RejectsCorruptAndTruncatedState) {
  ScopedTempDir dir("dp_train_corrupt");
  dp::Rng rng(9);
  dp::nn::Tensor t = dp::nn::Tensor::randn({16}, rng);
  const TrainCheckpoint rec = sampleRecord();
  dp::train::saveCheckpoint(dir.path(), rec, {&t});
  const std::string statePath = dir.file("state.40.bin");

  // Flip one byte in the middle: CRC mismatch, same size.
  std::string bytes;
  {
    std::ifstream in(statePath, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  {
    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    std::ofstream out(statePath, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  EXPECT_THROW(
      (void)dp::train::loadCheckpoint(dir.path(), rec.configHash, {&t}),
      std::runtime_error);

  // Truncate: size mismatch, rejected before any CRC work.
  {
    std::ofstream out(statePath, std::ios::binary | std::ios::trunc);
    out << "short";
  }
  EXPECT_THROW(
      (void)dp::train::loadCheckpoint(dir.path(), rec.configHash, {&t}),
      std::runtime_error);
}

TEST(TrainCheckpointRecord, SaveAndLoadFaultsAreInjectable) {
  ScopedTempDir dir("dp_train_ckptfault");
  dp::nn::Tensor t = dp::nn::Tensor::zeros({2});
  const TrainCheckpoint rec = sampleRecord();

  dp::faults::arm("train.checkpoint.save", 4, 1.0);
  EXPECT_THROW(dp::train::saveCheckpoint(dir.path(), rec, {&t}),
               dp::FaultInjected);
  dp::faults::disarmAll();
  dp::train::saveCheckpoint(dir.path(), rec, {&t});

  // The load site fires only once a manifest exists (a fresh run has
  // no load to fail).
  dp::faults::arm("train.checkpoint.load", 4, 1.0);
  EXPECT_THROW(
      (void)dp::train::loadCheckpoint(dir.path(), rec.configHash, {&t}),
      dp::FaultInjected);
  dp::faults::disarmAll();
  EXPECT_TRUE(dp::train::loadCheckpoint(dir.path(), rec.configHash, {&t})
                  .has_value());
}

// ------------------------------------------------- synthetic harness

constexpr int kDim = 6;
constexpr std::uint64_t kQuadHash = 0x51adf00dULL;

/// One jittered least-squares step on `w`: target_i = i/kDim plus rng
/// noise, so the step consumes the training stream and the loss
/// decreases — a minimal stand-in for a model's forward/backward.
double quadStep(dp::nn::Param& w, dp::Rng& rng) {
  w.grad.zero();
  double loss = 0.0;
  for (std::size_t i = 0; i < w.value.numel(); ++i) {
    const double target =
        static_cast<double>(i) / kDim + 0.01 * rng.gaussian();
    const double diff = static_cast<double>(w.value[i]) - target;
    loss += diff * diff;
    w.grad[i] = static_cast<float>(2.0 * diff / kDim);
  }
  return loss / kDim;
}

struct QuadResult {
  HarnessStats stats;
  dp::nn::Tensor weights;
};

/// Builds a fresh quadratic model (seeded init), runs it on the
/// harness, and returns the stats plus final weights. `onStep` hooks
/// into the step function (stop requests, fault choreography).
QuadResult runQuad(const TrainOptions& options, long totalSteps,
                   const std::function<void(long)>& onStep = {}) {
  dp::Rng init(5);
  dp::nn::Param w(dp::nn::Tensor::randn({kDim}, init));
  dp::nn::Adam opt({&w}, 0.05);
  HarnessSpec spec;
  spec.totalSteps = totalSteps;
  spec.lrAt = [](long) { return 0.05; };
  spec.configHash = kQuadHash;
  spec.samplesPerStep = 1;
  spec.datasetSize = 10;
  Harness harness({&w}, {}, {&opt}, spec, options);
  dp::Rng rng(6);
  const HarnessStats stats =
      harness.run(rng, [&](long step, dp::Rng& r) {
        if (onStep) onStep(step);
        const double loss = quadStep(w, r);
        harness.guardedStep(opt);
        return loss;
      });
  return {stats, w.value};
}

TrainOptions quadOptions(const std::string& dir = "") {
  TrainOptions o;
  o.checkpointDir = dir;
  o.checkpointEvery = 20;
  o.traceEvery = 10;
  return o;
}

class TrainHarness : public ::testing::Test {
 protected:
  void SetUp() override {
    dp::faults::disarmAll();
    dp::train::clearStopRequest();
  }
  void TearDown() override {
    dp::faults::disarmAll();
    dp::train::clearStopRequest();
  }
};

TEST_F(TrainHarness, MatchesAnUnguardedLoopBitForBit) {
  const QuadResult guarded = runQuad(quadOptions(), 60);
  EXPECT_EQ(guarded.stats.steps, 60);
  EXPECT_FALSE(guarded.stats.resumed);
  EXPECT_EQ(guarded.stats.rollbacks, 0);
  EXPECT_EQ(guarded.stats.nanEvents, 0);
  ASSERT_EQ(guarded.stats.lossTrace.size(), 6u);  // steps 0,10,...,50
  EXPECT_GT(guarded.stats.lossTrace.front(),
            guarded.stats.lossTrace.back());

  // The same model stepped by a bare loop: with finite gradients the
  // guard layer must be invisible.
  dp::Rng init(5);
  dp::nn::Param w(dp::nn::Tensor::randn({kDim}, init));
  dp::nn::Adam opt({&w}, 0.05);
  dp::Rng rng(6);
  double last = 0.0;
  for (long step = 0; step < 60; ++step) {
    opt.setLearningRate(0.05);
    last = quadStep(w, rng);
    opt.step();
  }
  EXPECT_TRUE(tensorsBitEqual(w.value, guarded.weights));
  EXPECT_DOUBLE_EQ(last, guarded.stats.finalLoss);
}

TEST_F(TrainHarness, RejectsInvalidConstruction) {
  dp::Rng init(5);
  dp::nn::Param w(dp::nn::Tensor::randn({kDim}, init));
  dp::nn::Adam opt({&w}, 0.05);
  HarnessSpec spec;
  spec.totalSteps = 10;
  EXPECT_THROW(Harness({&w}, {}, {&opt}, spec, TrainOptions{}),
               std::invalid_argument);  // missing lrAt
  spec.lrAt = [](long) { return 0.05; };
  TrainOptions bad;
  bad.checkpointEvery = 0;
  EXPECT_THROW(Harness({&w}, {}, {&opt}, spec, bad),
               std::invalid_argument);
  EXPECT_THROW(Harness({nullptr}, {}, {&opt}, spec, TrainOptions{}),
               std::invalid_argument);
}

// The headline chaos property, on the cheap synthetic model: crash at
// every step boundary and inside every writer syscall window, resume,
// and converge on a byte-identical checkpoint directory.
TEST_F(TrainHarness, KillAtEveryCrashWindowResumesToIdenticalCheckpoint) {
  ScopedTempDir ref("dp_train_chaos_ref");
  const QuadResult refRun = runQuad(quadOptions(ref.path()), 100);
  EXPECT_EQ(refRun.stats.steps, 100);
  EXPECT_GT(refRun.stats.checkpointsSaved, 0);
  const auto refBytes = dirBytes(ref.path());

  struct SiteSpec {
    const char* name;
    double resumeRate;  // per-call fire rate for re-armed windows
  };
  // train.checkpoint.step fires once per STEP, the others once per
  // boundary/write — the per-step site needs a far lower resume rate
  // or no attempt ever reaches the next checkpoint.
  const std::vector<SiteSpec> sites = {
      {"train.checkpoint.step", 0.04}, {"train.checkpoint.save", 0.35},
      {"io.atomic.write", 0.35},       {"io.atomic.fsync", 0.35},
      {"io.atomic.rename", 0.35}};
  for (const SiteSpec& site : sites) {
    SCOPED_TRACE(site.name);
    ScopedTempDir dir("dp_train_chaos");
    // First window always fires at the site's first call, so every
    // site provably crashes at least once; later windows re-arm with
    // fresh seeds so each resume crashes somewhere new.
    dp::faults::arm(site.name, 13, 1.0);
    int crashes = 0;
    bool complete = false;
    for (int attempt = 0; attempt < 12 && !complete; ++attempt) {
      try {
        (void)runQuad(quadOptions(dir.path()), 100);
        complete = true;
      } catch (const std::exception&) {
        ++crashes;  // crash window: resume on the next attempt
        dp::faults::arm(site.name, 14 + attempt, site.resumeRate);
      }
    }
    dp::faults::disarmAll();
    const QuadResult result = runQuad(quadOptions(dir.path()), 100);
    EXPECT_GT(crashes, 0) << "fault never fired; test exercised nothing";
    EXPECT_EQ(result.stats.steps, 100);
    EXPECT_TRUE(tensorsBitEqual(result.weights, refRun.weights));
    EXPECT_TRUE(storesIdentical(dirBytes(dir.path()), refBytes));
  }
}

TEST_F(TrainHarness, ExtendingTotalStepsResumesForward) {
  ScopedTempDir ref("dp_train_extend_ref");
  const QuadResult refRun = runQuad(quadOptions(ref.path()), 100);

  ScopedTempDir dir("dp_train_extend");
  const QuadResult half = runQuad(quadOptions(dir.path()), 60);
  EXPECT_EQ(half.stats.steps, 60);

  const QuadResult full = runQuad(quadOptions(dir.path()), 100);
  EXPECT_TRUE(full.stats.resumed);
  EXPECT_EQ(full.stats.resumedFrom, 60);
  EXPECT_EQ(full.stats.steps, 100);
  EXPECT_TRUE(tensorsBitEqual(full.weights, refRun.weights));
  EXPECT_TRUE(storesIdentical(dirBytes(dir.path()), dirBytes(ref.path())));
}

TEST_F(TrainHarness, RefusesToResumeBackwards) {
  ScopedTempDir dir("dp_train_backwards");
  (void)runQuad(quadOptions(dir.path()), 60);
  try {
    (void)runQuad(quadOptions(dir.path()), 40);
    FAIL() << "backwards resume not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to resume backwards"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TrainHarness, StopRequestSealsACheckpointAndResumes) {
  ScopedTempDir ref("dp_train_stop_ref");
  const QuadResult refRun = runQuad(quadOptions(ref.path()), 100);

  ScopedTempDir dir("dp_train_stop");
  // Request the stop mid-interval (step 37, off the checkpoint grid):
  // the harness must seal at the NEXT step boundary it reaches, not
  // wait for the grid.
  const QuadResult sealed =
      runQuad(quadOptions(dir.path()), 100, [](long step) {
        if (step == 37) dp::train::requestStop();
      });
  EXPECT_TRUE(sealed.stats.sealedByStop);
  EXPECT_EQ(sealed.stats.steps, 38);
  EXPECT_EQ(dirBytes(dir.path()).count("state.38.bin"), 1u);

  dp::train::clearStopRequest();
  const QuadResult resumed = runQuad(quadOptions(dir.path()), 100);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.stats.resumedFrom, 38);
  EXPECT_EQ(resumed.stats.steps, 100);
  EXPECT_TRUE(tensorsBitEqual(resumed.weights, refRun.weights));
  EXPECT_TRUE(storesIdentical(dirBytes(dir.path()), dirBytes(ref.path())));
}

TEST_F(TrainHarness, SigtermSetsTheStopFlagViaTheInstalledHandler) {
  dp::train::installStopHandler();
  EXPECT_FALSE(dp::train::stopRequested());
  ASSERT_EQ(std::raise(SIGTERM), 0);  // caught by the handler
  EXPECT_TRUE(dp::train::stopRequested());
  dp::train::clearStopRequest();
}

TEST_F(TrainHarness, NanInjectionRollsBackAndBacksOffDeterministically) {
  // A low-rate injected divergence stream: the run must absorb the
  // detections via rollback + LR backoff and still complete, and the
  // whole trajectory must replay bit-identically from the same seed.
  QuadResult first{};
  TrainOptions options = quadOptions();
  options.maxRollbacks = 16;  // headroom: replayed steps re-roll the dice
  for (int pass = 0; pass < 2; ++pass) {
    dp::faults::arm("train.guard.nan", 21, 0.02);
    const QuadResult r = runQuad(options, 100);
    dp::faults::disarmAll();
    EXPECT_EQ(r.stats.steps, 100);
    EXPECT_GT(r.stats.rollbacks, 0);
    EXPECT_GT(r.stats.nanEvents, 0);
    if (pass == 0) {
      first = r;
    } else {
      EXPECT_EQ(r.stats.rollbacks, first.stats.rollbacks);
      EXPECT_EQ(r.stats.nanEvents, first.stats.nanEvents);
      EXPECT_EQ(r.stats.lossTrace, first.stats.lossTrace);
      EXPECT_TRUE(tensorsBitEqual(r.weights, first.weights));
    }
  }
}

TEST_F(TrainHarness, NonFiniteGradientSentinelTriggersRollback) {
  // Poison the gradient directly at one step (no injection site): the
  // sentinel must catch it and the rollback replay must complete.
  dp::Rng init(5);
  dp::nn::Param w(dp::nn::Tensor::randn({kDim}, init));
  dp::nn::Adam opt({&w}, 0.05);
  HarnessSpec spec;
  spec.totalSteps = 30;
  spec.lrAt = [](long) { return 0.05; };
  spec.configHash = kQuadHash;
  Harness harness({&w}, {}, {&opt}, spec, quadOptions());
  dp::Rng rng(6);
  bool poisoned = false;
  const HarnessStats stats =
      harness.run(rng, [&](long step, dp::Rng& r) {
        const double loss = quadStep(w, r);
        if (step == 7 && !poisoned) {
          poisoned = true;
          w.grad[0] = std::numeric_limits<float>::quiet_NaN();
        }
        harness.guardedStep(opt);
        return loss;
      });
  EXPECT_EQ(stats.steps, 30);
  EXPECT_EQ(stats.rollbacks, 1);
  EXPECT_EQ(stats.nanEvents, 1);
}

TEST_F(TrainHarness, ExhaustedRollbackBudgetHardFailsWithDiagnostic) {
  dp::faults::arm("train.guard.nan", 8, 1.0);  // every step diverges
  TrainOptions options = quadOptions();
  options.maxRollbacks = 2;
  try {
    (void)runQuad(options, 50);
    FAIL() << "exhausted budget did not fail";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rollback budget exhausted"), std::string::npos)
        << what;
    EXPECT_NE(what.find("2 rollbacks"), std::string::npos) << what;
    EXPECT_NE(what.find("lrScale"), std::string::npos) << what;
  }
  dp::faults::disarmAll();
}

TEST_F(TrainHarness, LossSpikeDetectionRollsBack) {
  dp::Rng init(5);
  dp::nn::Param w(dp::nn::Tensor::randn({kDim}, init));
  dp::nn::Adam opt({&w}, 0.05);
  HarnessSpec spec;
  spec.totalSteps = 40;
  spec.lrAt = [](long) { return 0.05; };
  spec.configHash = kQuadHash;
  TrainOptions options = quadOptions();
  options.spikeFactor = 10.0;
  Harness harness({&w}, {}, {&opt}, spec, options);
  dp::Rng rng(6);
  bool spiked = false;
  const HarnessStats stats =
      harness.run(rng, [&](long step, dp::Rng& r) {
        double loss = quadStep(w, r);
        if (step == 25 && !spiked) {
          spiked = true;
          loss = 1e6;  // data glitch: one wild batch
        }
        harness.guardedStep(opt);
        return loss;
      });
  EXPECT_EQ(stats.steps, 40);
  EXPECT_EQ(stats.rollbacks, 1);
  EXPECT_EQ(stats.nanEvents, 0);  // a spike is not a NaN event
}

TEST_F(TrainHarness, GradientClipRescalesOversizedUpdatesInPlace) {
  dp::nn::Param w(dp::nn::Tensor::zeros({4}));
  dp::nn::Sgd opt({&w}, 0.0);  // lr 0: step() leaves grads observable
  HarnessSpec spec;
  spec.totalSteps = 1;
  spec.lrAt = [](long) { return 0.0; };
  spec.configHash = kQuadHash;
  TrainOptions options;
  options.gradClipNorm = 2.0;
  Harness harness({&w}, {}, {&opt}, spec, options);

  // ||(3,4,0,0)|| = 5 > 2: scaled to the clip norm, direction kept.
  w.grad[0] = 3.0f;
  w.grad[1] = 4.0f;
  harness.guardedStep(opt);
  EXPECT_FLOAT_EQ(w.grad[0], 3.0f * (2.0f / 5.0f));
  EXPECT_FLOAT_EQ(w.grad[1], 4.0f * (2.0f / 5.0f));
  EXPECT_FLOAT_EQ(w.grad[2], 0.0f);

  // Under the clip norm: untouched bit for bit.
  w.grad.zero();
  w.grad[0] = 1.0f;
  w.grad[1] = 1.0f;
  harness.guardedStep(opt);
  EXPECT_FLOAT_EQ(w.grad[0], 1.0f);
  EXPECT_FLOAT_EQ(w.grad[1], 1.0f);
}

// ------------------------------------------------- end-to-end (Tcae)

const std::vector<dp::squish::Topology>& trainTopologies() {
  static const auto* topos = [] {
    dp::Rng rng(7);
    const dp::DesignRules rules = dp::euv7nmM2();
    const auto clips = dp::datagen::generateLibrary(
        dp::datagen::directprintSpec(1), rules, 24, rng);
    return new std::vector<dp::squish::Topology>(
        dp::datagen::extractTopologies(clips));
  }();
  return *topos;
}

dp::models::TrainStats runTcae(const std::string& dir, long steps = 60) {
  dp::Rng rng(2019);
  dp::models::TcaeConfig cfg;
  cfg.trainSteps = steps;
  cfg.batchSize = 16;
  cfg.initialLr = 2e-3;
  dp::models::Tcae tcae(cfg, rng);
  TrainOptions options;
  options.checkpointDir = dir;
  options.checkpointEvery = 20;
  return tcae.train(trainTopologies(), rng, options);
}

class TcaeTrain : public ::testing::Test {
 protected:
  void SetUp() override {
    dp::faults::disarmAll();
    dp::train::clearStopRequest();
  }
  void TearDown() override {
    dp::faults::disarmAll();
    dp::train::clearStopRequest();
  }
};

// The crown jewel on the real model: kill the Tcae run at every step
// boundary / save window, resume, and require the final checkpoint
// directory byte-identical to an uninterrupted run's — at 1 and 8
// threads (conv forward/backward runs on the pool).
TEST_F(TcaeTrain, KillAtEveryBoundaryResumesToIdenticalCheckpoint) {
  struct SiteSpec {
    const char* name;
    double resumeRate;
  };
  const std::vector<SiteSpec> sites = {{"train.checkpoint.step", 0.04},
                                       {"train.checkpoint.save", 0.35}};
  for (const int threads : {1, 8}) {
    ScopedDpThreads guard(threads);
    ScopedTempDir ref("dp_tcae_chaos_ref");
    const dp::models::TrainStats refStats = runTcae(ref.path());
    EXPECT_EQ(refStats.steps, 60);
    const auto refBytes = dirBytes(ref.path());

    for (const SiteSpec& site : sites) {
      SCOPED_TRACE(std::string("site=") + site.name +
                   " threads=" + std::to_string(threads));
      ScopedTempDir dir("dp_tcae_chaos");
      dp::faults::arm(site.name, 13, 1.0);
      int crashes = 0;
      bool complete = false;
      for (int attempt = 0; attempt < 12 && !complete; ++attempt) {
        try {
          (void)runTcae(dir.path());
          complete = true;
        } catch (const std::exception&) {
          ++crashes;
          dp::faults::arm(site.name, 14 + attempt, site.resumeRate);
        }
      }
      dp::faults::disarmAll();
      const dp::models::TrainStats stats = runTcae(dir.path());
      EXPECT_GT(crashes, 0) << "fault never fired; test exercised "
                               "nothing";
      EXPECT_EQ(stats.steps, 60);
      EXPECT_TRUE(storesIdentical(dirBytes(dir.path()), refBytes));
    }
  }
}

TEST_F(TcaeTrain, CheckpointedRunIsIdenticalAcrossThreadCounts) {
  std::map<std::string, std::string> reference;
  for (const int threads : {1, 8}) {
    ScopedDpThreads guard(threads);
    ScopedTempDir dir("dp_tcae_threads_" + std::to_string(threads));
    const dp::models::TrainStats stats = runTcae(dir.path());
    EXPECT_EQ(stats.steps, 60);
    EXPECT_FALSE(stats.resumed);
    if (reference.empty()) {
      reference = dirBytes(dir.path());
    } else {
      EXPECT_TRUE(storesIdentical(dirBytes(dir.path()), reference))
          << "checkpoint depends on DP_THREADS=" << threads;
    }
  }
}

TEST_F(TcaeTrain, InjectedDivergenceReplaysIdenticallyAtAnyThreadCount) {
  dp::models::TrainStats first{};
  std::vector<dp::nn::Tensor> firstParams;
  bool haveFirst = false;
  for (const int threads : {1, 8}) {
    ScopedDpThreads guard(threads);
    dp::Rng rng(2019);
    dp::models::TcaeConfig cfg;
    cfg.trainSteps = 60;
    cfg.batchSize = 16;
    cfg.initialLr = 2e-3;
    dp::models::Tcae tcae(cfg, rng);
    TrainOptions options;
    options.maxRollbacks = 16;  // headroom: replays re-roll the dice
    dp::faults::arm("train.guard.nan", 33, 0.03);
    const dp::models::TrainStats stats =
        tcae.train(trainTopologies(), rng, options);
    dp::faults::disarmAll();
    EXPECT_EQ(stats.steps, 60);
    EXPECT_GT(stats.rollbacks, 0);
    EXPECT_GT(stats.nanEvents, 0);
    std::vector<dp::nn::Tensor> params;
    for (dp::nn::Param* p : tcae.params()) params.push_back(p->value);
    if (!haveFirst) {
      haveFirst = true;
      first = stats;
      firstParams = std::move(params);
    } else {
      EXPECT_EQ(stats.rollbacks, first.rollbacks);
      EXPECT_EQ(stats.nanEvents, first.nanEvents);
      EXPECT_EQ(stats.lossEvery100, first.lossEvery100);
      ASSERT_EQ(params.size(), firstParams.size());
      for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_TRUE(tensorsBitEqual(params[i], firstParams[i])) << i;
    }
  }
}

/// Subnormal entries of `t`.
long subnormalCount(const dp::nn::Tensor& t) {
  long n = 0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    // Bits, not fpclassify: under DAZ a subnormal compares equal to 0.
    const auto bits = std::bit_cast<std::uint32_t>(t[i]);
    n += (bits & 0x7F800000U) == 0 && (bits & 0x007FFFFFU) != 0 ? 1 : 0;
  }
  return n;
}

struct FlushCheckRun {
  std::vector<double> losses;
  std::vector<dp::nn::Tensor> state;  ///< parameters, then Adam's state
  long subnormalGrads = 0;  ///< in layer gradients of the plain run
};

/// 60 steps of the paper-default TCAE at batch 64, through
/// Tcae::trainStep (`flushed`) or through the same layer stack in
/// default IEEE mode, one layer at a time.
FlushCheckRun trainForFlushCheck(bool flushed, int threads) {
  const ScopedDpThreads guard(threads);
  dp::Rng rng(2019);
  const dp::models::TcaeConfig cfg;
  dp::models::Tcae tcae(cfg, rng);
  const dp::nn::Tensor dataset =
      dp::models::encodeTopologies(trainTopologies(), cfg.inputSize);
  dp::nn::Adam opt(tcae.params(), 2e-3);
  FlushCheckRun run;
  for (int step = 0; step < 60; ++step) {
    const dp::nn::Tensor batch = dp::models::gatherRows(
        dataset, dp::models::sampleIndices(dataset.size(0), cfg.batchSize,
                                           rng));
    if (flushed) {
      run.losses.push_back(tcae.trainStep(batch, opt));
      continue;
    }
    opt.zeroGrad();
    const dp::nn::Tensor latent = tcae.encoder().forward(batch, true);
    const dp::nn::Tensor recon = tcae.decoder().forward(latent, true);
    dp::nn::Tensor grad;
    run.losses.push_back(dp::nn::mseLoss(recon, batch, grad));
    for (dp::nn::Sequential* stack : {&tcae.decoder(), &tcae.encoder()})
      for (std::size_t i = stack->layerCount(); i-- > 0;) {
        grad = stack->layer(i).backward(grad);
        run.subnormalGrads += subnormalCount(grad);
      }
    opt.step();
  }
  for (dp::nn::Param* p : tcae.params()) run.state.push_back(p->value);
  for (dp::nn::Tensor* t : opt.state()) run.state.push_back(*t);
  return run;
}

/// Every element bit-equal, or below 1e-20 in magnitude on both sides.
::testing::AssertionResult equalOrTiny(const dp::nn::Tensor& a,
                                       const dp::nn::Tensor& b) {
  if (a.shape() != b.shape())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const bool tiny = std::fabs(a[i]) < 1e-20f && std::fabs(b[i]) < 1e-20f;
    if (std::bit_cast<std::uint32_t>(a[i]) !=
            std::bit_cast<std::uint32_t>(b[i]) &&
        !tiny)
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
  }
  return ::testing::AssertionSuccess();
}

// trainStep flushes subnormals during the forward, loss and backward
// passes. Against a plain IEEE run of the same stack, every loss must
// stay bit-equal and every parameter and Adam moment must be bit-equal
// or below 1e-20 in both runs, at 1 and 8 lanes; the flushed run must
// also be identical across lane counts.
TEST_F(TcaeTrain, FlushingSubnormalsMovesOnlyTinyValues) {
  if (!dp::flushSubnormalsSupported())
    GTEST_SKIP() << "no subnormal flush on this target";
  std::vector<FlushCheckRun> flushedRuns;
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FlushCheckRun plain = trainForFlushCheck(false, threads);
    const FlushCheckRun flushed = trainForFlushCheck(true, threads);
    EXPECT_GT(plain.subnormalGrads, 0)
        << "the plain run met no subnormal gradient; the check is vacuous";
    ASSERT_EQ(plain.losses.size(), flushed.losses.size());
    for (std::size_t i = 0; i < plain.losses.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(plain.losses[i]),
                std::bit_cast<std::uint64_t>(flushed.losses[i]))
          << "step " << i << ": " << plain.losses[i] << " vs "
          << flushed.losses[i];
    ASSERT_EQ(plain.state.size(), flushed.state.size());
    for (std::size_t i = 0; i < plain.state.size(); ++i)
      EXPECT_TRUE(equalOrTiny(plain.state[i], flushed.state[i]))
          << "state tensor " << i;
    flushedRuns.push_back(flushed);
  }
  for (std::size_t i = 0; i < flushedRuns[0].state.size(); ++i)
    EXPECT_TRUE(
        tensorsBitEqual(flushedRuns[0].state[i], flushedRuns[1].state[i]))
        << "flushed state tensor " << i << " depends on DP_THREADS";
}

// ------------------------------------------------- metrics surface

TEST(TrainMetrics, CountersAccumulateAndRenderOnPrometheusSurface) {
  dp::serve::Metrics metrics;
  // Gated: a process that never trains emits no dp_train_* series.
  EXPECT_EQ(metrics.renderPrometheus().find("dp_train_"),
            std::string::npos);

  dp::serve::TrainCounters c;
  c.steps = 100;
  c.rollbacks = 2;
  c.nanEvents = 3;
  c.checkpointsSaved = 5;
  c.resumes = 1;
  metrics.recordTrain(c);
  metrics.recordTrain(c);

  const dp::serve::TrainCounters totals = metrics.trainTotals();
  EXPECT_EQ(totals.steps, 200u);
  EXPECT_EQ(totals.rollbacks, 4u);
  EXPECT_EQ(totals.nanEvents, 6u);
  EXPECT_EQ(totals.checkpointsSaved, 10u);
  EXPECT_EQ(totals.resumes, 2u);

  const std::string text = metrics.renderPrometheus();
  EXPECT_NE(text.find("dp_train_steps_total 200"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dp_train_rollbacks_total 4"), std::string::npos);
  EXPECT_NE(text.find("dp_train_nan_events_total 6"), std::string::npos);
  EXPECT_NE(text.find("dp_train_checkpoints_saved_total 10"),
            std::string::npos);
  EXPECT_NE(text.find("dp_train_resumes_total 2"), std::string::npos);
}

}  // namespace
