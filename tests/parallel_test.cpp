// Determinism and regression tests for the thread-pool execution
// substrate. The contract under test: every parallelized computation in
// the project is bit-identical at any DP_THREADS setting — chunk
// boundaries depend only on (n, grain), per-element accumulation orders
// are fixed, and per-task Rng streams are derived from the task index,
// never from scheduling.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/fp_env.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "core/flows.hpp"
#include "core/pipeline.hpp"
#include "core/sensitivity.hpp"
#include "datagen/generator.hpp"
#include "drc/geometry_rules.hpp"
#include "drc/topology_rules.hpp"
#include "lp/geometry_solver.hpp"
#include "models/tcae.hpp"
#include "models/topology_codec.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "squish/hash.hpp"
#include "tensor/gemm.hpp"
#include "testutil.hpp"

namespace {

using dp::ThreadPool;
using dp::nn::Tensor;
using dp::test::ScopedDpThreads;
using dp::test::tensorsBitEqual;

// ------------------------------------------------------- ThreadPool unit

TEST(ThreadPool, StartupAndShutdown) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    std::atomic<long> sum{0};
    pool.parallelFor(100, 3, [&](long b, long e) { sum += e - b; });
    EXPECT_EQ(sum.load(), 100);
  }
  // Destroying an idle pool must not hang (checked implicitly by scope
  // exit); a zero-thread request clamps to one.
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.threads(), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    const long n = 1000;
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v = 0;
    pool.parallelFor(n, 7, [&](long b, long e) {
      for (long i = b; i < e; ++i) ++visits[static_cast<std::size_t>(i)];
    });
    for (long i = 0; i < n; ++i)
      ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " at " << threads << " threads";
  }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount) {
  auto chunksAt = [](int threads) {
    ThreadPool pool(threads);
    dp::Mutex m;
    std::set<std::pair<long, long>> chunks;
    pool.parallelFor(103, 10, [&](long b, long e) {
      const dp::LockGuard lock(m);
      chunks.emplace(b, e);
    });
    return chunks;
  };
  const auto serial = chunksAt(1);
  EXPECT_EQ(serial.size(), 11u);  // ceil(103 / 10)
  EXPECT_EQ(serial, chunksAt(2));
  EXPECT_EQ(serial, chunksAt(4));
}

TEST(ThreadPool, PropagatesExceptionsAndSurvivesThem) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(64, 1,
                       [&](long b, long) {
                         if (b == 17)
                           throw std::runtime_error("chunk failure");
                       }),
      std::runtime_error);
  // The pool must remain usable after a failed batch.
  std::atomic<long> sum{0};
  pool.parallelFor(50, 5, [&](long b, long e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 50);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<long> inner{0};
  pool.parallelFor(8, 1, [&](long, long) {
    // A nested parallelFor from inside a worker must run inline rather
    // than wait on pool capacity it may itself be occupying.
    pool.parallelFor(10, 1, [&](long b, long e) { inner += e - b; });
  });
  EXPECT_EQ(inner.load(), 80);
}

// A FlushSubnormalsScope on the caller reaches every chunk, whichever
// lane runs it, and each lane returns to its own mode afterwards.
TEST(ParallelFor, ChunksRunUnderTheCallersFloatingPointMode) {
  if (!dp::flushSubnormalsSupported())
    GTEST_SKIP() << "no subnormal flush on this target";
  const ScopedDpThreads guard(8);
  const auto products = [] {
    std::vector<float> out(64, -1.0f);
    std::vector<std::thread::id> lane(64);
    dp::parallelFor(64, 1, [&](long b, long e) {
      // Long enough that the workers wake and claim chunks too.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      for (long i = b; i < e; ++i) {
        volatile float a = 1e-30f;
        out[i] = a * 1e-10f;
        lane[i] = std::this_thread::get_id();
      }
    });
    EXPECT_GT(std::set<std::thread::id>(lane.begin(), lane.end()).size(),
              1U)
        << "one lane ran every chunk; the hand-off went untested";
    return out;
  };
  // Compare bits, outside the scope: DAZ would read a subnormal as 0.
  std::vector<float> flushed;
  {
    const dp::FlushSubnormalsScope flush;
    flushed = products();
  }
  for (const float p : flushed) EXPECT_EQ(std::bit_cast<std::uint32_t>(p), 0U);
  for (const float p : products())
    EXPECT_EQ(std::bit_cast<std::uint32_t>(p),
              std::bit_cast<std::uint32_t>(1e-40f));
}

TEST(ThreadPool, DefaultThreadsReadsEnvironment) {
  const ScopedDpThreads guard(3);
  EXPECT_EQ(ThreadPool::defaultThreads(), 3);
  EXPECT_EQ(ThreadPool::global().threads(), 3);
}

TEST(SplitMix, TaskSeedsAreDistinctAndStable) {
  // Stable: pure function of (seed, index).
  EXPECT_EQ(dp::taskSeed(42, 7), dp::taskSeed(42, 7));
  // Distinct across a contiguous index range (the generation use case).
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i)
    seen.insert(dp::taskSeed(0x5eed, i));
  EXPECT_EQ(seen.size(), 10000u);
  // Index 0 must not collapse onto the base seed.
  EXPECT_NE(dp::taskSeed(0x5eed, 0), 0x5eedu);
}

// ------------------------------------------------- bit-exact equivalence

/// Runs `fn` under `threads` pool threads and returns its result.
template <typename Fn>
auto withThreads(int threads, Fn&& fn) {
  const ScopedDpThreads guard(threads);
  return fn();
}

TEST(BitExact, GemmMatchesSerialAtFourThreads) {
  dp::Rng rng(21);
  const int m = 67, n = 45, k = 123;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  auto run = [&] {
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.5f);
    dp::nn::gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                 0.25f, c.data(), n);
    return c;
  };
  const auto serial = withThreads(1, run);
  EXPECT_EQ(serial, withThreads(2, run));
  EXPECT_EQ(serial, withThreads(4, run));
}

TEST(BitExact, Conv2dForwardBackwardMatchesSerial) {
  auto run = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(31);
    dp::nn::Conv2d conv(3, 5, 3, 2, 1, rng);
    const Tensor x = Tensor::randn({6, 3, 12, 12}, rng);
    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor dy = Tensor::randn(y.shape(), rng);
    const Tensor dx = conv.backward(dy);
    std::vector<Tensor> grads;
    for (dp::nn::Param* p : conv.params()) grads.push_back(p->grad);
    return std::make_tuple(y, dx, grads);
  };
  const auto [y1, dx1, g1] = run(1);
  const auto [y4, dx4, g4] = run(4);
  EXPECT_TRUE(tensorsBitEqual(y1, y4));
  EXPECT_TRUE(tensorsBitEqual(dx1, dx4));
  ASSERT_EQ(g1.size(), g4.size());
  for (std::size_t i = 0; i < g1.size(); ++i)
    EXPECT_TRUE(tensorsBitEqual(g1[i], g4[i])) << "param " << i;
}

TEST(BitExact, ConvTranspose2dForwardBackwardMatchesSerial) {
  auto run = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(32);
    dp::nn::ConvTranspose2d deconv(5, 3, 4, 2, 1, rng);
    const Tensor x = Tensor::randn({6, 5, 6, 6}, rng);
    const Tensor y = deconv.forward(x, /*training=*/true);
    const Tensor dy = Tensor::randn(y.shape(), rng);
    const Tensor dx = deconv.backward(dy);
    std::vector<Tensor> grads;
    for (dp::nn::Param* p : deconv.params()) grads.push_back(p->grad);
    return std::make_tuple(y, dx, grads);
  };
  const auto [y1, dx1, g1] = run(1);
  const auto [y4, dx4, g4] = run(4);
  EXPECT_TRUE(tensorsBitEqual(y1, y4));
  EXPECT_TRUE(tensorsBitEqual(dx1, dx4));
  ASSERT_EQ(g1.size(), g4.size());
  for (std::size_t i = 0; i < g1.size(); ++i)
    EXPECT_TRUE(tensorsBitEqual(g1[i], g4[i])) << "param " << i;
}

TEST(BitExact, InferMatchesForwardEval) {
  // The stateless infer() path must reproduce forward(training=false)
  // exactly — it is what makes shared models thread-safe.
  dp::Rng rng(33);
  dp::models::TcaeConfig cfg;
  cfg.inputSize = 12;
  cfg.latentDim = 6;
  cfg.conv1Channels = 3;
  cfg.conv2Channels = 4;
  cfg.hidden = 16;
  dp::models::Tcae tcae(cfg, rng);
  const Tensor x = Tensor::randn({4, 1, 12, 12}, rng);
  const Tensor latent = tcae.encode(x);
  EXPECT_EQ(latent.shape(), (std::vector<int>{4, 6}));
  const Tensor recon = tcae.decode(latent);
  EXPECT_EQ(recon.shape(), x.shape());
  // Same call twice on a shared const model: identical output.
  EXPECT_TRUE(tensorsBitEqual(recon, tcae.decode(latent)));
}

std::vector<dp::squish::Topology> randomTopologies(int count, int rows,
                                                   int cols, dp::Rng& rng) {
  std::vector<dp::squish::Topology> out;
  for (int i = 0; i < count; ++i) {
    dp::squish::Topology t(rows, cols);
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c)
        t.set(r, c, rng.bernoulli(0.4) ? 1 : 0);
    out.push_back(std::move(t));
  }
  return out;
}

TEST(BitExact, TcaeTrainingMatchesSerial) {
  // Short end-to-end training run: every gemm, conv forward/backward
  // and gradient reduction in the loop must be deterministic for the
  // final weights to match bit-for-bit.
  auto train = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(77);
    dp::models::TcaeConfig cfg;
    cfg.inputSize = 8;
    cfg.latentDim = 4;
    cfg.conv1Channels = 2;
    cfg.conv2Channels = 3;
    cfg.hidden = 8;
    cfg.trainSteps = 9;  // 3 passes over 12 samples at batch 4
    cfg.batchSize = 4;
    auto model = std::make_unique<dp::models::Tcae>(cfg, rng);
    dp::Rng trainRng(78);
    (void)model->train(randomTopologies(12, 6, 6, rng), trainRng);
    return model;
  };
  auto m1 = train(1);
  auto m2 = train(2);
  auto m4 = train(4);
  const auto p1 = m1->params();
  const auto p2 = m2->params();
  const auto p4 = m4->params();
  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_TRUE(tensorsBitEqual(p1[i]->value, p2[i]->value))
        << "param " << i << " at 2 threads";
    EXPECT_TRUE(tensorsBitEqual(p1[i]->value, p4[i]->value))
        << "param " << i << " at 4 threads";
  }
}

/// Sorted canonical-hash multiset of a generation result's unique set.
std::vector<std::uint64_t> hashMultiset(const dp::core::GenerationResult& r) {
  std::vector<std::uint64_t> hashes;
  for (const auto& t : r.unique.patterns())
    hashes.push_back(dp::squish::hashCanonical(t));
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

TEST(BitExact, MassiveGenerationIdenticalAcrossThreadCounts) {
  const dp::DesignRules rules = dp::euv7nmM2();
  const dp::drc::TopologyChecker checker(
      dp::drc::TopologyRuleConfig::fromRules(rules));
  auto generate = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(5);
    const auto clips = dp::datagen::generateLibrary(
        dp::datagen::directprintSpec(1), rules, 24, rng);
    const auto topos = dp::datagen::extractTopologies(clips);
    dp::models::Tcae tcae(dp::models::TcaeConfig{}, rng);
    const auto perturber =
        dp::core::SensitivityAwarePerturber::uniformNoise(
            tcae.config().latentDim, 0.5);
    dp::core::FlowConfig flow;
    flow.count = 96;
    flow.batchSize = 32;
    flow.sourcePoolSize = 16;
    flow.collectGoodVectors = true;
    dp::Rng genRng(6);
    return dp::core::tcaeRandom(tcae, topos, perturber, checker, flow,
                                genRng);
  };
  const auto r1 = generate(1);
  const auto r2 = generate(2);
  const auto r4 = generate(4);
  EXPECT_EQ(r1.generated, 96);
  EXPECT_EQ(r1.legal, r4.legal);
  EXPECT_EQ(r1.goodVectors, r2.goodVectors);
  EXPECT_EQ(r1.goodVectors, r4.goodVectors);
  EXPECT_EQ(hashMultiset(r1), hashMultiset(r2));
  EXPECT_EQ(hashMultiset(r1), hashMultiset(r4));
}

TEST(BitExact, SensitivityIdenticalAcrossThreadCounts) {
  const dp::DesignRules rules = dp::euv7nmM2();
  const dp::drc::TopologyChecker checker(
      dp::drc::TopologyRuleConfig::fromRules(rules));
  auto estimate = [&](int threads) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(9);
    dp::models::TcaeConfig cfg;
    cfg.inputSize = 8;
    cfg.latentDim = 6;
    cfg.conv1Channels = 2;
    cfg.conv2Channels = 3;
    cfg.hidden = 8;
    dp::models::Tcae tcae(cfg, rng);
    dp::core::SensitivityConfig sens;
    sens.sweepSteps = 3;
    sens.maxTopologies = 8;
    return dp::core::estimateSensitivity(
        tcae, randomTopologies(8, 6, 6, rng), checker, sens);
  };
  const auto s1 = estimate(1);
  EXPECT_EQ(s1.size(), 6u);
  EXPECT_EQ(s1, estimate(2));
  EXPECT_EQ(s1, estimate(4));
}

TEST(BitExact, MaterializeIdenticalAcrossThreadCounts) {
  const dp::DesignRules rules = dp::euv7nmM2();
  auto materializeAt = [&](int threads,
                           dp::lp::GeometryBackend backend) {
    const ScopedDpThreads guard(threads);
    dp::Rng rng(14);
    const auto clips = dp::datagen::generateLibrary(
        dp::datagen::directprintSpec(1), rules, 16, rng);
    dp::core::PatternLibrary library;
    for (const auto& t : dp::datagen::extractTopologies(clips))
      library.add(t);
    const dp::lp::GeometrySolver solver(rules, backend);
    const dp::drc::GeometryChecker geomChecker(rules);
    dp::Rng matRng(15);
    return dp::core::materialize(library, solver, geomChecker, matRng);
  };
  for (const auto backend :
       {dp::lp::GeometryBackend::kDifferenceConstraints,
        dp::lp::GeometryBackend::kSimplexRandomVertex}) {
    const auto r1 = materializeAt(1, backend);
    const auto r4 = materializeAt(4, backend);
    EXPECT_GT(r1.attempted, 0);
    EXPECT_EQ(r1.attempted, r4.attempted);
    EXPECT_EQ(r1.solved, r4.solved);
    EXPECT_EQ(r1.drcClean, r4.drcClean);
    ASSERT_EQ(r1.clips.size(), r4.clips.size());
    for (std::size_t i = 0; i < r1.clips.size(); ++i) {
      const auto& a = r1.clips[i].shapes();
      const auto& b = r4.clips[i].shapes();
      ASSERT_EQ(a.size(), b.size()) << "clip " << i;
      for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].x0, b[s].x0);
        EXPECT_EQ(a[s].y0, b[s].y0);
        EXPECT_EQ(a[s].x1, b[s].x1);
        EXPECT_EQ(a[s].y1, b[s].y1);
      }
    }
  }
}

}  // namespace
