// Fused decode route equivalence suite (ctest label: kernel) —
// DESIGN.md §14.
//
// The fused route replaces float activations with bit-packed row
// masks between decode and assessment, so its contract is exact
// equivalence with the float reference path on everything downstream
// of binarization:
//   * the packed canonicalize/hash/pack ops reproduce the float
//     path's results bit-for-bit, including the pinned seeded corpus
//     in tests/fixtures/canonical_hashes.inc (shared with the
//     pipeline suite — a drift here means stored libraries built by
//     the two routes would diverge);
//   * decodeMasks output is bit-identical across every dispatch
//     target and DP_THREADS setting;
//   * on a trained model, the fused route's per-sample topology,
//     legality verdict, canonical hash and packed bytes match the
//     unfused float path on every target at DP_THREADS 1 and 8.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "core/flows.hpp"
#include "core/fused_generate.hpp"
#include "datagen/generator.hpp"
#include "drc/packed_rules.hpp"
#include "drc/topology_rules.hpp"
#include "geometry/design_rules.hpp"
#include "models/tcae.hpp"
#include "models/topology_codec.hpp"
#include "squish/canonical.hpp"
#include "squish/hash.hpp"
#include "squish/packed_pattern.hpp"
#include "squish/packed_topo.hpp"
#include "squish/topology.hpp"
#include "tensor/gemm.hpp"
#include "testutil.hpp"

namespace {

using dp::KernelTarget;
using dp::nn::setGemmKernelTarget;
using dp::nn::supportedKernelTargets;

class ScopedKernelTarget {
 public:
  explicit ScopedKernelTarget(KernelTarget t)
      : saved_(dp::nn::gemmKernelTarget()) {
    setGemmKernelTarget(t);
  }
  ~ScopedKernelTarget() { setGemmKernelTarget(saved_); }
  ScopedKernelTarget(const ScopedKernelTarget&) = delete;
  ScopedKernelTarget& operator=(const ScopedKernelTarget&) = delete;

 private:
  KernelTarget saved_;
};

dp::squish::Topology randomTopology(dp::Rng& rng, int maxDim,
                                    double density) {
  const int rows = rng.uniformInt(1, maxDim);
  const int cols = rng.uniformInt(1, maxDim);
  dp::squish::Topology t(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      t.set(r, c, rng.bernoulli(density) ? 1 : 0);
  return t;
}

// ------------------------------------------- packed ops vs float ops

// The pinned seeded corpus: the packed-word canonicalize/hash/pack
// pipeline must reproduce both the float path and the checked-in pin
// (the same one pipeline_test verifies for the float path, so the two
// suites cross-check each other).
TEST(PackedCanonicalOps, MatchFloatPathOnPinnedCorpus) {
  struct CorpusEntry {
    std::uint64_t hash;
    std::uint32_t crc;  // record CRC, pinned by the pipeline suite
  };
  static constexpr CorpusEntry kCorpus[] = {
#include "fixtures/canonical_hashes.inc"
  };
  dp::Rng rng(424242);
  for (const CorpusEntry& expected : kCorpus) {
    const dp::squish::Topology t = randomTopology(rng, 10, 0.4);
    const dp::squish::Topology canon = dp::squish::canonicalize(t);

    std::uint32_t masks[dp::squish::kMaxMaskCols] = {};
    dp::squish::topologyToMasks(t, masks);
    int rows = t.rows();
    int cols = t.cols();
    dp::squish::canonicalizeMasks(masks, rows, cols);

    ASSERT_EQ(rows, canon.rows());
    ASSERT_EQ(cols, canon.cols());
    EXPECT_EQ(dp::squish::masksToTopology(masks, rows, cols), canon);
    EXPECT_EQ(dp::squish::hashMasks(masks, rows, cols), expected.hash);
    EXPECT_EQ(dp::squish::hashMasks(masks, rows, cols),
              dp::squish::hashTopology(canon));
    if (rows > 0 && cols > 0) {
      EXPECT_EQ(dp::squish::packMasks(masks, rows, cols),
                dp::squish::pack(canon));
    }
  }
}

// Legality on the packed canonical form must agree with the float
// checker (which canonicalizes internally) on arbitrary topologies.
TEST(PackedCanonicalOps, LegalityMatchesFloatChecker) {
  const dp::drc::TopologyChecker checker(
      dp::drc::TopologyRuleConfig::fromRules(dp::euv7nmM2()));
  dp::Rng rng(20190604);
  for (int i = 0; i < 400; ++i) {
    const dp::squish::Topology t = randomTopology(rng, 14, 0.35);
    std::uint32_t masks[dp::squish::kMaxMaskCols] = {};
    dp::squish::topologyToMasks(t, masks);
    int rows = t.rows();
    int cols = t.cols();
    dp::squish::canonicalizeMasks(masks, rows, cols);
    EXPECT_EQ(dp::drc::isLegalCanonicalMasks(checker.config(), masks, rows,
                                             cols),
              checker.isLegal(t))
        << "packed/float legality verdicts diverge for:\n"
        << t.toString();
  }
}

// ------------------------------------------- fused decode route

/// Trained world shared by the route-equivalence tests (built once per
/// process). Training saturates the decoder's logits away from the
/// sigmoid(x) = 0.5 boundary, so binarized equality between the fused
/// sign-test epilogue and the float sigmoid-threshold path is exact.
struct TrainedWorld {
  dp::drc::TopologyChecker checker;
  dp::models::Tcae tcae;
  dp::nn::Tensor latents;
};

const TrainedWorld& trainedWorld() {
  static const TrainedWorld* world = [] {
    dp::Rng rng(2019);
    const dp::DesignRules rules = dp::euv7nmM2();
    const auto clips = dp::datagen::generateLibrary(
        dp::datagen::directprintSpec(1), rules, 24, rng);
    const auto topologies = dp::datagen::extractTopologies(clips);
    dp::models::TcaeConfig cfg;
    cfg.trainSteps = 150;
    auto* w = new TrainedWorld{
        dp::drc::TopologyChecker(
            dp::drc::TopologyRuleConfig::fromRules(rules)),
        dp::models::Tcae(cfg, rng), dp::nn::Tensor()};
    w->tcae.train(topologies, rng);
    // Source-pool latents plus perturbations: the same latent
    // population the generation flows decode.
    w->latents = dp::core::encodeSourceLatents(w->tcae, topologies, 96);
    for (std::size_t i = 0; i < w->latents.numel(); ++i)
      w->latents[i] += static_cast<float>(rng.uniform(-0.6, 0.6));
    return w;
  }();
  return *world;
}

// decodeMasks must be bit-identical across every dispatch target and
// thread count — even on an untrained model, where boundary-band
// logits make this the strictest cross-target statement (the float
// intermediates themselves agree bit-for-bit by construction).
TEST(FusedDecodeRoute, BitIdenticalAcrossTargetsAndThreads) {
  dp::Rng rng(7);
  dp::models::TcaeConfig cfg;
  const dp::models::Tcae tcae(cfg, rng);
  const dp::core::FusedDecodeRoute route(tcae);
  dp::nn::Tensor latents({64, cfg.latentDim});
  for (std::size_t i = 0; i < latents.numel(); ++i)
    latents[i] = static_cast<float>(rng.uniform(-2.0, 2.0));

  std::vector<std::uint32_t> reference;
  {
    ScopedKernelTarget guard(KernelTarget::kScalar);
    dp::test::ScopedDpThreads scoped(1);
    route.decodeMasks(latents, reference);
  }
  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (const int threads : {1, 8}) {
      dp::test::ScopedDpThreads scoped(threads);
      std::vector<std::uint32_t> masks;
      route.decodeMasks(latents, masks);
      ASSERT_EQ(masks, reference)
          << "target " << dp::kernelTargetName(t) << " DP_THREADS "
          << threads << " diverges from scalar/1";
    }
  }
}

// On the trained model, every per-sample artifact of the fused route
// — binarized topology, legality verdict, canonical hash, packed
// bytes — must match the unfused float path, on every target at
// DP_THREADS 1 and 8.
TEST(FusedDecodeRoute, MatchesFloatPathAllTargetsAndThreads) {
  const TrainedWorld& w = trainedWorld();
  const dp::core::FusedDecodeRoute route(w.tcae);
  const int edge = route.topologySize();
  const int n = w.latents.size(0);

  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (const int threads : {1, 8}) {
      dp::test::ScopedDpThreads scoped(threads);
      const dp::nn::Tensor activations = w.tcae.decode(w.latents);
      std::vector<std::uint32_t> masks;
      route.decodeMasks(w.latents, masks);
      ASSERT_EQ(masks.size(),
                static_cast<std::size_t>(n) * static_cast<std::size_t>(edge));

      for (int i = 0; i < n; ++i) {
        const dp::squish::Topology topo =
            dp::models::decodeGeneratedTopology(activations, i);
        const bool legal = w.checker.isLegal(topo);
        std::uint32_t sample[dp::squish::kMaxMaskCols] = {};
        for (int r = 0; r < edge; ++r)
          sample[r] = masks[static_cast<std::size_t>(i) * edge + r];
        int rows = edge;
        int cols = edge;
        dp::squish::unpadMasks(sample, rows, cols);
        ASSERT_EQ(dp::squish::masksToTopology(sample, rows, cols), topo)
            << "binarized topology diverges: target "
            << dp::kernelTargetName(t) << " sample " << i;
        dp::squish::canonicalizeMasks(sample, rows, cols);
        const dp::squish::Topology canon = dp::squish::canonicalize(topo);
        ASSERT_EQ(dp::drc::isLegalCanonicalMasks(w.checker.config(), sample,
                                                 rows, cols),
                  legal);
        ASSERT_EQ(rows, canon.rows());
        ASSERT_EQ(cols, canon.cols());
        if (rows > 0 && cols > 0) {
          ASSERT_EQ(dp::squish::hashMasks(sample, rows, cols),
                    dp::squish::hashTopology(canon));
          ASSERT_EQ(dp::squish::packMasks(sample, rows, cols),
                    dp::squish::pack(canon));
        }
      }
    }
  }
}

// The accounting folds must agree end-to-end: identical generated /
// legal tallies and an identical pattern library (size, contents and
// enumeration order) between accountActivationBatch and the fused
// accountMaskBatch.
TEST(FusedDecodeRoute, AccountingMatchesFloatPath) {
  const TrainedWorld& w = trainedWorld();
  const dp::core::FusedDecodeRoute route(w.tcae);

  for (const KernelTarget t : supportedKernelTargets()) {
    ScopedKernelTarget guard(t);
    for (const int threads : {1, 8}) {
      dp::test::ScopedDpThreads scoped(threads);
      dp::core::GenerationResult viaFloat;
      dp::core::accountActivationBatch(w.tcae.decode(w.latents), w.checker,
                                       viaFloat);
      dp::core::GenerationResult viaFused;
      std::vector<std::uint32_t> masks;
      route.decodeMasks(w.latents, masks);
      dp::core::accountMaskBatch(masks.data(), w.latents.size(0),
                                 route.topologySize(), w.checker, viaFused);

      EXPECT_EQ(viaFused.generated, viaFloat.generated);
      EXPECT_EQ(viaFused.legal, viaFloat.legal);
      ASSERT_EQ(viaFused.unique.size(), viaFloat.unique.size());
      EXPECT_EQ(viaFused.unique.patterns(), viaFloat.unique.patterns())
          << "library contents diverge: target " << dp::kernelTargetName(t)
          << " DP_THREADS " << threads;
    }
  }
}

}  // namespace
