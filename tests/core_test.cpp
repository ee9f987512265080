#include <gtest/gtest.h>

#include "core/flows.hpp"
#include "core/generation_result.hpp"
#include "core/gtcae.hpp"
#include "core/pattern_library.hpp"
#include "core/perturb.hpp"
#include "core/pipeline.hpp"
#include "core/sensitivity.hpp"
#include "datagen/generator.hpp"
#include "models/topology_codec.hpp"
#include "squish/extract.hpp"
#include "squish/packed_pattern.hpp"
#include "squish/pad.hpp"
#include "testutil.hpp"

namespace dp::core {
namespace {

using dp::test::topo;

models::TcaeConfig tinyTcae() {
  models::TcaeConfig c;
  c.conv1Channels = 4;
  c.conv2Channels = 8;
  c.hidden = 32;
  c.latentDim = 16;
  c.trainSteps = 200;
  c.batchSize = 8;
  return c;
}

std::vector<squish::Topology> trainingTopologies(int count,
                                                 std::uint64_t seed = 42) {
  dp::Rng rng(seed);
  const auto clips = datagen::generateLibrary(datagen::directprintSpec(1),
                                              dp::euv7nmM2(), count, rng);
  return datagen::extractTopologies(clips);
}

/// A trained tiny TCAE shared by the flow tests (training is the slow
/// part; do it once).
models::Tcae& sharedTcae() {
  static models::Tcae* tcae = [] {
    dp::Rng rng(123);
    auto* t = new models::Tcae(tinyTcae(), rng);
    t->train(trainingTopologies(120), rng);
    return t;
  }();
  return *tcae;
}

// -------------------------------------------------------- PatternLibrary

TEST(PatternLibrary, DeduplicatesCanonically) {
  PatternLibrary lib;
  EXPECT_TRUE(lib.add(topo({"#.", ".#"})));
  EXPECT_FALSE(lib.add(topo({"#.", ".#"})));
  // Canonical equivalent (duplicated rows/cols) is the same pattern.
  EXPECT_FALSE(lib.add(topo({"##..",  //
                             "##..",  //
                             "..##"})));
  EXPECT_EQ(lib.size(), 1u);
  EXPECT_TRUE(lib.contains(topo({"#.", ".#"})));
  EXPECT_FALSE(lib.contains(topo({".#", "#."})));
}

TEST(PatternLibrary, TracksComplexities) {
  PatternLibrary lib;
  lib.add(topo({"#.", ".#"}));         // 2x2
  lib.add(topo({"#.#"}));              // 3x1
  const auto cs = lib.complexities();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_DOUBLE_EQ(lib.meanCx(), 2.5);
  EXPECT_DOUBLE_EQ(lib.meanCy(), 1.5);
}

TEST(PatternLibrary, HistogramCoversObservedRange) {
  PatternLibrary lib;
  lib.add(topo({"#.", ".#"}));
  lib.add(topo({"#.#"}));
  const auto h = lib.histogram();
  ASSERT_EQ(h.size(), 3u);     // cy up to 2
  ASSERT_EQ(h[2].size(), 4u);  // cx up to 3
  EXPECT_DOUBLE_EQ(h[2][2], 1.0);
  EXPECT_DOUBLE_EQ(h[1][3], 1.0);
  EXPECT_DOUBLE_EQ(h[0][0], 0.0);
}

TEST(PatternLibrary, MergeCombinesUniqueSets) {
  PatternLibrary a, b;
  a.add(topo({"#."}));
  b.add(topo({"#."}));
  b.add(topo({".#"}));
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(PatternLibrary, HashCollisionsKeepEveryPattern) {
  // Two different canonical patterns filed under one hash: the bucket
  // resolves them exactly, both count, and the bucket enumerates in
  // insertion order.
  PatternLibrary lib;
  const squish::PackedPattern a = squish::pack(topo({"#.", ".#"}));
  const squish::PackedPattern b = squish::pack(topo({"#.#"}));
  EXPECT_TRUE(lib.insertCanonical(42, b));
  EXPECT_TRUE(lib.insertCanonical(42, a));
  EXPECT_FALSE(lib.insertCanonical(42, a));
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_TRUE(lib.contains(42, a));
  EXPECT_TRUE(lib.contains(42, b));
  EXPECT_FALSE(lib.contains(7, a));
  std::vector<squish::PackedPattern> order;
  lib.forEach([&](std::uint64_t hash, const squish::PackedPattern& p) {
    EXPECT_EQ(hash, 42u);
    order.push_back(p);
  });
  EXPECT_EQ(order, (std::vector<squish::PackedPattern>{b, a}));
  // Complexities (3, 1) and (2, 2), one pattern each: 1 bit.
  EXPECT_DOUBLE_EQ(lib.diversity(), 1.0);
}

TEST(PatternLibrary, AddRejectsPatternsPastThePackLimit) {
  // Alternating columns never merge, so the canonical form keeps every
  // column: 255 packs, 256 does not.
  const auto stripes = [](int cols) {
    squish::Topology t(1, cols);
    for (int c = 0; c < cols; c += 2) t.set(0, c, 1);
    return t;
  };
  PatternLibrary lib;
  EXPECT_THROW(lib.add(stripes(256)), std::invalid_argument);
  EXPECT_TRUE(lib.empty());
  EXPECT_TRUE(lib.add(stripes(255)));
}

TEST(ShannonDiversity, KnownValues) {
  EXPECT_DOUBLE_EQ(shannonDiversity({}), 0.0);
  // All identical -> 0 bits.
  EXPECT_DOUBLE_EQ(shannonDiversity({{2, 2}, {2, 2}, {2, 2}}), 0.0);
  EXPECT_DOUBLE_EQ(
      shannonDiversity(std::vector<squish::Complexity>(10, {1, 1})), 0.0);
  // Uniform over 2 classes -> 1 bit; over 4 -> 2 bits.
  EXPECT_DOUBLE_EQ(shannonDiversity({{1, 1}, {2, 2}}), 1.0);
  EXPECT_DOUBLE_EQ(
      shannonDiversity({{1, 1}, {1, 2}, {2, 1}, {2, 2}}), 2.0);
  std::vector<squish::Complexity> fiveEach;
  for (const squish::Complexity c :
       {squish::Complexity{1, 1}, {1, 2}, {2, 1}, {2, 2}})
    fiveEach.insert(fiveEach.end(), 5, c);
  EXPECT_DOUBLE_EQ(shannonDiversity(fiveEach), 2.0);
  // p = {1/2, 1/4, 1/4} -> H = 1.5 bits.
  EXPECT_DOUBLE_EQ(shannonDiversity({{1, 1}, {1, 1}, {1, 2}, {2, 1}}), 1.5);
}

TEST(ShannonDiversity, MoreSpreadMeansHigherEntropy) {
  std::vector<squish::Complexity> concentrated(100, {5, 5});
  concentrated.push_back({6, 6});
  std::vector<squish::Complexity> spread;
  for (int i = 0; i < 101; ++i) spread.push_back({i % 10, i / 10});
  EXPECT_LT(shannonDiversity(concentrated), shannonDiversity(spread));
}

// --------------------------------------------------------------- Perturb

TEST(Perturber, StddevIsInverseSqrtSensitivity) {
  const SensitivityAwarePerturber p({0.25, 1.0, 0.0}, 1.0, 5.0);
  EXPECT_DOUBLE_EQ(p.stddevs()[0], 2.0);
  EXPECT_DOUBLE_EQ(p.stddevs()[1], 1.0);
  EXPECT_DOUBLE_EQ(p.stddevs()[2], 5.0);  // clamped
}

TEST(Perturber, ScaleMultipliesStddev) {
  const SensitivityAwarePerturber p({1.0}, 0.5, 5.0);
  EXPECT_DOUBLE_EQ(p.stddevs()[0], 0.5);
}

TEST(Perturber, UniformNoiseVariant) {
  const auto p = SensitivityAwarePerturber::uniformNoise(4, 0.7);
  EXPECT_EQ(p.latentDim(), 4);
  for (double s : p.stddevs()) EXPECT_DOUBLE_EQ(s, 0.7);
}

TEST(Perturber, SampleStatisticsMatchStddevs) {
  dp::Rng rng(1);
  const SensitivityAwarePerturber p({4.0, 0.04}, 1.0, 10.0);  // σ=0.5, 5
  double var0 = 0, var1 = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto v = p.sample(rng);
    var0 += v[0] * v[0];
    var1 += v[1] * v[1];
  }
  EXPECT_NEAR(std::sqrt(var0 / n), 0.5, 0.05);
  EXPECT_NEAR(std::sqrt(var1 / n), 5.0, 0.5);
}

TEST(Perturber, BatchSamplesHaveRightShape) {
  dp::Rng rng(2);
  const auto p = SensitivityAwarePerturber::uniformNoise(8, 1.0);
  const nn::Tensor batch = p.sampleBatch(5, rng);
  EXPECT_EQ(batch.shape(), (std::vector<int>{5, 8}));
}

TEST(Perturber, Validates) {
  EXPECT_THROW(SensitivityAwarePerturber({}), std::invalid_argument);
  EXPECT_THROW(SensitivityAwarePerturber::uniformNoise(0, 1.0),
               std::invalid_argument);
}

// ------------------------------------------------------------ Sensitivity

TEST(Sensitivity, ReturnsOnePerLatentNodeInUnitRange) {
  const auto topos = trainingTopologies(40);
  const drc::TopologyChecker checker;
  SensitivityConfig cfg;
  cfg.maxTopologies = 8;
  cfg.sweepSteps = 3;
  const auto s = estimateSensitivity(sharedTcae(), topos, checker, cfg);
  EXPECT_EQ(s.size(), 16u);
  for (double v : s) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Sensitivity, ZeroRangeSweepMatchesPlainReconstruction) {
  // With range 0 every sweep decodes the unperturbed latents, so all
  // nodes get the same sensitivity = the invalid-reconstruction rate.
  const auto topos = trainingTopologies(30);
  const drc::TopologyChecker checker;
  SensitivityConfig cfg;
  cfg.range = 0.0;
  cfg.sweepSteps = 2;
  cfg.maxTopologies = 8;
  const auto s = estimateSensitivity(sharedTcae(), topos, checker, cfg);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_DOUBLE_EQ(s[i], s[0]);
}

TEST(Sensitivity, ValidatesArguments) {
  const drc::TopologyChecker checker;
  SensitivityConfig cfg;
  EXPECT_THROW(
      estimateSensitivity(sharedTcae(), {}, checker, cfg),
      std::invalid_argument);
  cfg.sweepSteps = 1;
  EXPECT_THROW(estimateSensitivity(sharedTcae(), trainingTopologies(5),
                                   checker, cfg),
               std::invalid_argument);
}

// ------------------------------------------------------------------ Flows

TEST(Flows, VectorsToTensorPacksRows) {
  const nn::Tensor t = vectorsToTensor({{1.0f, 2.0f}, {3.0f, 4.0f}});
  EXPECT_EQ(t.shape(), (std::vector<int>{2, 2}));
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_THROW(vectorsToTensor({}), std::invalid_argument);
  EXPECT_THROW(vectorsToTensor({{1.0f}, {1.0f, 2.0f}}),
               std::invalid_argument);
}

TEST(Flows, LibraryResultCountsLegality) {
  const drc::TopologyChecker checker;
  const auto r = libraryResult(
      {topo({"#.", ".#"}),   // adjacent tracks: illegal
       topo({"#.#"}),        // legal
       topo({"#.#"})},       // duplicate
      checker);
  EXPECT_EQ(r.generated, 3);
  EXPECT_EQ(r.legal, 2);
  EXPECT_EQ(r.unique.size(), 1u);
  EXPECT_NEAR(r.legalFraction(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.uniqueLegalFraction(), 1.0 / 3.0, 1e-12);
}

TEST(Flows, TcaeRandomAccountingIsConsistent) {
  dp::Rng rng(9);
  const auto topos = trainingTopologies(60);
  const drc::TopologyChecker checker;
  const auto perturber = SensitivityAwarePerturber::uniformNoise(16, 0.5);
  FlowConfig cfg;
  cfg.count = 300;
  cfg.batchSize = 64;
  cfg.collectGoodVectors = true;
  const auto r =
      tcaeRandom(sharedTcae(), topos, perturber, checker, cfg, rng);
  EXPECT_EQ(r.generated, 300);
  EXPECT_LE(r.legal, r.generated);
  EXPECT_LE(static_cast<long>(r.unique.size()), r.legal);
  EXPECT_EQ(static_cast<long>(r.goodVectors.size()), r.legal);
  EXPECT_GT(r.legal, 0);  // a trained TCAE with small noise stays legal
}

TEST(Flows, TcaeRandomGeneratesNewPatterns) {
  dp::Rng rng(10);
  const auto topos = trainingTopologies(60);
  PatternLibrary existing;
  for (const auto& t : topos) existing.add(t);
  const drc::TopologyChecker checker;
  const auto perturber = SensitivityAwarePerturber::uniformNoise(16, 1.0);
  FlowConfig cfg;
  cfg.count = 500;
  const auto r =
      tcaeRandom(sharedTcae(), topos, perturber, checker, cfg, rng);
  int novel = 0;
  for (const auto& p : r.unique.patterns())
    if (!existing.contains(p)) ++novel;
  EXPECT_GT(novel, 0);  // Pr(T_n not in T) is large (paper §III-B1)
}

TEST(Flows, TcaeCombineAccounting) {
  dp::Rng rng(11);
  const auto topos = trainingTopologies(60);
  const drc::TopologyChecker checker;
  CombineConfig cfg;
  cfg.count = 200;
  cfg.arity = 2;
  cfg.poolSize = 10;
  const auto r = tcaeCombine(sharedTcae(), topos, checker, cfg, rng);
  EXPECT_EQ(r.generated, 200);
  EXPECT_LE(static_cast<long>(r.unique.size()), r.legal);
  EXPECT_THROW(tcaeCombine(sharedTcae(), {}, checker, cfg, rng),
               std::invalid_argument);
  cfg.arity = 1;
  EXPECT_THROW(tcaeCombine(sharedTcae(), topos, checker, cfg, rng),
               std::invalid_argument);
}

TEST(Flows, CombineIsLessProductiveThanRandom) {
  // Paper Table II: TCAE-Combine yields far fewer unique patterns than
  // TCAE-Random at equal attempt counts.
  dp::Rng rng(12);
  const auto topos = trainingTopologies(60);
  const drc::TopologyChecker checker;
  FlowConfig rndCfg;
  rndCfg.count = 400;
  CombineConfig cmbCfg;
  cmbCfg.count = 400;
  const auto perturber = SensitivityAwarePerturber::uniformNoise(16, 1.0);
  const auto rnd =
      tcaeRandom(sharedTcae(), topos, perturber, checker, rndCfg, rng);
  const auto cmb = tcaeCombine(sharedTcae(), topos, checker, cmbCfg, rng);
  EXPECT_GT(rnd.unique.size(), cmb.unique.size());
}

TEST(Flows, EvaluateSamplerCountsBatches) {
  dp::Rng rng(13);
  const drc::TopologyChecker checker;
  // A sampler that always emits one fixed legal topology.
  const auto fixed = models::encodeTopology(topo({"#.#"}), 24);
  const auto sampler = [&](int n, dp::Rng&) {
    nn::Tensor batch({n, 1, 24, 24});
    for (int i = 0; i < n; ++i)
      for (int r = 0; r < 24; ++r)
        for (int c = 0; c < 24; ++c)
          batch.at(i, 0, r, c) = fixed.at(0, 0, r, c);
    return batch;
  };
  const auto r = evaluateSampler(sampler, checker, 130, 50, rng);
  EXPECT_EQ(r.generated, 130);
  EXPECT_EQ(r.legal, 130);
  EXPECT_EQ(r.unique.size(), 1u);
  EXPECT_THROW(evaluateSampler(nullptr, checker, 10, 5, rng),
               std::invalid_argument);
}

// ------------------------------------------------------------------ GTCAE

TEST(Gtcae, MassiveFlowRunsWithGanGuide) {
  dp::Rng rng(14);
  const auto topos = trainingTopologies(60);
  const drc::TopologyChecker checker;

  // Stage 1: collect good perturbations.
  const auto perturber = SensitivityAwarePerturber::uniformNoise(16, 0.5);
  FlowConfig stage1;
  stage1.count = 300;
  stage1.collectGoodVectors = true;
  const auto r1 =
      tcaeRandom(sharedTcae(), topos, perturber, checker, stage1, rng);
  ASSERT_GT(r1.goodVectors.size(), 10u);

  // Stage 2: G-TCAE massive generation.
  GtcaeConfig cfg;
  cfg.flow.count = 300;
  cfg.gan.trainSteps = 200;
  cfg.gan.batchSize = 16;
  const auto r2 = gtcaeMassive(sharedTcae(), topos,
                               vectorsToTensor(r1.goodVectors), checker,
                               cfg, rng);
  EXPECT_EQ(r2.generated, 300);
  EXPECT_GT(r2.legal, 0);
}

TEST(Gtcae, MassiveFlowRunsWithVaeGuide) {
  dp::Rng rng(15);
  const auto topos = trainingTopologies(60);
  const drc::TopologyChecker checker;
  const auto perturber = SensitivityAwarePerturber::uniformNoise(16, 0.5);
  FlowConfig stage1;
  stage1.count = 200;
  stage1.collectGoodVectors = true;
  const auto r1 =
      tcaeRandom(sharedTcae(), topos, perturber, checker, stage1, rng);
  ASSERT_GT(r1.goodVectors.size(), 5u);

  GtcaeConfig cfg;
  cfg.guide = GtcaeConfig::Guide::kVae;
  cfg.flow.count = 200;
  cfg.vaeTrainSteps = 200;
  const auto r2 = gtcaeMassive(sharedTcae(), topos,
                               vectorsToTensor(r1.goodVectors), checker,
                               cfg, rng);
  EXPECT_EQ(r2.generated, 200);
}

TEST(Gtcae, MassiveValidatesInputs) {
  dp::Rng rng(16);
  const drc::TopologyChecker checker;
  GtcaeConfig cfg;
  EXPECT_THROW(gtcaeMassive(sharedTcae(), {}, nn::Tensor({1, 16}),
                            checker, cfg, rng),
               std::invalid_argument);
  EXPECT_THROW(gtcaeMassive(sharedTcae(), trainingTopologies(5),
                            nn::Tensor({0, 16}), checker, cfg, rng),
               std::invalid_argument);
}

TEST(Gtcae, DefaultContextBandsPartitionRange) {
  const auto bands = defaultContextBands(6, 12);
  ASSERT_EQ(bands.size(), 3u);
  EXPECT_EQ(bands[0].minCx, 6);
  EXPECT_EQ(bands[2].maxCx, 12);
  // Contiguous, non-overlapping.
  EXPECT_EQ(bands[1].minCx, bands[0].maxCx + 1);
  EXPECT_EQ(bands[2].minCx, bands[1].maxCx + 1);
}

TEST(Gtcae, QuantileBandsCoverRangeAndHoldMass) {
  const auto topos = trainingTopologies(200);
  const auto bands = contextBandsByQuantiles(topos);
  ASSERT_EQ(bands.size(), 3u);
  // Contiguous, ordered, non-overlapping.
  EXPECT_EQ(bands[1].minCx, bands[0].maxCx + 1);
  EXPECT_EQ(bands[2].minCx, bands[1].maxCx + 1);
  EXPECT_LE(bands[0].minCx, bands[0].maxCx);
  // Every band holds a meaningful share of the library.
  long counts[3] = {0, 0, 0};
  for (const auto& t : topos) {
    const int cx = squish::complexityOf(squish::unpad(t)).cx;
    for (int b = 0; b < 3; ++b)
      if (cx >= bands[static_cast<std::size_t>(b)].minCx &&
          cx <= bands[static_cast<std::size_t>(b)].maxCx)
        ++counts[b];
  }
  EXPECT_EQ(counts[0] + counts[1] + counts[2],
            static_cast<long>(topos.size()));
  for (long c : counts) EXPECT_GT(c, 0);
  EXPECT_THROW(contextBandsByQuantiles({}), std::invalid_argument);
}

TEST(Gtcae, QuantileBandsDegenerateSingleValue) {
  // A library where every pattern has the same complexity still yields
  // well-formed (possibly empty) bands.
  std::vector<squish::Topology> topos(
      5, dp::test::topo({"#.#", "...", ".#."}));
  const auto bands = contextBandsByQuantiles(topos);
  ASSERT_EQ(bands.size(), 3u);
  EXPECT_EQ(bands[0].minCx, 3);
  EXPECT_EQ(bands[0].maxCx, 3);
}

TEST(Gtcae, ContextSpecificProducesPerBandResults) {
  dp::Rng rng(17);
  const auto topos = trainingTopologies(80);
  const drc::TopologyChecker checker;
  GtcaeConfig cfg;
  cfg.flow.count = 150;
  cfg.gan.trainSteps = 150;
  cfg.gan.batchSize = 8;
  const auto groups = gtcaeContextSpecific(
      sharedTcae(), topos, checker, defaultContextBands(2, 12), cfg, rng);
  ASSERT_EQ(groups.size(), 3u);
  long totalTraining = 0;
  for (const auto& g : groups) totalTraining += g.trainingCount;
  EXPECT_GT(totalTraining, 0);
  for (const auto& g : groups) {
    if (g.trainingCount >= 2) {
      EXPECT_EQ(g.result.generated, 150);
    }
  }
}

// --------------------------------------------------------------- Pipeline

TEST(Pipeline, MaterializeSolvesLegalPatterns) {
  dp::Rng rng(18);
  const dp::DesignRules rules = dp::euv7nmM2();
  PatternLibrary lib;
  lib.add(topo({"#.#", "...", ".#."}));
  lib.add(topo({".#.", "...", "#.#"}));
  const lp::GeometrySolver solver(rules);
  const drc::GeometryChecker geom(rules);
  const auto m = materialize(lib, solver, geom, rng);
  EXPECT_EQ(m.attempted, 2);
  EXPECT_EQ(m.solved, 2);
  EXPECT_EQ(m.drcClean, 2);
  EXPECT_EQ(m.clips.size(), 2u);
}

TEST(Pipeline, MaterializeHonorsCap) {
  dp::Rng rng(19);
  PatternLibrary lib;
  lib.add(topo({"#.#"}));
  lib.add(topo({"#..#"}));
  lib.add(topo({"#"}));
  const lp::GeometrySolver solver(dp::euv7nmM2());
  const drc::GeometryChecker geom(dp::euv7nmM2());
  const auto m = materialize(lib, solver, geom, rng, 1);
  EXPECT_EQ(m.attempted, 1);
}

TEST(Pipeline, MaterializedClipsExtractBackToTheirTopology) {
  // Full-circle invariant: solving Eq. (10) for a pattern and squishing
  // the resulting clip must give back exactly that pattern (the library
  // stores unpadded canonical topologies whose last row/column carry
  // shapes, so no margins appear on the top/right).
  dp::Rng rng(23);
  const dp::DesignRules rules = dp::euv7nmM2();
  const auto clips = datagen::generateLibrary(datagen::directprintSpec(2),
                                              rules, 40, rng);
  PatternLibrary lib;
  for (const auto& t : datagen::extractTopologies(clips))
    lib.add(squish::unpad(t));
  const lp::GeometrySolver solver(rules);
  const drc::GeometryChecker geom(rules);
  const auto m = materialize(lib, solver, geom, rng);
  EXPECT_EQ(m.solved, m.attempted);
  for (const auto& clip : m.clips) {
    const auto back = squish::extract(clip).topo;
    EXPECT_TRUE(lib.contains(back));
  }
}

TEST(Pipeline, EndToEndSmokeRun) {
  dp::Rng rng(20);
  const dp::DesignRules rules = dp::euv7nmM2();
  const auto clips = datagen::generateLibrary(datagen::directprintSpec(1),
                                              rules, 60, rng);
  PipelineConfig cfg;
  cfg.tcae = tinyTcae();
  cfg.tcae.trainSteps = 120;
  cfg.sensitivity.maxTopologies = 8;
  cfg.sensitivity.sweepSteps = 3;
  cfg.flow.count = 200;
  cfg.maxClips = 50;
  const PipelineResult r = runPipeline(clips, rules, cfg, rng);
  EXPECT_EQ(r.generation.generated, 200);
  EXPECT_EQ(r.sensitivity.size(), 16u);
  EXPECT_LE(r.materialized.drcClean, r.materialized.solved);
  EXPECT_EQ(static_cast<long>(r.materialized.clips.size()),
            r.materialized.drcClean);
  // Every materialized clip is geometry-DRC clean by construction.
  const drc::GeometryChecker geom(rules);
  for (const auto& c : r.materialized.clips) EXPECT_TRUE(geom.isClean(c));
  EXPECT_THROW(runPipeline({}, rules, cfg, rng), std::invalid_argument);
}

}  // namespace
}  // namespace dp::core
