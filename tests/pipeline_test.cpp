// Massive-pipeline suite (ctest label: pipeline) — DESIGN.md §12.
//
// Covers the storage substrate (bit-packed records, CRC-verified
// mmap'd segments, atomic manifests) and the headline crash-equivalence
// property: a run killed at ANY stage boundary (every
// pipeline.checkpoint.* site plus the io.atomic.* writer sites)
// resumes to the byte-identical final store an uninterrupted run
// produces — at DP_THREADS=1 and 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/flows.hpp"
#include "core/fused_generate.hpp"
#include "core/pattern_library.hpp"
#include "core/pipeline.hpp"
#include "datagen/generator.hpp"
#include "drc/geometry_rules.hpp"
#include "drc/packed_rules.hpp"
#include "drc/topology_rules.hpp"
#include "geometry/design_rules.hpp"
#include "lp/geometry_solver.hpp"
#include "models/batch.hpp"
#include "models/tcae.hpp"
#include "pipeline/massive.hpp"
#include "pipeline/packed.hpp"
#include "pipeline/pattern_store.hpp"
#include "serve/metrics.hpp"
#include "squish/canonical.hpp"
#include "squish/complexity.hpp"
#include "squish/hash.hpp"
#include "squish/packed_pattern.hpp"
#include "squish/packed_topo.hpp"
#include "testutil.hpp"

namespace {

using dp::pipeline::MassiveConfig;
using dp::pipeline::SegmentBuilder;
using dp::pipeline::SegmentInfo;
using dp::pipeline::SegmentReader;
using dp::pipeline::StoreManifest;
using dp::squish::PackedPattern;
using dp::test::ScopedTempDir;

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

// ------------------------------------------------- packed records

TEST(PackedPattern, RoundTripsArbitraryTopologies) {
  dp::Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const dp::squish::Topology t = randomTopology(rng, 24, 0.4);
    const PackedPattern p = dp::squish::pack(t);
    EXPECT_EQ(p.cx(), t.cols());
    EXPECT_EQ(p.cy(), t.rows());
    EXPECT_EQ(dp::squish::unpack(p), t);
  }
}

TEST(PackedPattern, RejectsEmptyAndOversized) {
  EXPECT_THROW((void)dp::squish::pack(dp::squish::Topology()),
               std::invalid_argument);
  EXPECT_THROW((void)dp::squish::pack(dp::squish::Topology(256, 1)),
               std::invalid_argument);
  EXPECT_THROW((void)dp::squish::pack(dp::squish::Topology(1, 256)),
               std::invalid_argument);
}

TEST(PackedPattern, RecordStreamRoundTrips) {
  dp::Rng rng(123);
  std::vector<std::uint64_t> hashes;
  std::vector<PackedPattern> packs;
  std::string buffer;
  for (int i = 0; i < 100; ++i) {
    const dp::squish::Topology canon =
        dp::squish::canonicalize(randomTopology(rng, 12, 0.5));
    hashes.push_back(dp::squish::hashTopology(canon));
    packs.push_back(dp::squish::pack(canon));
    dp::pipeline::appendRecord(buffer, hashes.back(), packs.back());
  }
  dp::pipeline::RecordCursor cursor(buffer.data(), buffer.size());
  std::size_t i = 0;
  std::uint64_t hash = 0;
  PackedPattern p;
  while (!cursor.done()) {
    cursor.next(hash, p);
    ASSERT_LT(i, packs.size());
    EXPECT_EQ(hash, hashes[i]);
    EXPECT_EQ(p, packs[i]);
    ++i;
  }
  EXPECT_EQ(i, packs.size());
}

TEST(PackedPattern, CursorRejectsTruncatedRecords) {
  std::string buffer;
  dp::pipeline::appendRecord(
      buffer, 42, dp::squish::pack(dp::test::topo({"##", ".#"})));
  std::uint64_t hash = 0;
  PackedPattern p;
  // Every strict prefix of one record is a truncation.
  for (std::size_t cut = 1; cut < buffer.size(); ++cut) {
    dp::pipeline::RecordCursor cursor(buffer.data(), cut);
    EXPECT_THROW(cursor.next(hash, p), std::runtime_error) << cut;
  }
}

TEST(PackedPattern, CursorRejectsZeroDimensions) {
  // Hand-crafted record claiming 0x0 dims: 8 hash bytes + rows + cols.
  const std::string bogus("\0\0\0\0\0\0\0\0\0\0", 10);
  dp::pipeline::RecordCursor cursor(bogus.data(), bogus.size());
  std::uint64_t hash = 0;
  PackedPattern p;
  EXPECT_THROW(cursor.next(hash, p), std::runtime_error);
}

// ------------------------------------------------- diversity from counts

TEST(ShardedSet, ShannonFromCountsClosedForms) {
  // The pipeline's H is core::shannonDiversity over the library's
  // (cx, cy); pin its closed forms on count histograms.
  using Counts = std::map<std::pair<int, int>, std::uint64_t>;
  const auto shannon = [](const Counts& counts) {
    std::vector<dp::squish::Complexity> cplx;
    for (const auto& [c, n] : counts)
      cplx.insert(cplx.end(), n, dp::squish::Complexity{c.first, c.second});
    return dp::core::shannonDiversity(cplx);
  };
  EXPECT_NEAR(shannon(Counts{{{1, 1}, 10}}), 0.0, 1e-12);
  EXPECT_NEAR(shannon(Counts{{{1, 1}, 5},
                             {{1, 2}, 5},
                             {{2, 1}, 5},
                             {{2, 2}, 5}}),
              2.0, 1e-12);
  // p = {1/2, 1/4, 1/4} -> H = 1.5 bits.
  EXPECT_NEAR(shannon(Counts{{{1, 1}, 2}, {{1, 2}, 1}, {{2, 1}, 1}}), 1.5,
              1e-12);
  EXPECT_NEAR(shannon(Counts{}), 0.0, 1e-12);
}

// ------------------------------------------------- segments + manifest

TEST(PatternStore, SegmentRoundTripsAndVerifies) {
  ScopedTempDir dir("dp_pipeline_segment");
  dp::Rng rng(5);
  SegmentBuilder builder;
  std::vector<std::uint64_t> hashes;
  std::vector<PackedPattern> packs;
  for (int i = 0; i < 50; ++i) {
    const dp::squish::Topology canon =
        dp::squish::canonicalize(randomTopology(rng, 8, 0.4));
    hashes.push_back(dp::squish::hashTopology(canon));
    packs.push_back(dp::squish::pack(canon));
    builder.add(hashes.back(), packs.back());
  }
  const SegmentInfo info =
      dp::pipeline::writeSegment(dir.path(), 0, builder);
  EXPECT_EQ(info.path, "seg-000000.bin");
  EXPECT_EQ(info.patterns, 50u);

  SegmentReader reader(dir.path(), info);
  std::size_t i = 0;
  reader.forEach([&](std::uint64_t hash, const PackedPattern& p) {
    EXPECT_EQ(hash, hashes[i]);
    EXPECT_EQ(p, packs[i]);
    ++i;
  });
  EXPECT_EQ(i, 50u);
}

TEST(PatternStore, SegmentReaderRejectsCorruptionAndTruncation) {
  ScopedTempDir dir("dp_pipeline_corrupt");
  SegmentBuilder builder;
  const dp::squish::Topology canon =
      dp::squish::canonicalize(dp::test::topo({"#.#", "###"}));
  for (int i = 0; i < 20; ++i)
    builder.add(dp::squish::hashTopology(canon) + i,
                dp::squish::pack(canon));
  const SegmentInfo info =
      dp::pipeline::writeSegment(dir.path(), 3, builder);
  const std::string path = dir.file(info.path);

  // Flip one byte in the middle: CRC mismatch.
  {
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      bytes = ss.str();
    }
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(SegmentReader(dir.path(), info), std::runtime_error);

  // Truncate: size mismatch, rejected before any CRC work.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "short";
  }
  EXPECT_THROW(SegmentReader(dir.path(), info), std::runtime_error);
}

TEST(PatternStore, SegmentOpenFaultIsInjectable) {
  ScopedTempDir dir("dp_pipeline_segfault");
  SegmentBuilder builder;
  const dp::squish::Topology canon =
      dp::squish::canonicalize(dp::test::topo({"#.#", "###"}));
  builder.add(dp::squish::hashTopology(canon),
              dp::squish::pack(canon));
  const SegmentInfo info =
      dp::pipeline::writeSegment(dir.path(), 0, builder);

  dp::faults::arm("pipeline.segment.open", 4, 1.0);
  EXPECT_THROW(SegmentReader(dir.path(), info), std::runtime_error);
  dp::faults::disarm("pipeline.segment.open");

  // Disarmed, the same segment opens and replays in full.
  SegmentReader reader(dir.path(), info);
  std::size_t count = 0;
  reader.forEach(
      [&](std::uint64_t, const PackedPattern&) { ++count; });
  EXPECT_EQ(count, 1u);
}

TEST(PatternStore, ManifestRoundTripsExactly) {
  ScopedTempDir dir("dp_pipeline_manifest");
  EXPECT_FALSE(dp::pipeline::loadManifest(dir.path()).has_value());

  StoreManifest m;
  m.seed = 0xdeadbeefcafef00dULL;  // needs exact > 2^53 serialization
  m.count = 1'000'000;
  m.batchSize = 256;
  m.checkpointEvery = 65536;
  m.patternsPerSegment = 65536;
  m.cursor = 131072;
  m.legal = 98304;
  m.unique = 40000;
  m.shardSizes.assign(64, 625);
  m.segments.push_back({"seg-000000.bin", 30000, 400000, 0x12345678U});
  m.segments.push_back({"seg-000001.bin", 10000, 140000, 0x9abcdef0U});
  dp::pipeline::commitManifest(dir.path(), m);

  const auto loaded = dp::pipeline::loadManifest(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, m);
}

TEST(PatternStore, ManifestRejectsWrongFormat) {
  ScopedTempDir dir("dp_pipeline_badmanifest");
  {
    std::ofstream out(dir.file("manifest.json"));
    out << "{\"format\": \"not-a-pipeline\"}\n";
  }
  EXPECT_THROW((void)dp::pipeline::loadManifest(dir.path()),
               std::runtime_error);
}

// ------------------------------------------------- seeded corpus pin

TEST(SeededCorpus, CanonicalHashesAndRecordsAreStable) {
  struct CorpusEntry {
    std::uint64_t hash;
    std::uint32_t crc;
  };
  static constexpr CorpusEntry kCorpus[] = {
#include "fixtures/canonical_hashes.inc"
  };
  dp::Rng rng(424242);
  for (const CorpusEntry& expected : kCorpus) {
    const dp::squish::Topology t = randomTopology(rng, 10, 0.4);
    const dp::squish::Topology canon = dp::squish::canonicalize(t);
    const std::uint64_t hash = dp::squish::hashTopology(canon);
    std::string record;
    dp::pipeline::appendRecord(record, hash, dp::squish::pack(canon));
    EXPECT_EQ(hash, expected.hash)
        << "canonical hash drifted for:\n"
        << t.toString();
    EXPECT_EQ(dp::crc32(record), expected.crc)
        << "packed record bytes drifted for:\n"
        << t.toString();
  }
}

// ------------------------------------------------- massive pipeline

/// Tiny trained world shared by the massive-pipeline tests (built once
/// per process; training is deterministic at any thread count).
struct TinyWorld {
  dp::drc::TopologyChecker checker;
  dp::models::Tcae tcae;
  dp::nn::Tensor sourceLatents;
  dp::core::SensitivityAwarePerturber perturber;
};

const TinyWorld& tinyWorld() {
  static const TinyWorld* world = [] {
    dp::Rng rng(2019);
    const dp::DesignRules rules = dp::euv7nmM2();
    const auto clips = dp::datagen::generateLibrary(
        dp::datagen::directprintSpec(1), rules, 24, rng);
    const auto topologies = dp::datagen::extractTopologies(clips);
    dp::models::TcaeConfig cfg;
    // 150 steps + perturbation scale 2.0: enough decoder structure and
    // latent spread that 2048 samples yield a few hundred unique
    // patterns (60 steps collapses to ~2, which exercises nothing).
    cfg.trainSteps = 150;
    auto* w = new TinyWorld{
        dp::drc::TopologyChecker(
            dp::drc::TopologyRuleConfig::fromRules(rules)),
        dp::models::Tcae(cfg, rng), dp::nn::Tensor(),
        dp::core::SensitivityAwarePerturber(
            std::vector<double>(static_cast<std::size_t>(cfg.latentDim),
                                1.0),
            2.0)};
    w->tcae.train(topologies, rng);
    w->sourceLatents =
        dp::core::encodeSourceLatents(w->tcae, topologies, 16);
    return w;
  }();
  return *world;
}

MassiveConfig smallConfig(const std::string& dir) {
  MassiveConfig c;
  c.dir = dir;
  c.count = 2048;
  c.batchSize = 64;
  c.checkpointEvery = 512;    // 4 checkpoint commits per run
  c.patternsPerSegment = 40;  // forces mid-interval segment seals
  c.seed = 77;
  return c;
}

dp::pipeline::MassiveResult runMassive(const MassiveConfig& config,
                                       dp::serve::Metrics* metrics =
                                           nullptr) {
  const TinyWorld& w = tinyWorld();
  return dp::pipeline::runMassive(w.tcae, w.sourceLatents, w.perturber,
                                  w.checker, config, metrics);
}

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
      return ::testing::AssertionFailure() << name << " differs ("
                                           << bytes.size() << " vs "
                                           << it->second.size()
                                           << " bytes)";
  }
  for (const auto& [name, bytes] : b)
    if (a.find(name) == a.end())
      return ::testing::AssertionFailure() << name << " unexpected";
  return ::testing::AssertionSuccess();
}

class MassivePipeline : public ::testing::Test {
 protected:
  void SetUp() override { dp::faults::disarmAll(); }
  void TearDown() override { dp::faults::disarmAll(); }
};

TEST_F(MassivePipeline, CompletesAndIsDeterministicAcrossThreadCounts) {
  std::map<std::string, std::string> reference;
  dp::pipeline::MassiveResult first;
  for (const int threads : {1, 8}) {
    dp::test::ScopedDpThreads guard(threads);
    ScopedTempDir dir("dp_pipeline_threads_" + std::to_string(threads));
    const auto result = runMassive(smallConfig(dir.path()));
    EXPECT_EQ(result.generated, 2048);
    EXPECT_FALSE(result.resumed);
    EXPECT_GT(result.unique, 0u);
    EXPECT_GT(result.legal, 0);
    if (reference.empty()) {
      reference = dirBytes(dir.path());
      first = result;
    } else {
      EXPECT_TRUE(storesIdentical(dirBytes(dir.path()), reference))
          << "store depends on DP_THREADS=" << threads;
      EXPECT_EQ(result.legal, first.legal);
      EXPECT_EQ(result.unique, first.unique);
      EXPECT_DOUBLE_EQ(result.diversity, first.diversity);
    }
  }
}

// Rebuilds the expected record stream from public primitives alone,
// one batch at a time: per-cursor Rng stream → sampleIndices /
// gatherRows / perturbation → fused decode → unpad, canonicalize,
// legality, hash → ordered first-seen dedup. Pins the cursor-keyed
// stream layout independently of how runMassive groups its work; the
// count is a multiple of neither the batch nor the wave size.
TEST_F(MassivePipeline, StoreMatchesPerBatchOracle) {
  const TinyWorld& w = tinyWorld();
  const dp::core::FusedDecodeRoute route(w.tcae);
  MassiveConfig config;
  config.count = 2048 + 37;
  config.batchSize = 64;
  config.checkpointEvery = 4096;
  config.patternsPerSegment = 40;
  config.seed = 91;

  long legal = 0;
  std::vector<std::pair<std::uint64_t, PackedPattern>> expected;
  std::map<std::uint64_t, std::vector<PackedPattern>> seen;
  const std::uint64_t streamBase = dp::splitmix64(config.seed);
  const int edge = route.topologySize();
  for (long c = 0; c < config.count; c += config.batchSize) {
    const int b = static_cast<int>(
        std::min<long>(config.batchSize, config.count - c));
    dp::Rng rng(dp::taskSeed(streamBase, static_cast<std::uint64_t>(c)));
    const auto idx =
        dp::models::sampleIndices(w.sourceLatents.size(0), b, rng);
    dp::nn::Tensor latents = dp::models::gatherRows(w.sourceLatents, idx);
    latents += w.perturber.sampleBatch(b, rng);
    std::vector<std::uint32_t> masks;
    route.decodeMasks(latents, masks);
    for (int i = 0; i < b; ++i) {
      std::uint32_t rows[dp::squish::kMaxMaskCols];
      std::copy_n(masks.data() + static_cast<std::size_t>(i) * edge, edge,
                  rows);
      int nRows = edge;
      int nCols = edge;
      dp::squish::unpadMasks(rows, nRows, nCols);
      dp::squish::canonicalizeMasks(rows, nRows, nCols);
      if (!dp::drc::isLegalCanonicalMasks(w.checker.config(), rows, nRows,
                                          nCols))
        continue;
      ++legal;
      const std::uint64_t hash = dp::squish::hashMasks(rows, nRows, nCols);
      const PackedPattern packed =
          dp::squish::packMasks(rows, nRows, nCols);
      auto& bucket = seen[hash];
      if (std::find(bucket.begin(), bucket.end(), packed) != bucket.end())
        continue;
      bucket.push_back(packed);
      expected.emplace_back(hash, packed);
    }
  }
  ASSERT_GT(expected.size(), 1u);

  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    dp::test::ScopedDpThreads guard(threads);
    ScopedTempDir dir("dp_pipeline_oracle_" + std::to_string(threads));
    config.dir = dir.path();
    const auto result = runMassive(config);
    EXPECT_EQ(result.generated, config.count);
    EXPECT_EQ(result.legal, legal);
    EXPECT_EQ(result.unique, expected.size());

    std::vector<std::pair<std::uint64_t, PackedPattern>> stored;
    const auto manifest = dp::pipeline::loadManifest(dir.path());
    ASSERT_TRUE(manifest.has_value());
    for (const SegmentInfo& seg : manifest->segments) {
      SegmentReader reader(dir.path(), seg);
      reader.forEach([&](std::uint64_t hash, const PackedPattern& p) {
        stored.emplace_back(hash, p);
      });
    }
    EXPECT_TRUE(stored == expected)
        << stored.size() << " stored vs " << expected.size()
        << " expected records";
  }
}

// Every per-batch boundary site is crossed once per batch on the
// coordinator thread, however the batches are grouped into waves. The
// run spans several waves and checkpoint intervals and ends in a
// partial wave and a partial batch.
TEST_F(MassivePipeline, BoundarySitesCalledOncePerBatch) {
  const std::vector<std::string> sites = {
      "pipeline.checkpoint.plan", "pipeline.checkpoint.decode",
      "pipeline.checkpoint.assess", "pipeline.checkpoint.dedup"};
  MassiveConfig config;
  config.count = 2 * 2048 + 37;
  config.batchSize = 64;
  config.checkpointEvery = 3000;
  config.patternsPerSegment = 40;
  config.seed = 5;
  // [0, 3000): 46 full batches + one of 56; [3000, 4133): 17 full
  // batches + one of 45.
  const std::uint64_t batches = 47 + 18;

  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    dp::test::ScopedDpThreads guard(threads);
    ScopedTempDir dir("dp_pipeline_calls_" + std::to_string(threads));
    config.dir = dir.path();
    // Armed at a vanishing rate: counts calls without ever firing.
    for (const std::string& site : sites) dp::faults::arm(site, 3, 1e-12);
    const auto result = runMassive(config);
    const auto counters = dp::faults::counters();
    dp::faults::disarmAll();
    for (const std::string& site : sites) {
      EXPECT_EQ(counters.at(site).calls, batches) << site;
      EXPECT_EQ(counters.at(site).fires, 0u) << site;
    }
    for (const char* stage : {"plan", "decode", "assess", "dedup"})
      EXPECT_EQ(result.stages.at(stage).items,
                static_cast<std::uint64_t>(config.count))
          << stage;
  }
}

// The headline chaos property: for every pipeline.checkpoint.* stage
// boundary and every io.atomic.* writer site, repeatedly crash the run
// via injected faults, then finish it — the final store must be
// byte-identical to an uninterrupted run's, at 1 and 8 threads.
TEST_F(MassivePipeline, KillAtEveryStageBoundaryResumesToIdenticalStore) {
  const std::vector<std::string> sites = {
      "pipeline.checkpoint.plan",   "pipeline.checkpoint.decode",
      "pipeline.checkpoint.assess", "pipeline.checkpoint.dedup",
      "pipeline.checkpoint.seal",   "pipeline.checkpoint.commit",
      "io.atomic.write",            "io.atomic.fsync",
      "io.atomic.rename"};
  for (const int threads : {1, 8}) {
    dp::test::ScopedDpThreads guard(threads);
    ScopedTempDir ref("dp_pipeline_chaos_ref");
    const auto refResult = runMassive(smallConfig(ref.path()));
    const auto refBytes = dirBytes(ref.path());
    ASSERT_GT(refResult.unique, 0u);

    for (const std::string& site : sites) {
      SCOPED_TRACE("site=" + site +
                   " threads=" + std::to_string(threads));
      ScopedTempDir dir("dp_pipeline_chaos");
      const MassiveConfig config = smallConfig(dir.path());
      // First window always fires at the site's first call, so every
      // site provably crashes at least once (low-frequency sites like
      // seal/commit would otherwise survive a probabilistic window and
      // complete before ever firing). Later windows re-arm with fresh
      // seeds so each resume crashes somewhere new until one passes.
      dp::faults::arm(site, 13, 1.0);
      int crashes = 0;
      bool complete = false;
      for (int attempt = 0; attempt < 12 && !complete; ++attempt) {
        try {
          (void)runMassive(config);
          complete = true;
        } catch (const std::exception&) {
          ++crashes;  // crash window: resume on the next attempt
          dp::faults::arm(site, 14 + attempt, 0.35);
        }
      }
      dp::faults::disarmAll();
      const auto result = runMassive(config);
      EXPECT_GT(crashes, 0) << "fault never fired; test exercised "
                               "nothing";
      EXPECT_EQ(result.generated, refResult.generated);
      EXPECT_EQ(result.legal, refResult.legal);
      EXPECT_EQ(result.unique, refResult.unique);
      EXPECT_DOUBLE_EQ(result.diversity, refResult.diversity);
      EXPECT_TRUE(storesIdentical(dirBytes(dir.path()), refBytes));
    }
  }
}

TEST_F(MassivePipeline, ResumeLoadFaultThenCleanRetry) {
  ScopedTempDir ref("dp_pipeline_rfault_ref");
  (void)runMassive(smallConfig(ref.path()));
  const auto refBytes = dirBytes(ref.path());

  ScopedTempDir dir("dp_pipeline_rfault");
  const MassiveConfig config = smallConfig(dir.path());
  // Crash somewhere past the first checkpoint commit, so a manifest
  // exists for the resume path to load.
  dp::faults::arm("pipeline.checkpoint.decode", 5, 0.08);
  bool committed = false;
  for (int attempt = 0; attempt < 40 && !committed; ++attempt) {
    try {
      (void)runMassive(config);
    } catch (const dp::FaultInjected&) {
    }
    const auto m = dp::pipeline::loadManifest(dir.path());
    committed = m && m->cursor > 0;
  }
  dp::faults::disarmAll();
  ASSERT_TRUE(committed);

  // The resume path itself fails...
  dp::faults::arm("pipeline.checkpoint.resume", 3, 1.0);
  EXPECT_THROW((void)runMassive(config), dp::FaultInjected);
  dp::faults::disarmAll();

  // ...then a clean retry resumes and converges on the reference.
  const auto result = runMassive(config);
  EXPECT_EQ(result.generated, 2048);
  EXPECT_TRUE(storesIdentical(dirBytes(dir.path()), refBytes));
}

TEST_F(MassivePipeline, ExtendingCountResumesFromCommittedCursor) {
  ScopedTempDir ref("dp_pipeline_extend_ref");
  MassiveConfig refConfig = smallConfig(ref.path());
  (void)runMassive(refConfig);

  ScopedTempDir dir("dp_pipeline_extend");
  MassiveConfig config = smallConfig(dir.path());
  config.count = 1024;
  const auto half = runMassive(config);
  EXPECT_EQ(half.generated, 1024);

  config.count = 2048;
  const auto full = runMassive(config);
  EXPECT_TRUE(full.resumed);
  EXPECT_EQ(full.resumedFrom, 1024);
  EXPECT_EQ(full.generated, 2048);
  EXPECT_TRUE(storesIdentical(dirBytes(dir.path()),
                              dirBytes(ref.path())));
}

TEST_F(MassivePipeline, RejectsMismatchedGenerationParameters) {
  ScopedTempDir dir("dp_pipeline_mismatch");
  MassiveConfig config = smallConfig(dir.path());
  config.count = 1024;
  (void)runMassive(config);

  MassiveConfig wrongSeed = config;
  wrongSeed.seed = 78;
  EXPECT_THROW((void)runMassive(wrongSeed), std::invalid_argument);

  MassiveConfig wrongBatch = config;
  wrongBatch.batchSize = 32;
  EXPECT_THROW((void)runMassive(wrongBatch), std::invalid_argument);

  MassiveConfig shrunk = config;
  shrunk.count = 512;  // behind the committed cursor
  EXPECT_THROW((void)runMassive(shrunk), std::invalid_argument);
}

TEST_F(MassivePipeline, ReportsStageThroughputOnMetricsSurface) {
  ScopedTempDir dir("dp_pipeline_metrics");
  dp::serve::Metrics metrics;
  const auto result = runMassive(smallConfig(dir.path()), &metrics);
  const auto stages = metrics.stageTotals();
  for (const char* stage : {"plan", "decode", "assess", "dedup", "seal",
                            "commit"}) {
    const auto it = stages.find(stage);
    ASSERT_NE(it, stages.end()) << stage;
    EXPECT_GT(it->second.items, 0u) << stage;
    EXPECT_EQ(it->second.items, result.stages.at(stage).items) << stage;
  }
  EXPECT_EQ(stages.at("decode").items, 2048u);
  const std::string text = metrics.renderPrometheus();
  EXPECT_NE(text.find("dp_pipeline_stage_items_total{stage=\"decode\"} "
                      "2048"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dp_pipeline_stage_seconds_total{stage=\"plan\"}"),
            std::string::npos);
}

TEST_F(MassivePipeline, LoadLibraryBridgesToMaterialization) {
  ScopedTempDir dir("dp_pipeline_library");
  const auto result = runMassive(smallConfig(dir.path()));

  const dp::core::PatternLibrary library =
      dp::pipeline::loadLibrary(dir.path());
  EXPECT_EQ(library.size(), result.unique);
  EXPECT_DOUBLE_EQ(library.diversity(), result.diversity);

  const dp::core::PatternLibrary capped =
      dp::pipeline::loadLibrary(dir.path(), 5);
  ASSERT_EQ(capped.size(), 5u);

  // Eq. 10 bridge: the first stored patterns materialize into clips.
  const dp::DesignRules rules = dp::euv7nmM2();
  const dp::lp::GeometrySolver solver(rules);
  const dp::drc::GeometryChecker geomChecker(rules);
  dp::Rng rng(11);
  const dp::core::MaterializeResult mat =
      dp::core::materialize(capped, solver, geomChecker, rng);
  EXPECT_EQ(mat.attempted, 5);
  EXPECT_GT(mat.solved, 0);
}

}  // namespace
