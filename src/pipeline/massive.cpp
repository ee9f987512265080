#include "pipeline/massive.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/flows.hpp"
#include "core/fused_generate.hpp"
#include "models/batch.hpp"
#include "models/topology_codec.hpp"
#include "squish/canonical.hpp"
#include "squish/hash.hpp"

namespace dp::pipeline {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Samples per wave: a wave is the next run of whole batches, at most
/// this many samples (but never less than one batch), cut short at the
/// checkpoint boundary. A constant, so the wave cut is a function of
/// the generation parameters alone — never of DP_THREADS.
constexpr long kWaveSamples = 2048;

/// Accumulates per-stage items/seconds for the result and mirrors the
/// deltas onto the serving metrics surface at every checkpoint flush.
struct StageTally {
  std::map<std::string, StageStats> total;
  std::map<std::string, StageStats> pending;

  void add(const std::string& stage, std::uint64_t items,
           Clock::time_point since) {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - since).count();
    StageStats& t = total[stage];
    t.items += items;
    t.seconds += seconds;
    StageStats& p = pending[stage];
    p.items += items;
    p.seconds += seconds;
  }

  void flush(serve::Metrics* metrics) {
    if (metrics)
      for (const auto& [stage, stats] : pending)
        metrics->recordStage(stage, stats.items, stats.seconds);
    pending.clear();
  }
};

void checkConfig(const nn::Tensor& sourceLatents,
                 const MassiveConfig& config) {
  if (config.dir.empty())
    throw std::invalid_argument("runMassive: empty store dir");
  if (config.count <= 0)
    throw std::invalid_argument("runMassive: count must be > 0");
  if (config.batchSize <= 0)
    throw std::invalid_argument("runMassive: batchSize must be > 0");
  if (config.checkpointEvery <= 0)
    throw std::invalid_argument("runMassive: checkpointEvery must be > 0");
  if (config.patternsPerSegment <= 0)
    throw std::invalid_argument(
        "runMassive: patternsPerSegment must be > 0");
  if (sourceLatents.dim() != 2 || sourceLatents.size(0) == 0)
    throw std::invalid_argument(
        "runMassive: need (pool, latentDim) source latents");
}

/// Removes AtomicFileWriter temp files a killed writer stranded (a
/// SIGKILL skips the writer's unwind cleanup), so a resumed store
/// converges to the byte-identical directory an uninterrupted run
/// produces.
void sweepStaleTempFiles(const std::string& dir) {
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos)
      stale.push_back(entry.path());
  }
  for (const fs::path& path : stale) fs::remove(path);
}

}  // namespace

MassiveResult runMassive(const models::Tcae& tcae,
                         const nn::Tensor& sourceLatents,
                         const core::SensitivityAwarePerturber& perturber,
                         const drc::TopologyChecker& checker,
                         const MassiveConfig& config,
                         serve::Metrics* metrics) {
  static FaultSite planFault("pipeline.checkpoint.plan");
  static FaultSite decodeFault("pipeline.checkpoint.decode");
  static FaultSite assessFault("pipeline.checkpoint.assess");
  static FaultSite dedupFault("pipeline.checkpoint.dedup");
  static FaultSite sealFault("pipeline.checkpoint.seal");

  checkConfig(sourceLatents, config);
  fs::create_directories(config.dir);
  sweepStaleTempFiles(config.dir);

  MassiveResult result;
  StageTally tally;
  core::PatternLibrary library;
  // The manifest's shardSizes: the library's unique count per top-6-bit
  // canonical-hash prefix, counted as inserts land (a resume compares
  // its rebuild against the committed counts).
  std::vector<std::uint64_t> shardSizes(64, 0);
  const auto insert = [&](std::uint64_t hash, const squish::PackedPattern& p) {
    if (!library.insertCanonical(hash, p)) return false;
    ++shardSizes[hash >> 58];
    return true;
  };
  StoreManifest manifest;

  if (const auto loaded = loadManifest(config.dir)) {
    const StoreManifest& m = *loaded;
    if (m.seed != config.seed || m.batchSize != config.batchSize ||
        m.checkpointEvery != config.checkpointEvery ||
        m.patternsPerSegment != config.patternsPerSegment)
      throw std::invalid_argument(
          "runMassive: store at " + config.dir +
          " was produced under different generation parameters");
    if (config.count < m.cursor)
      throw std::invalid_argument(
          "runMassive: count " + std::to_string(config.count) +
          " is behind the committed cursor " + std::to_string(m.cursor));
    // Rebuild the dedup library from the committed segments. Ascending
    // segment order replays first-insertion order, so collision-bucket
    // order (and therefore all downstream enumeration) matches the
    // original run exactly.
    const auto t0 = Clock::now();
    for (const SegmentInfo& seg : m.segments) {
      SegmentReader reader(config.dir, seg);
      reader.forEach(
          [&insert](std::uint64_t hash, const squish::PackedPattern& p) {
            insert(hash, p);
          });
    }
    if (library.size() != m.unique || shardSizes != m.shardSizes)
      throw std::runtime_error(
          "runMassive: dedup rebuild disagrees with the manifest "
          "(corrupt store at " +
          config.dir + ")");
    tally.add("resume", m.unique, t0);
    manifest = m;
    result.resumed = true;
    result.resumedFrom = m.cursor;
  }
  manifest.seed = config.seed;
  manifest.count = config.count;
  manifest.batchSize = config.batchSize;
  manifest.checkpointEvery = config.checkpointEvery;
  manifest.patternsPerSegment = config.patternsPerSegment;

  // Decode + assess route through the fused bit-packed path (DESIGN.md
  // §14) whenever the model's decoder stack supports it; other stacks
  // fall back to the unfused float reference. Both routes emit the same
  // hashes and packed bytes for the same binarized samples, so stores
  // started under one route resume cleanly under the other.
  std::optional<core::FusedDecodeRoute> fused;
  try {
    fused.emplace(tcae);
  } catch (const std::invalid_argument&) {
  }

  const std::uint64_t streamBase = splitmix64(config.seed);
  const int pool = sourceLatents.size(0);
  long cursor = manifest.cursor;
  long legal = manifest.legal;
  long nextSegment = static_cast<long>(manifest.segments.size());
  SegmentBuilder builder;

  const auto seal = [&] {
    const auto t0 = Clock::now();
    const std::uint64_t sealed = builder.patterns();
    manifest.segments.push_back(
        writeSegment(config.dir, nextSegment, builder));
    ++nextSegment;
    builder.clear();
    tally.add("seal", sealed, t0);
  };

  const long batchSize = config.batchSize;
  const long waveSpan = std::max<long>(1, kWaveSamples / batchSize) *
                        batchSize;
  const int latentDim = sourceLatents.size(1);

  while (cursor < config.count) {
    // Checkpoint boundaries sit on a fixed grid (multiples of
    // checkpointEvery), and batches never straddle a boundary — so a
    // killed run and an uninterrupted run cut identical batches and
    // seal identical segments.
    const long boundary = std::min(
        config.count,
        (cursor / config.checkpointEvery + 1) * config.checkpointEvery);
    while (cursor < boundary) {
      // Cut the wave: whole batches from the cursor, stopping at the
      // boundary, so batch j covers rows [j*batchSize, ...) and only
      // the last batch can be short — the same cut a batch-at-a-time
      // loop makes.
      const long waveStart = cursor;
      const long n = std::min(waveSpan, boundary - waveStart);
      const long nb = (n + batchSize - 1) / batchSize;
      const auto rowsOf = [&](long j) {
        return static_cast<int>(std::min(batchSize, n - j * batchSize));
      };

      // Plan: each batch draws from its own Rng stream keyed by its
      // cursor, so any batch regenerates without replaying history and
      // the batches of a wave plan concurrently.
      auto t0 = Clock::now();
      for (long j = 0; j < nb; ++j) planFault.orThrow();
      nn::Tensor latents({static_cast<int>(n), latentDim});
      dp::parallelFor(nb, 1, [&](long j0, long j1) {
        for (long j = j0; j < j1; ++j) {
          const long row0 = j * batchSize;
          const int b = rowsOf(j);
          Rng rng(taskSeed(streamBase,
                           static_cast<std::uint64_t>(waveStart + row0)));
          const auto idx = models::sampleIndices(pool, b, rng);
          nn::Tensor batch = models::gatherRows(sourceLatents, idx);
          batch += perturber.sampleBatch(b, rng);
          std::copy_n(batch.data(), batch.numel(),
                      latents.data() + row0 * latentDim);
        }
      });
      tally.add("plan", static_cast<std::uint64_t>(n), t0);

      std::vector<char> ok(static_cast<std::size_t>(n), 0);
      std::vector<std::uint64_t> hashes(static_cast<std::size_t>(n), 0);
      std::vector<squish::PackedPattern> packs(static_cast<std::size_t>(n));
      if (fused) {
        // Fused route: latents go straight to bit-packed binarized
        // topologies, and the whole assessment runs on the packed
        // words — no float tensor or Topology round-trip. Fused decode
        // is per-sample, so one call covers every batch of the wave.
        t0 = Clock::now();
        for (long j = 0; j < nb; ++j) decodeFault.orThrow();
        std::vector<std::uint32_t> masks;
        fused->decodeMasks(latents, masks);
        tally.add("decode", static_cast<std::uint64_t>(n), t0);

        t0 = Clock::now();
        for (long j = 0; j < nb; ++j) assessFault.orThrow();
        const int edge = fused->topologySize();
        dp::parallelFor(n, 8, [&](long i0, long i1) {
          for (long i = i0; i < i1; ++i) {
            const auto k = static_cast<std::size_t>(i);
            ok[k] = core::assessMaskSample(masks.data() + i * edge, edge,
                                           checker, hashes[k], packs[k])
                        ? 1
                        : 0;
          }
        });
        tally.add("assess", static_cast<std::uint64_t>(n), t0);
      } else {
        // Float route: decode and assess batch by batch. One decode per
        // batch keeps its GEMM shapes (and with them its bits) exactly
        // those of a batch-at-a-time loop, and only one batch of float
        // activations is alive at a time.
        for (long j = 0; j < nb; ++j) {
          const long row0 = j * batchSize;
          const int b = rowsOf(j);
          decodeFault.orThrow();
          t0 = Clock::now();
          nn::Tensor batch({b, latentDim});
          std::copy_n(latents.data() + row0 * latentDim, batch.numel(),
                      batch.data());
          const nn::Tensor activations = tcae.decode(batch);
          tally.add("decode", static_cast<std::uint64_t>(b), t0);

          // Assess: threshold/unpad, legality, canonicalize, hash and
          // pack sample-parallel into index-ordered slots (§6 contract).
          assessFault.orThrow();
          t0 = Clock::now();
          dp::parallelFor(b, 8, [&](long i0, long i1) {
            for (long i = i0; i < i1; ++i) {
              const auto k = static_cast<std::size_t>(row0 + i);
              const squish::Topology t = models::decodeGeneratedTopology(
                  activations, static_cast<int>(i));
              if (!checker.isLegal(t)) continue;
              ok[k] = 1;
              const squish::Topology canon = squish::canonicalize(t);
              hashes[k] = squish::hashTopology(canon);
              packs[k] = squish::pack(canon);
            }
          });
          tally.add("assess", static_cast<std::uint64_t>(b), t0);
        }
      }

      // Dedup + store fold: replay the slots serially in ascending
      // sample order, crossing the dedup boundary at each batch start,
      // so insertion order (and with it every segment byte) is
      // thread-count invariant.
      t0 = Clock::now();
      for (long i = 0; i < n; ++i) {
        if (i % batchSize == 0) dedupFault.orThrow();
        const auto k = static_cast<std::size_t>(i);
        if (!ok[k]) continue;
        ++legal;
        if (!insert(hashes[k], packs[k])) continue;
        builder.add(hashes[k], packs[k]);
        if (builder.patterns() >=
            static_cast<std::uint64_t>(config.patternsPerSegment)) {
          sealFault.orThrow();
          seal();
        }
      }
      tally.add("dedup", static_cast<std::uint64_t>(n), t0);
      cursor += n;
    }

    // Checkpoint: seal the partial segment so the manifest covers every
    // unique pattern, then atomically publish progress. The seal
    // boundary is crossed at every checkpoint even when no new uniques
    // arrived, so its fault-site call sequence is a function of the
    // checkpoint grid alone — not of what the data happened to yield.
    sealFault.orThrow();
    if (!builder.empty()) seal();
    const auto t0 = Clock::now();
    manifest.cursor = cursor;
    manifest.legal = legal;
    manifest.unique = library.size();
    manifest.shardSizes = shardSizes;
    commitManifest(config.dir, manifest);
    tally.add("commit", 1, t0);
    tally.flush(metrics);
  }
  tally.flush(metrics);

  result.generated = cursor;
  result.legal = legal;
  result.unique = library.size();
  result.diversity = library.diversity();
  result.stages = tally.total;
  return result;
}

core::PatternLibrary loadLibrary(const std::string& dir,
                                 long maxPatterns) {
  const auto manifest = loadManifest(dir);
  if (!manifest)
    throw std::runtime_error("loadLibrary: no manifest in " + dir);
  core::PatternLibrary library;
  const long cap = maxPatterns <= 0 ? std::numeric_limits<long>::max()
                                    : maxPatterns;
  for (const SegmentInfo& seg : manifest->segments) {
    if (static_cast<long>(library.size()) >= cap) break;
    SegmentReader reader(dir, seg);
    reader.forEach([&](std::uint64_t hash, const squish::PackedPattern& p) {
      if (static_cast<long>(library.size()) >= cap) return;
      library.insertCanonical(hash, p);
    });
  }
  return library;
}

}  // namespace dp::pipeline
