#pragma once

/// \file massive.hpp
/// The paper-scale massive-generation pipeline (DESIGN.md §12): a
/// streaming plan → decode → assess → dedup → store loop that reaches
/// the paper's Table II scale (1M+ patterns) with bounded memory and
/// kill-anywhere resume.
///
/// Streaming: latents are planned per batch from an independent seeded
/// stream keyed by the batch's cursor position — Rng(taskSeed(
/// splitmix64(seed), cursor)) — so no 1M-row plan tensor ever exists
/// and any batch can be regenerated without replaying history. That is
/// what makes the checkpoint cursor sufficient for exact resume.
///
/// Waves: batches move through the stages a wave at a time. A wave is
/// the next run of whole batches from the cursor, up to a fixed 2,048
/// samples (at least one batch), cut short at the checkpoint boundary,
/// so only its last batch can be short — the batch cut of a
/// batch-at-a-time loop. Plan runs as one parallel loop over the
/// wave's batches, each on its own cursor-keyed stream; the fused
/// route decodes every row of the wave in one call (decode is
/// per-sample) and assesses the wave in one parallel loop; the float
/// fallback decodes and assesses batch by batch, so its GEMM shapes
/// and bits are unchanged; dedup/seal/commit stay a serial fold, batch
/// by batch. The wave size is a constant, never a function of
/// DP_THREADS.
///
/// Determinism: decode and assessment run parallel into index-ordered
/// slots and the dedup/store fold replays them in ascending sample
/// order (the §6 contract), so the final store is bit-identical at any
/// DP_THREADS — and identical to a batch-at-a-time loop's — and a run
/// killed at any point resumes — from the last committed manifest — to
/// the byte-identical store an uninterrupted run produces.
///
/// Fault sites (chaos suite kills the run at every stage boundary):
/// pipeline.checkpoint.plan / .decode / .assess / .dedup / .seal /
/// .commit / .resume, plus the io.atomic.* sites inside the writers.
/// The plan, decode, assess and dedup sites are called once per batch,
/// on the calling thread, in ascending batch order: plan, decode and
/// assess at the start of their wave step (the float fallback: before
/// each batch's decode and assess), dedup before each batch's fold.

#include <cstdint>
#include <map>
#include <string>

#include "core/pattern_library.hpp"
#include "core/perturb.hpp"
#include "drc/topology_rules.hpp"
#include "models/tcae.hpp"
#include "pipeline/pattern_store.hpp"
#include "serve/metrics.hpp"
#include "tensor/tensor.hpp"

namespace dp::pipeline {

struct MassiveConfig {
  std::string dir;          ///< store directory (created if missing)
  long count = 1'000'000;   ///< latent samples to consume
  int batchSize = 256;      ///< decode batch size
  long checkpointEvery = 65'536;  ///< samples between manifest commits
  long patternsPerSegment = 65'536;  ///< max records per segment file
  std::uint64_t seed = 2019;
};

/// Wall-clock + item counters for one pipeline stage.
struct StageStats {
  std::uint64_t items = 0;
  double seconds = 0.0;
};

struct MassiveResult {
  long generated = 0;  ///< samples consumed (== config.count on success)
  long legal = 0;      ///< legal decodes (with repetitions)
  std::uint64_t unique = 0;
  double diversity = 0.0;
  bool resumed = false;   ///< a committed manifest was picked up
  long resumedFrom = 0;   ///< cursor at resume (0 for a fresh run)
  /// Per-stage totals keyed by stage name: plan, decode, assess,
  /// dedup, seal (segment writes), commit (manifest publishes), and —
  /// on resumed runs — resume (the dedup-library rebuild scan). Plan,
  /// decode, assess and dedup count every sample once; their seconds
  /// are the wall time of the matching wave steps.
  std::map<std::string, StageStats> stages;

  [[nodiscard]] double legalFraction() const {
    return generated > 0 ? static_cast<double>(legal) / generated : 0.0;
  }
};

/// Runs (or resumes) the massive pipeline against a trained TCAE.
/// `sourceLatents` is the encoded source pool whose rows are perturbed
/// (core::encodeSourceLatents); `checker` assesses topology legality.
/// When `metrics` is non-null, per-stage items/seconds and the store
/// totals are folded into the serving metrics surface
/// (dp_pipeline_stage_* series) at every checkpoint.
///
/// Resume contract: if `config.dir` holds a dp-pipeline-1 manifest, the
/// run continues from its cursor after rebuilding the dedup library from
/// the committed segments (CRC-verified, ascending segment order =
/// original insertion order). A manifest written under different
/// (seed, batchSize, checkpointEvery, patternsPerSegment) parameters —
/// or a shrunk count — is rejected with std::invalid_argument.
[[nodiscard]] MassiveResult runMassive(
    const models::Tcae& tcae, const nn::Tensor& sourceLatents,
    const core::SensitivityAwarePerturber& perturber,
    const drc::TopologyChecker& checker, const MassiveConfig& config,
    serve::Metrics* metrics = nullptr);

/// Loads the first `maxPatterns` (<= 0 for all) stored patterns of a
/// completed (or partial) store into a PatternLibrary — the bridge to
/// the existing Eq. 10 materialization (core::materialize) and the
/// Fig. 10 histogram tooling, which operate on in-memory libraries.
[[nodiscard]] core::PatternLibrary loadLibrary(const std::string& dir,
                                               long maxPatterns = -1);

}  // namespace dp::pipeline
