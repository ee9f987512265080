#pragma once

/// \file flows.hpp
/// The TCAE-family topology generation flows (paper §III-B):
///  - tcaeRandom: sensitivity-aware Gaussian perturbation of existing
///    pattern latents (§III-B3),
///  - tcaeCombine: convex combination of existing pattern latents
///    (Eq. 6, §III-B2),
///  - evaluateSampler: legality/uniqueness accounting for any direct
///    topology sampler (the DCGAN and VAE baselines of Table II),
///  - libraryResult: accounting for a fixed topology set (the "Existing
///    Design" and "Industry Tool" rows of Table II).

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "core/generation_result.hpp"
#include "core/perturb.hpp"
#include "drc/topology_rules.hpp"
#include "models/tcae.hpp"
#include "squish/packed_pattern.hpp"

namespace dp::core {

struct FlowConfig {
  long count = 20000;    ///< topologies to attempt
  int batchSize = 128;   ///< decode batch size
  bool collectGoodVectors = false;  ///< record legal perturbation vectors
  int sourcePoolSize = 1000;  ///< existing patterns whose latents are
                              ///< perturbed (paper uses 1000)
};

/// Decodes a batch of (N,1,S,S) activations, checks topology legality
/// sample-parallel on the global thread pool, and folds the outcomes
/// into `result` in ascending sample order — so accounting (including
/// PatternLibrary insertion order) is identical at any thread count.
/// When `perturbations` is non-null, row i is recorded in goodVectors
/// for every legal sample i.
void accountActivationBatch(const nn::Tensor& activations,
                            const drc::TopologyChecker& checker,
                            GenerationResult& result,
                            const nn::Tensor* perturbations = nullptr);

/// Assesses one fused-route sample on its `edge` row masks (DESIGN.md
/// §14): unpad, canonicalize and legality run on the packed words, and
/// a legal sample also gets its canonical hash and packed form. Returns
/// whether the sample is legal; `hash` and `packed` are only written
/// for legal samples. Requires 1 <= edge <= squish::kMaxMaskCols. Both
/// accountMaskBatch and the massive pipeline's assess step call it, so
/// their serial folds are plain PatternLibrary lookups.
[[nodiscard]] bool assessMaskSample(const std::uint32_t* sample, int edge,
                                    const drc::TopologyChecker& checker,
                                    std::uint64_t& hash,
                                    squish::PackedPattern& packed);

/// accountActivationBatch for the fused decode route's bit-packed
/// output (DESIGN.md §14): `masks` holds `batch` samples of `edge` row
/// masks each (bit c of a row = cell (r, c)). Samples are assessed
/// sample-parallel by assessMaskSample; the accounting fold (and
/// therefore the PatternLibrary contents and order) matches what the
/// float path produces for the same binarized samples. Good-vector
/// collection is not supported on this route — callers that need it
/// use the float path.
void accountMaskBatch(const std::uint32_t* masks, int batch, int edge,
                      const drc::TopologyChecker& checker,
                      GenerationResult& result);

/// Encodes the first min(poolSize, existing.size()) topologies into the
/// TCAE latent space — the source pool every latent flow perturbs or
/// combines. Serving bundles persist this tensor so requests never
/// re-encode.
[[nodiscard]] nn::Tensor encodeSourceLatents(
    const models::Tcae& tcae,
    const std::vector<squish::Topology>& existing, int poolSize);

/// A fully-drawn latent plan: every random draw of a generation run,
/// materialized up front. Plans exist so the serving pipeline can
/// consume the RNG on the request thread (fixing the seeded stream)
/// and then decode the rows in whatever batch coalescing the server
/// finds — per-sample decode is row-independent, so any split of
/// `latents` yields the same patterns as the in-process flows.
struct LatentPlan {
  nn::Tensor latents;  ///< (count, latentDim) rows to decode
  nn::Tensor noise;    ///< matching perturbation rows; empty for flows
                       ///< that have none (combine)
};

/// Draws the TCAE-Random plan. Consumes `rng` exactly like tcaeRandom:
/// per batch of `batchSize`, source-row indices then the perturbation
/// batch.
[[nodiscard]] LatentPlan planRandomLatents(
    const nn::Tensor& sourceLatents,
    const SensitivityAwarePerturber& perturber, long count, int batchSize,
    Rng& rng);

/// Draws the TCAE-Combine plan (convex combinations of source latents).
/// Consumes `rng` exactly like tcaeCombine: per row, `arity` uniform
/// weights then `arity` source indices.
[[nodiscard]] LatentPlan planCombineLatents(const nn::Tensor& sourceLatents,
                                            long count, int batchSize,
                                            int arity, Rng& rng);

/// Decodes `latents` in batches of `batchSize` and runs the legality/
/// uniqueness accounting. When `perturbations` is non-null its rows
/// (matched 1:1 with `latents`) are recorded for legal samples. This is
/// the decode half of every latent flow — the serve batcher calls it on
/// coalesced row ranges and reproduces the in-process result.
[[nodiscard]] GenerationResult decodeLatentsAndAccount(
    const models::Tcae& tcae, const nn::Tensor& latents,
    const nn::Tensor* perturbations, const drc::TopologyChecker& checker,
    int batchSize);

/// TCAE-Random: perturb latents of existing patterns with
/// sensitivity-aware Gaussian noise and decode. goodVectors (if
/// collected) holds the *perturbation* vectors that decoded legally —
/// the training source of the G-TCAE GAN (§III-C2).
[[nodiscard]] GenerationResult tcaeRandom(
    const models::Tcae& tcae,
    const std::vector<squish::Topology>& existing,
    const SensitivityAwarePerturber& perturber,
    const drc::TopologyChecker& checker, const FlowConfig& config,
    Rng& rng);

struct CombineConfig {
  long count = 20000;
  int batchSize = 128;
  int arity = 2;        ///< patterns combined per sample
  int poolSize = 10;    ///< pool of existing clips to combine (paper: 10)
};

/// TCAE-Combine: decode random convex combinations (sum alpha_i = 1,
/// alpha_i > 0) of existing-pattern latents.
[[nodiscard]] GenerationResult tcaeCombine(
    const models::Tcae& tcae,
    const std::vector<squish::Topology>& existing,
    const drc::TopologyChecker& checker, const CombineConfig& config,
    Rng& rng);

/// A sampler draws a batch of topology activations (N,1,S,S) in [0,1].
using TopologySampler = std::function<nn::Tensor(int n, Rng& rng)>;

/// Runs `count` samples through the legality/uniqueness accounting.
[[nodiscard]] GenerationResult evaluateSampler(
    const TopologySampler& sampler, const drc::TopologyChecker& checker,
    long count, int batchSize, Rng& rng);

/// Accounting for an already-materialized topology set.
[[nodiscard]] GenerationResult libraryResult(
    const std::vector<squish::Topology>& topologies,
    const drc::TopologyChecker& checker);

}  // namespace dp::core
