#include "core/flows.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "drc/packed_rules.hpp"
#include "models/batch.hpp"
#include "models/topology_codec.hpp"
#include "squish/packed_topo.hpp"
#include "squish/pad.hpp"

namespace dp::core {

void accountActivationBatch(const nn::Tensor& activations,
                            const drc::TopologyChecker& checker,
                            GenerationResult& result,
                            const nn::Tensor* perturbations) {
  // Decode + legality are the per-sample hot path and independent
  // across samples, so they run sample-parallel into index-ordered
  // slots; the accounting below then replays the slots serially in
  // ascending order, so the library insertion order (and therefore the
  // whole result) is identical at any thread count.
  const long n = activations.size(0);
  std::vector<squish::Topology> topologies(static_cast<std::size_t>(n));
  std::vector<char> legal(static_cast<std::size_t>(n), 0);
  dp::parallelFor(n, 8, [&](long i0, long i1) {
    for (long i = i0; i < i1; ++i) {
      const auto k = static_cast<std::size_t>(i);
      topologies[k] =
          models::decodeGeneratedTopology(activations, static_cast<int>(i));
      legal[k] = checker.isLegal(topologies[k]) ? 1 : 0;
    }
  });
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    ++result.generated;
    if (!legal[i]) continue;
    ++result.legal;
    result.unique.add(topologies[i]);
    if (perturbations) {
      const int d = perturbations->size(1);
      std::vector<float> row(static_cast<std::size_t>(d));
      for (int c = 0; c < d; ++c)
        row[static_cast<std::size_t>(c)] =
            perturbations->at(static_cast<int>(i), c);
      result.goodVectors.push_back(std::move(row));
    }
  }
}

bool assessMaskSample(const std::uint32_t* sample, int edge,
                      const drc::TopologyChecker& checker, std::uint64_t& hash,
                      squish::PackedPattern& packed) {
  std::uint32_t rows[squish::kMaxMaskCols];
  std::copy_n(sample, edge, rows);
  int nRows = edge;
  int nCols = edge;
  squish::unpadMasks(rows, nRows, nCols);
  squish::canonicalizeMasks(rows, nRows, nCols);
  if (!drc::isLegalCanonicalMasks(checker.config(), rows, nRows, nCols))
    return false;
  hash = squish::hashMasks(rows, nRows, nCols);
  packed = squish::packMasks(rows, nRows, nCols);
  return true;
}

void accountMaskBatch(const std::uint32_t* masks, int batch, int edge,
                      const drc::TopologyChecker& checker,
                      GenerationResult& result) {
  if (edge <= 0 || edge > squish::kMaxMaskCols)
    throw std::invalid_argument(
        "accountMaskBatch: edge must fit a 32-bit row mask");
  // Same index-ordered-slot scheme as accountActivationBatch: the
  // assessment (hash and pack included) runs sample-parallel; the
  // serial fold below is a library lookup per legal sample and keeps
  // insertion order thread-count invariant.
  struct Slot {
    std::uint64_t hash = 0;
    squish::PackedPattern packed;
    bool legal = false;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(batch));
  dp::parallelFor(batch, 8, [&](long i0, long i1) {
    for (long i = i0; i < i1; ++i) {
      Slot& slot = slots[static_cast<std::size_t>(i)];
      slot.legal = assessMaskSample(masks + i * edge, edge, checker,
                                    slot.hash, slot.packed);
    }
  });
  for (const Slot& slot : slots) {
    ++result.generated;
    if (!slot.legal) continue;
    ++result.legal;
    result.unique.insertCanonical(slot.hash, slot.packed);
  }
}

nn::Tensor encodeSourceLatents(
    const models::Tcae& tcae,
    const std::vector<squish::Topology>& existing, int poolSize) {
  if (existing.empty())
    throw std::invalid_argument("encodeSourceLatents: empty library");
  if (poolSize <= 0)
    throw std::invalid_argument("encodeSourceLatents: poolSize must be > 0");
  const int pool =
      std::min<int>(static_cast<int>(existing.size()), poolSize);
  const std::vector<squish::Topology> sources(existing.begin(),
                                              existing.begin() + pool);
  return tcae.encode(
      models::encodeTopologies(sources, tcae.config().inputSize));
}

namespace {

void checkPlanArgs(const char* flow, const nn::Tensor& sourceLatents,
                   long count, int batchSize) {
  if (sourceLatents.dim() != 2 || sourceLatents.size(0) == 0)
    throw std::invalid_argument(std::string(flow) +
                                ": need (pool, latentDim) source latents");
  if (count <= 0)
    throw std::invalid_argument(std::string(flow) + ": count must be > 0");
  if (batchSize <= 0)
    throw std::invalid_argument(std::string(flow) +
                                ": batchSize must be > 0");
}

void copyRows(nn::Tensor& dst, long dstRow, const nn::Tensor& src) {
  const int n = src.size(0);
  const int d = src.size(1);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < d; ++j)
      dst.at(static_cast<int>(dstRow) + i, j) = src.at(i, j);
}

[[nodiscard]] nn::Tensor sliceRows(const nn::Tensor& src, long begin,
                                   int n) {
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] =
      static_cast<int>(begin) + i;
  return models::gatherRows(src, idx);
}

}  // namespace

// Per-request latent planning allocates the whole plan up front;
// amortized over the request, it is off the per-pattern hot loop.
// dp-analyze: cold
LatentPlan planRandomLatents(const nn::Tensor& sourceLatents,
                             const SensitivityAwarePerturber& perturber,
                             long count, int batchSize, Rng& rng) {
  checkPlanArgs("planRandomLatents", sourceLatents, count, batchSize);
  const int pool = sourceLatents.size(0);
  const int latentDim = sourceLatents.size(1);
  LatentPlan plan;
  plan.latents = nn::Tensor({static_cast<int>(count), latentDim});
  plan.noise = nn::Tensor({static_cast<int>(count), latentDim});
  long offset = 0;
  while (offset < count) {
    const int b =
        static_cast<int>(std::min<long>(count - offset, batchSize));
    const auto idx = models::sampleIndices(pool, b, rng);
    nn::Tensor latents = models::gatherRows(sourceLatents, idx);
    const nn::Tensor noise = perturber.sampleBatch(b, rng);
    latents += noise;
    copyRows(plan.latents, offset, latents);
    copyRows(plan.noise, offset, noise);
    offset += b;
  }
  return plan;
}

// dp-analyze: cold  (per-request planning; see planRandomLatents)
LatentPlan planCombineLatents(const nn::Tensor& sourceLatents, long count,
                              int batchSize, int arity, Rng& rng) {
  checkPlanArgs("planCombineLatents", sourceLatents, count, batchSize);
  if (arity < 2)
    throw std::invalid_argument("planCombineLatents: arity must be >= 2");
  const int pool = sourceLatents.size(0);
  const int latentDim = sourceLatents.size(1);
  LatentPlan plan;
  plan.latents = nn::Tensor({static_cast<int>(count), latentDim});
  long offset = 0;
  while (offset < count) {
    const int b =
        static_cast<int>(std::min<long>(count - offset, batchSize));
    for (int row = 0; row < b; ++row) {
      // Random convex weights: uniform draws normalized to sum 1.
      std::vector<double> alpha(static_cast<std::size_t>(arity));
      double total = 0.0;
      for (double& a : alpha) {
        a = rng.uniform(1e-3, 1.0);
        total += a;
      }
      for (int k = 0; k < arity; ++k) {
        const int src = rng.uniformInt(0, pool - 1);
        const double w = alpha[static_cast<std::size_t>(k)] / total;
        for (int c = 0; c < latentDim; ++c)
          plan.latents.at(static_cast<int>(offset) + row, c) +=
              static_cast<float>(w * sourceLatents.at(src, c));
      }
    }
    offset += b;
  }
  return plan;
}

GenerationResult decodeLatentsAndAccount(
    const models::Tcae& tcae, const nn::Tensor& latents,
    const nn::Tensor* perturbations, const drc::TopologyChecker& checker,
    int batchSize) {
  if (batchSize <= 0)
    throw std::invalid_argument(
        "decodeLatentsAndAccount: batchSize must be > 0");
  if (perturbations && perturbations->size(0) != latents.size(0))
    throw std::invalid_argument(
        "decodeLatentsAndAccount: perturbation row count mismatch");
  GenerationResult result;
  const long count = latents.size(0);
  long offset = 0;
  while (offset < count) {
    const int b =
        static_cast<int>(std::min<long>(count - offset, batchSize));
    const nn::Tensor batch = sliceRows(latents, offset, b);
    if (perturbations) {
      const nn::Tensor noise = sliceRows(*perturbations, offset, b);
      accountActivationBatch(tcae.decode(batch), checker, result, &noise);
    } else {
      accountActivationBatch(tcae.decode(batch), checker, result);
    }
    offset += b;
  }
  return result;
}

GenerationResult tcaeRandom(const models::Tcae& tcae,
                            const std::vector<squish::Topology>& existing,
                            const SensitivityAwarePerturber& perturber,
                            const drc::TopologyChecker& checker,
                            const FlowConfig& config, Rng& rng) {
  if (existing.empty())
    throw std::invalid_argument("tcaeRandom: empty existing library");
  const nn::Tensor sourceLatents =
      encodeSourceLatents(tcae, existing, config.sourcePoolSize);
  const LatentPlan plan = planRandomLatents(
      sourceLatents, perturber, config.count, config.batchSize, rng);
  return decodeLatentsAndAccount(
      tcae, plan.latents, config.collectGoodVectors ? &plan.noise : nullptr,
      checker, config.batchSize);
}

GenerationResult tcaeCombine(const models::Tcae& tcae,
                             const std::vector<squish::Topology>& existing,
                             const drc::TopologyChecker& checker,
                             const CombineConfig& config, Rng& rng) {
  if (existing.empty())
    throw std::invalid_argument("tcaeCombine: empty existing library");
  if (config.arity < 2)
    throw std::invalid_argument("tcaeCombine: arity must be >= 2");
  const nn::Tensor sourceLatents =
      encodeSourceLatents(tcae, existing, config.poolSize);
  const LatentPlan plan = planCombineLatents(
      sourceLatents, config.count, config.batchSize, config.arity, rng);
  return decodeLatentsAndAccount(tcae, plan.latents, nullptr, checker,
                                 config.batchSize);
}

GenerationResult evaluateSampler(const TopologySampler& sampler,
                                 const drc::TopologyChecker& checker,
                                 long count, int batchSize, Rng& rng) {
  if (!sampler) throw std::invalid_argument("evaluateSampler: no sampler");
  GenerationResult result;
  long remaining = count;
  while (remaining > 0) {
    const int b = static_cast<int>(std::min<long>(remaining, batchSize));
    accountActivationBatch(sampler(b, rng), checker, result);
    remaining -= b;
  }
  return result;
}

GenerationResult libraryResult(
    const std::vector<squish::Topology>& topologies,
    const drc::TopologyChecker& checker) {
  // Trailing all-zero rows/columns are stripped so pattern identity
  // matches the generated-pattern convention (the zero-padding of the
  // network inputs makes right/top margins indistinguishable from
  // padding; see models::decodeGeneratedTopology). The unpad + legality
  // scan runs sample-parallel; accounting replays in ascending order.
  const long n = static_cast<long>(topologies.size());
  std::vector<squish::Topology> unpadded(static_cast<std::size_t>(n));
  std::vector<char> legal(static_cast<std::size_t>(n), 0);
  dp::parallelFor(n, 16, [&](long i0, long i1) {
    for (long i = i0; i < i1; ++i) {
      const auto k = static_cast<std::size_t>(i);
      unpadded[k] = squish::unpad(topologies[k]);
      legal[k] = checker.isLegal(unpadded[k]) ? 1 : 0;
    }
  });
  GenerationResult result;
  for (std::size_t i = 0; i < unpadded.size(); ++i) {
    ++result.generated;
    if (!legal[i]) continue;
    ++result.legal;
    result.unique.add(unpadded[i]);
  }
  return result;
}

}  // namespace dp::core
