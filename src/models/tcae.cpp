#include "models/tcae.hpp"

#include <stdexcept>

#include "common/fp_env.hpp"
#include "models/batch.hpp"
#include "models/topology_codec.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/reshape.hpp"
#include "nn/schedule.hpp"
#include "nn/serialize.hpp"
#include "train/checkpoint.hpp"

namespace dp::models {

using nn::Tensor;

Tcae::Tcae(TcaeConfig config, Rng& rng) : config_(config) {
  const int s = config_.inputSize;
  if (s % 4 != 0)
    throw std::invalid_argument("Tcae: inputSize must be divisible by 4");
  const int s4 = s / 4;  // spatial size after two stride-2 convs
  const int flat = config_.conv2Channels * s4 * s4;

  encoder_.emplace<nn::Conv2d>(1, config_.conv1Channels, 3, 2, 1, rng,
                               config_.convWeightDecay);
  encoder_.emplace<nn::ReLU>();
  encoder_.emplace<nn::Conv2d>(config_.conv1Channels, config_.conv2Channels,
                               3, 2, 1, rng, config_.convWeightDecay);
  encoder_.emplace<nn::ReLU>();
  encoder_.emplace<nn::Flatten>();
  encoder_.emplace<nn::Linear>(flat, config_.hidden, rng,
                               config_.denseWeightDecay);
  encoder_.emplace<nn::ReLU>();
  encoder_.emplace<nn::Linear>(config_.hidden, config_.latentDim, rng,
                               config_.denseWeightDecay);

  decoder_.emplace<nn::Linear>(config_.latentDim, config_.hidden, rng,
                               config_.denseWeightDecay);
  decoder_.emplace<nn::ReLU>();
  decoder_.emplace<nn::Linear>(config_.hidden, flat, rng,
                               config_.denseWeightDecay);
  decoder_.emplace<nn::ReLU>();
  decoder_.emplace<nn::Reshape>(config_.conv2Channels, s4, s4);
  decoder_.emplace<nn::ConvTranspose2d>(config_.conv2Channels,
                                        config_.conv1Channels, 4, 2, 1, rng,
                                        config_.convWeightDecay);
  decoder_.emplace<nn::ReLU>();
  decoder_.emplace<nn::ConvTranspose2d>(config_.conv1Channels, 1, 4, 2, 1,
                                        rng, config_.convWeightDecay);
  decoder_.emplace<nn::Sigmoid>();
}

Tensor Tcae::encode(const Tensor& topologies) const {
  return encoder_.infer(topologies);
}

Tensor Tcae::decode(const Tensor& latents) const {
  return decoder_.infer(latents);
}

Tensor Tcae::reconstruct(const Tensor& topologies) const {
  return decode(encode(topologies));
}

double Tcae::trainStep(const Tensor& batch, nn::Optimizer& opt,
                       train::Harness* guard) {
  opt.zeroGrad();
  double loss = 0.0;
  {
    // Saturated sigmoid cells feed thousands of subnormal gradients
    // back through the deconvolutions, and every multiply that touches
    // one costs a microcode assist. Flushing them (on every pool lane)
    // moves only values below ~1e-20; the update itself runs in default
    // IEEE mode (DESIGN.md §16).
    const FlushSubnormalsScope flush;
    const Tensor latent = encoder_.forward(batch, /*training=*/true);
    const Tensor recon = decoder_.forward(latent, /*training=*/true);
    Tensor grad;
    loss = nn::mseLoss(recon, batch, grad);
    const Tensor gradLatent = decoder_.backward(grad);
    encoder_.backward(gradLatent);
  }
  if (guard)
    guard->guardedStep(opt);
  else
    opt.step();
  return loss;
}

std::uint64_t Tcae::configHash(std::size_t datasetSize) const {
  std::uint64_t h = train::hashInit();
  h = train::hashMix(h, 0x74636165u);  // model tag "tcae"
  h = train::hashMix(h, static_cast<std::uint64_t>(config_.inputSize));
  h = train::hashMix(h, static_cast<std::uint64_t>(config_.latentDim));
  h = train::hashMix(h, static_cast<std::uint64_t>(config_.conv1Channels));
  h = train::hashMix(h, static_cast<std::uint64_t>(config_.conv2Channels));
  h = train::hashMix(h, static_cast<std::uint64_t>(config_.hidden));
  h = train::hashMixDouble(h, config_.convWeightDecay);
  h = train::hashMixDouble(h, config_.denseWeightDecay);
  h = train::hashMixDouble(h, config_.initialLr);
  h = train::hashMixDouble(h, config_.lrDecayFactor);
  h = train::hashMix(h, static_cast<std::uint64_t>(config_.lrDecayEvery));
  h = train::hashMix(h, static_cast<std::uint64_t>(config_.batchSize));
  h = train::hashMix(h, static_cast<std::uint64_t>(datasetSize));
  return h;
}

TrainStats Tcae::train(const std::vector<squish::Topology>& data, Rng& rng) {
  return train(data, rng, train::TrainOptions{});
}

TrainStats Tcae::train(const std::vector<squish::Topology>& data, Rng& rng,
                       const train::TrainOptions& options) {
  if (data.empty()) throw std::invalid_argument("Tcae::train: no data");
  const Tensor dataset = encodeTopologies(data, config_.inputSize);
  nn::Adam opt(params(), config_.initialLr);
  const nn::StepDecaySchedule sched(config_.initialLr,
                                    config_.lrDecayFactor,
                                    config_.lrDecayEvery);
  train::HarnessSpec spec;
  spec.totalSteps = config_.trainSteps;
  spec.lrAt = [&sched](long step) { return sched.lrAt(step); };
  spec.configHash = configHash(data.size());
  spec.samplesPerStep = config_.batchSize;
  spec.datasetSize = static_cast<long>(data.size());
  train::Harness harness(params(), {}, {&opt}, std::move(spec), options);
  const train::HarnessStats hs =
      harness.run(rng, [&](long /*step*/, Rng& r) {
        const auto idx = sampleIndices(static_cast<int>(data.size()),
                                       config_.batchSize, r);
        return trainStep(gatherRows(dataset, idx), opt, &harness);
      });
  TrainStats stats;
  stats.steps = hs.steps;
  stats.finalLoss = hs.finalLoss;
  stats.lossEvery100 = hs.lossTrace;
  stats.resumed = hs.resumed;
  stats.resumedFrom = hs.resumedFrom;
  stats.rollbacks = hs.rollbacks;
  stats.nanEvents = hs.nanEvents;
  stats.checkpointsSaved = hs.checkpointsSaved;
  stats.sealedByStop = hs.sealedByStop;
  return stats;
}

std::vector<nn::Param*> Tcae::params() {
  std::vector<nn::Param*> all = encoder_.params();
  for (nn::Param* p : decoder_.params()) all.push_back(p);
  return all;
}

std::size_t Tcae::parameterCount() {
  std::size_t n = 0;
  for (nn::Param* p : params()) n += p->value.numel();
  return n;
}

void Tcae::save(const std::string& path) { nn::saveParams(params(), path); }

void Tcae::load(const std::string& path) { nn::loadParams(params(), path); }

}  // namespace dp::models
