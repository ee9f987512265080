#pragma once

/// \file tcae.hpp
/// The Transforming Convolutional Auto-Encoder (paper §III-B, Fig. 4):
///  - recognition unit: stacked conv layers + dense layers mapping a
///    24x24 squish topology to a latent vector l (Eq. 2),
///  - generation unit: dense layers + deconv layers mapping (possibly
///    perturbed) latent vectors back to topology space (Eq. 3).
/// Trained as an identity map with the MSE objective of Eq. (4); all
/// transformations happen at inference time by manipulating l.

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "squish/topology.hpp"
#include "tensor/tensor.hpp"
#include "train/harness.hpp"

namespace dp::models {

/// Architecture and training hyper-parameters. Defaults follow the paper
/// where it is specific (latent length 32, lr 0.001 decayed by 0.7 every
/// 2000 steps, batch 64, Xavier init); channel/hidden widths are sized
/// for CPU training. The paper's L2 coefficients (0.001 conv / 0.01
/// dense) are available via the weight-decay fields but default to 0:
/// with Adam's per-step normalization and this small architecture those
/// values over-regularize and collapse the decoder onto the library
/// mean (verified experimentally; see EXPERIMENTS.md).
struct TcaeConfig {
  int inputSize = 24;
  int latentDim = 32;
  int conv1Channels = 8;
  int conv2Channels = 16;
  int hidden = 96;
  double convWeightDecay = 0.0;
  double denseWeightDecay = 0.0;
  double initialLr = 1e-3;
  double lrDecayFactor = 0.7;
  long lrDecayEvery = 2000;
  long trainSteps = 1500;
  int batchSize = 64;
};

/// Loss trace and robustness counters of one training run.
struct TrainStats {
  long steps = 0;
  double finalLoss = 0.0;
  std::vector<double> lossEvery100;
  bool resumed = false;      ///< continued from a checkpoint directory
  long resumedFrom = 0;      ///< step the resume started at
  int rollbacks = 0;         ///< divergence rollbacks taken
  long nanEvents = 0;        ///< non-finite loss/grad detections
  long checkpointsSaved = 0;
  bool sealedByStop = false; ///< a stop request sealed the run early
};

class Tcae {
 public:
  Tcae(TcaeConfig config, Rng& rng);

  [[nodiscard]] const TcaeConfig& config() const { return config_; }

  /// The generation unit's layer stack, for read-only inspection (the
  /// fused decode route prepacks its weights at bundle-build time).
  [[nodiscard]] const nn::Sequential& decoder() const { return decoder_; }

  /// Both layer stacks, for drivers that step the layers one at a time
  /// (bench/train_step_bench times each layer; the train suite runs an
  /// unflushed reference step against trainStep).
  [[nodiscard]] nn::Sequential& encoder() { return encoder_; }
  [[nodiscard]] nn::Sequential& decoder() { return decoder_; }

  /// Recognition unit f: (N,1,S,S) -> (N, latentDim) (Eq. 2).
  /// Stateless inference — safe to call concurrently on a shared model.
  [[nodiscard]] nn::Tensor encode(const nn::Tensor& topologies) const;

  /// Generation unit g: (N, latentDim) -> (N,1,S,S) in [0,1] (Eq. 3).
  /// Stateless inference — safe to call concurrently on a shared model.
  [[nodiscard]] nn::Tensor decode(const nn::Tensor& latents) const;

  /// g(f(x)) — the identity map the model is trained for.
  [[nodiscard]] nn::Tensor reconstruct(const nn::Tensor& topologies) const;

  /// Trains the identity mapping (Eq. 4) on the given topology set with
  /// mini-batch Adam and the paper's staircase lr decay. Deterministic
  /// given `rng`. Runs on the train::Harness; `options` control
  /// checkpointing, resume, and the divergence guards (the default
  /// options keep the sentinels on and disk checkpointing off, and the
  /// loop matches the pre-harness behavior bit for bit).
  TrainStats train(const std::vector<squish::Topology>& data, Rng& rng,
                   const train::TrainOptions& options);
  TrainStats train(const std::vector<squish::Topology>& data, Rng& rng);

  /// One optimization step on an encoded batch; returns the MSE loss.
  /// The forward, loss and backward passes run with subnormals flushed
  /// to zero on every pool lane (FlushSubnormalsScope); the update runs
  /// in default IEEE mode. With `guard` set, the update goes through
  /// Harness::guardedStep (gradient sentinels + clipping).
  double trainStep(const nn::Tensor& batch, nn::Optimizer& opt,
                   train::Harness* guard = nullptr);

  /// Identity of (architecture, hyper-parameters, dataset size) for
  /// checkpoint resume validation. Excludes trainSteps so a finished
  /// run can be extended.
  [[nodiscard]] std::uint64_t configHash(std::size_t datasetSize) const;

  [[nodiscard]] std::vector<nn::Param*> params();
  [[nodiscard]] std::size_t parameterCount();

  void save(const std::string& path);
  void load(const std::string& path);

 private:
  TcaeConfig config_;
  nn::Sequential encoder_;
  nn::Sequential decoder_;
};

}  // namespace dp::models
