#pragma once

/// \file layer.hpp
/// Layer abstraction of the neural-network substrate. Layers are
/// stateful value objects: forward() caches whatever backward() needs,
/// so a layer instance serves exactly one in-flight forward/backward
/// pair (standard mini-batch training).

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dp::nn {

/// One trainable parameter: value, gradient accumulator and the L2
/// regularization coefficient applied by optimizers (the paper uses
/// different coefficients for conv and dense layers, §IV-A).
struct Param {
  Tensor value;
  Tensor grad;
  double weightDecay = 0.0;

  explicit Param(Tensor v, double wd = 0.0)
      : value(std::move(v)), grad(Tensor::zeros(value.shape())),
        weightDecay(wd) {}
};

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `training` toggles train-time behaviour
  /// (batch-norm statistics). Caches activations for backward().
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Inference-only counterpart of forward(x, /*training=*/false): same
  /// output, but touches no cached state, so a shared layer (or model)
  /// can run infer() from many threads at once. The parallel generation
  /// and sensitivity flows rely on this.
  [[nodiscard]] virtual Tensor infer(const Tensor& x) const = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must be called after a matching forward().
  virtual Tensor backward(const Tensor& gradOut) = 0;

  /// Trainable parameters (empty for activations and reshapes).
  virtual std::vector<Param*> params() { return {}; }

  /// Persistent non-trainable state that checkpoints must carry to
  /// reproduce inference (batch-norm running statistics). Empty for
  /// stateless layers; backward caches do NOT belong here.
  virtual std::vector<Tensor*> state() { return {}; }

  /// Short human-readable layer name for diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Chunk size of the elementwise parallelFor loops (Sigmoid, Adam). A
/// constant, so chunk boundaries depend on the element count only.
inline constexpr long kElementwiseGrain = 8192;

}  // namespace dp::nn
