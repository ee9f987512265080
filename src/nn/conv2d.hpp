#pragma once

/// \file conv2d.hpp
/// 2-D convolution layer over (N,C,H,W) batches, implemented as
/// im2col + GEMM. Square kernels; configurable stride and zero padding.
/// Forward/backward parallelize over the batch dimension; the gradient
/// reduction runs in ascending sample order, so training results are
/// bit-identical at every DP_THREADS setting.

#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace dp::nn {

/// Adds `samples` per-sample gradient rows (`rows`: samples x count,
/// row-major) into `acc` (count elements). Every element sums its rows
/// in ascending sample order, as a serial loop does, so the result is
/// bit-identical at any DP_THREADS; the pool splits the elements. The
/// conv and deconv backward passes reduce their per-sample weight and
/// bias gradients with it.
void addSampleRows(const float* rows, int samples, std::size_t count,
                   float* acc);

class Conv2d final : public Layer {
 public:
  Conv2d(int inChannels, int outChannels, int kernel, int stride, int pad,
         Rng& rng, double weightDecay = 0.0);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor infer(const Tensor& x) const override;
  Tensor backward(const Tensor& gradOut) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "conv2d"; }

  [[nodiscard]] int inChannels() const { return inC_; }
  [[nodiscard]] int outChannels() const { return outC_; }
  [[nodiscard]] int kernel() const { return kernel_; }
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] int pad() const { return pad_; }

  /// Output spatial size for a given input spatial size.
  [[nodiscard]] int outSize(int inSize) const {
    return (inSize + 2 * pad_ - kernel_) / stride_ + 1;
  }

 private:
  int inC_, outC_, kernel_, stride_, pad_;
  Param weight_;  // (outC, inC*K*K)
  Param bias_;    // (outC)
  Tensor input_;  // cached (N,C,H,W)
  Tensor cols_;   // cached im2col buffers (N, colRows*colCols)
  ConvGeom geom_;
};

}  // namespace dp::nn
