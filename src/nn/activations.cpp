#include "nn/activations.hpp"

#include <cmath>

#include "common/thread_pool.hpp"

namespace dp::nn {

namespace {

// The elementwise loops below are unconditional selects over local
// pointers, which compile to branch-free vector code. Each keeps the
// conditional store's bits exactly: x < 0 is false for -0.0 and NaN,
// so both pass through, as before.

Tensor relu(const Tensor& x) {
  Tensor y(x.shape());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i)
    out[i] = in[i] < 0.0f ? 0.0f : in[i];
  return y;
}

Tensor leakyRelu(const Tensor& x, float slope) {
  Tensor y(x.shape());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i)
    out[i] = in[i] < 0.0f ? in[i] * slope : in[i];
  return y;
}

Tensor reluBackward(const Tensor& gradOut, const Tensor& input) {
  Tensor dx(gradOut.shape());
  const float* __restrict dy = gradOut.data();
  const float* __restrict in = input.data();
  float* __restrict out = dx.data();
  for (std::size_t i = 0; i < dx.numel(); ++i)
    out[i] = in[i] <= 0.0f ? 0.0f : dy[i];
  return dx;
}

Tensor leakyReluBackward(const Tensor& gradOut, const Tensor& input,
                         float slope) {
  Tensor dx(gradOut.shape());
  const float* __restrict dy = gradOut.data();
  const float* __restrict in = input.data();
  float* __restrict out = dx.data();
  for (std::size_t i = 0; i < dx.numel(); ++i)
    out[i] = in[i] <= 0.0f ? dy[i] * slope : dy[i];
  return dx;
}

/// Elementwise logistic function; chunked on the pool by element count
/// only, so every element's bits are independent of DP_THREADS.
Tensor sigmoid(const Tensor& x) {
  Tensor y(x.shape());
  const float* in = x.data();
  float* out = y.data();
  dp::parallelFor(static_cast<long>(x.numel()), kElementwiseGrain,
                  [in, out](long begin, long end) {
                    for (long i = begin; i < end; ++i)
                      out[i] = 1.0f / (1.0f + std::exp(-in[i]));
                  });
  return y;
}

}  // namespace

Tensor ReLU::forward(const Tensor& x, bool /*training*/) {
  input_ = x;
  return relu(x);
}

Tensor ReLU::infer(const Tensor& x) const { return relu(x); }

Tensor ReLU::backward(const Tensor& gradOut) {
  requireSameShape(gradOut, input_, "ReLU::backward");
  return reluBackward(gradOut, input_);
}

Tensor LeakyReLU::forward(const Tensor& x, bool /*training*/) {
  input_ = x;
  return leakyRelu(x, slope_);
}

Tensor LeakyReLU::infer(const Tensor& x) const {
  return leakyRelu(x, slope_);
}

Tensor LeakyReLU::backward(const Tensor& gradOut) {
  requireSameShape(gradOut, input_, "LeakyReLU::backward");
  return leakyReluBackward(gradOut, input_, slope_);
}

Tensor Sigmoid::forward(const Tensor& x, bool /*training*/) {
  Tensor y = sigmoid(x);
  // Copied into output_'s existing buffer, not moved: freeing the old
  // (mmap-sized) buffer every step raises glibc's mmap threshold, which
  // grew peak RSS by ~0.4 MB in every process that trains a TCAE.
  output_ = y;
  return y;
}

Tensor Sigmoid::infer(const Tensor& x) const { return sigmoid(x); }

Tensor Sigmoid::backward(const Tensor& gradOut) {
  requireSameShape(gradOut, output_, "Sigmoid::backward");
  Tensor dx = gradOut;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    dx[i] *= output_[i] * (1.0f - output_[i]);
  return dx;
}

Tensor Tanh::forward(const Tensor& x, bool /*training*/) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(y[i]);
  output_ = y;
  return y;
}

Tensor Tanh::infer(const Tensor& x) const {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(y[i]);
  return y;
}

Tensor Tanh::backward(const Tensor& gradOut) {
  requireSameShape(gradOut, output_, "Tanh::backward");
  Tensor dx = gradOut;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    dx[i] *= 1.0f - output_[i] * output_[i];
  return dx;
}

}  // namespace dp::nn
