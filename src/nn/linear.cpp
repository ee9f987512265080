#include "nn/linear.hpp"

#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace dp::nn {

Linear::Linear(int inFeatures, int outFeatures, Rng& rng,
               double weightDecay)
    : in_(inFeatures), out_(outFeatures),
      weight_(Tensor::zeros({outFeatures, inFeatures}), weightDecay),
      bias_(Tensor::zeros({outFeatures})) {
  if (inFeatures <= 0 || outFeatures <= 0)
    throw std::invalid_argument("Linear: features must be positive");
  xavierUniform(weight_.value, in_, out_, rng);
}

Tensor Linear::forward(const Tensor& x, bool /*training*/) {
  if (x.dim() != 2 || x.size(1) != in_)
    throw std::invalid_argument("Linear::forward: expected (N," +
                                std::to_string(in_) + "), got " +
                                x.shapeString());
  input_ = x;
  const int n = x.size(0);
  Tensor y({n, out_});
  // y = x (N,in) * W^T (in,out) via the packed kernel layer.
  gemm(false, true, n, out_, in_, 1.0f, x.data(), in_,
       weight_.value.data(), in_, 0.0f, y.data(), out_);
  const float* b = bias_.value.data();
  for (int i = 0; i < n; ++i) {
    float* row = y.data() + static_cast<std::size_t>(i) * out_;
    for (int j = 0; j < out_; ++j) row[j] += b[j];
  }
  return y;
}

Tensor Linear::infer(const Tensor& x) const {
  if (x.dim() != 2 || x.size(1) != in_)
    throw std::invalid_argument("Linear::infer: expected (N," +
                                std::to_string(in_) + "), got " +
                                x.shapeString());
  const int n = x.size(0);
  Tensor y({n, out_});
  gemm(false, true, n, out_, in_, 1.0f, x.data(), in_,
       weight_.value.data(), in_, 0.0f, y.data(), out_);
  const float* b = bias_.value.data();
  for (int i = 0; i < n; ++i) {
    float* row = y.data() + static_cast<std::size_t>(i) * out_;
    for (int j = 0; j < out_; ++j) row[j] += b[j];
  }
  return y;
}

Tensor Linear::backward(const Tensor& gradOut) {
  const int n = input_.size(0);
  if (gradOut.dim() != 2 || gradOut.size(0) != n || gradOut.size(1) != out_)
    throw std::invalid_argument("Linear::backward: bad gradient shape");
  // dW += dy^T (out,N) * x (N,in)
  gemm(true, false, out_, in_, n, 1.0f, gradOut.data(), out_,
       input_.data(), in_, 1.0f, weight_.grad.data(), in_);
  float* __restrict db = bias_.grad.data();
  for (int i = 0; i < n; ++i) {
    const float* __restrict dy =
        gradOut.data() + static_cast<std::size_t>(i) * out_;
    for (int j = 0; j < out_; ++j) db[j] += dy[j];
  }
  // dx = dy (N,out) * W (out,in)
  Tensor dx({n, in_});
  gemm(false, false, n, in_, out_, 1.0f, gradOut.data(), out_,
       weight_.value.data(), in_, 0.0f, dx.data(), in_);
  return dx;
}

}  // namespace dp::nn
