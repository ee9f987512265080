#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace dp::nn {

Optimizer::Optimizer(std::vector<Param*> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  for (Param* p : params_)
    if (!p) throw std::invalid_argument("Optimizer: null parameter");
}

void Optimizer::zeroGrad() {
  for (Param* p : params_) p->grad.zero();
}

Sgd::Sgd(std::vector<Param*> params, double lr, double momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Param* p : params_) velocity_.push_back(Tensor::zeros(p->value.shape()));
}

std::vector<Tensor*> Sgd::state() {
  std::vector<Tensor*> out;
  out.reserve(velocity_.size());
  for (Tensor& v : velocity_) out.push_back(&v);
  return out;
}

void Sgd::step() {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    Tensor& vel = velocity_[k];
    for (std::size_t i = 0; i < p.value.numel(); ++i) {
      const double g = effectiveGrad(p, i);
      const double v = momentum_ * vel[i] - lr_ * g;
      vel[i] = static_cast<float>(v);
      p.value[i] += static_cast<float>(v);
    }
  }
}

Adam::Adam(std::vector<Param*> params, double lr, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params), lr), beta1_(beta1), beta2_(beta2),
      eps_(eps), stepState_(Tensor::zeros({1})) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.push_back(Tensor::zeros(p->value.shape()));
    v_.push_back(Tensor::zeros(p->value.shape()));
  }
}

std::vector<Tensor*> Adam::state() {
  std::vector<Tensor*> out;
  out.reserve(1 + m_.size() + v_.size());
  out.push_back(&stepState_);
  for (Tensor& m : m_) out.push_back(&m);
  for (Tensor& v : v_) out.push_back(&v);
  return out;
}

void Adam::loadState() {
  t_ = std::lround(static_cast<double>(stepState_[0]));
  if (t_ < 0)
    throw std::runtime_error("Adam::loadState: negative step count");
}

void Adam::step() {
  ++t_;
  stepState_[0] = static_cast<float>(t_);
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double beta1 = beta1_, beta2 = beta2_, lr = lr_, eps = eps_;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    Tensor& m = m_[k];
    Tensor& v = v_[k];
    // Elementwise, so no scalar's bits depend on the chunking; the
    // formula is effectiveGrad's and the serial loop's.
    dp::parallelFor(
        static_cast<long>(p.value.numel()), kElementwiseGrain,
        [&](long begin, long end) {
          float* __restrict w = p.value.data();
          const float* __restrict gr = p.grad.data();
          float* __restrict pm = m.data();
          float* __restrict pv = v.data();
          const double decay = p.weightDecay;
          for (long i = begin; i < end; ++i) {
            const double g = gr[i] + decay * w[i];
            const double mi = beta1 * pm[i] + (1.0 - beta1) * g;
            const double vi = beta2 * pv[i] + (1.0 - beta2) * g * g;
            pm[i] = static_cast<float>(mi);
            pv[i] = static_cast<float>(vi);
            const double mhat = mi / bc1;
            const double vhat = vi / bc2;
            w[i] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + eps));
          }
        });
  }
}

}  // namespace dp::nn
