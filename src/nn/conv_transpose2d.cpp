#include "nn/conv_transpose2d.hpp"

#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace dp::nn {

namespace {

/// Deconvolves one sample: GEMM (packed kernel layer, transA path —
/// transposition is absorbed by the A-panel packing) with the weights
/// into `cols`, col2im and bias add into `y` (the sample's (outC,
/// oh*ow) output plane).
void deconvSample(const ConvGeom& geom, int inC, const float* weights,
                  const float* bias, const float* x, float* cols,
                  float* y) {
  const int cr = geom.colRows();  // outC*K*K
  const int cc = geom.colCols();  // h*w
  // cols (cr, cc) = W^T (cr, inC) * x_s (inC, cc)
  gemm(true, false, cr, cc, inC, 1.0f, weights, cr, x, cc, 0.0f, cols, cc);
  col2im(geom, cols, y);
  const int planeOut = geom.height * geom.width;
  for (int c = 0; c < geom.channels; ++c) {
    float* plane = y + static_cast<std::size_t>(c) * planeOut;
    const float b = bias[c];
    for (int i = 0; i < planeOut; ++i) plane[i] += b;
  }
}

}  // namespace

ConvTranspose2d::ConvTranspose2d(int inChannels, int outChannels,
                                 int kernel, int stride, int pad, Rng& rng,
                                 double weightDecay)
    : inC_(inChannels), outC_(outChannels), kernel_(kernel),
      stride_(stride), pad_(pad),
      weight_(Tensor::zeros({inChannels, outChannels * kernel * kernel}),
              weightDecay),
      bias_(Tensor::zeros({outChannels})) {
  if (inChannels <= 0 || outChannels <= 0 || kernel <= 0 || stride <= 0 ||
      pad < 0)
    throw std::invalid_argument("ConvTranspose2d: bad configuration");
  xavierUniform(weight_.value, inChannels * kernel * kernel,
                outChannels * kernel * kernel, rng);
}

Tensor ConvTranspose2d::forward(const Tensor& x, bool /*training*/) {
  if (x.dim() != 4 || x.size(1) != inC_)
    throw std::invalid_argument("ConvTranspose2d::forward: bad input " +
                                x.shapeString());
  const int n = x.size(0);
  const int h = x.size(2);
  const int w = x.size(3);
  const int oh = outSize(h);
  const int ow = outSize(w);
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("ConvTranspose2d::forward: input too small");
  input_ = x;
  // Adjoint conv maps the (outC, oh, ow) image down to (h, w).
  geom_ = ConvGeom{outC_, oh, ow, kernel_, stride_, pad_};
  const int cr = geom_.colRows();   // outC*K*K
  const int cc = geom_.colCols();   // h*w

  Tensor y({n, outC_, oh, ow});
  const std::size_t planeIn = static_cast<std::size_t>(inC_) * h * w;
  const std::size_t planeOut = static_cast<std::size_t>(outC_) * oh * ow;
  dp::parallelFor(n, 1, [&](long s0, long s1) {
    std::vector<float> cols(static_cast<std::size_t>(cr) * cc);
    for (long s = s0; s < s1; ++s) {
      deconvSample(geom_, inC_, weight_.value.data(), bias_.value.data(),
                   x.data() + static_cast<std::size_t>(s) * planeIn,
                   cols.data(),
                   y.data() + static_cast<std::size_t>(s) * planeOut);
    }
  });
  return y;
}

Tensor ConvTranspose2d::infer(const Tensor& x) const {
  if (x.dim() != 4 || x.size(1) != inC_)
    throw std::invalid_argument("ConvTranspose2d::infer: bad input " +
                                x.shapeString());
  const int n = x.size(0);
  const int h = x.size(2);
  const int w = x.size(3);
  const int oh = outSize(h);
  const int ow = outSize(w);
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("ConvTranspose2d::infer: input too small");
  const ConvGeom geom{outC_, oh, ow, kernel_, stride_, pad_};
  const int cr = geom.colRows();
  const int cc = geom.colCols();
  Tensor y({n, outC_, oh, ow});
  const std::size_t planeIn = static_cast<std::size_t>(inC_) * h * w;
  const std::size_t planeOut = static_cast<std::size_t>(outC_) * oh * ow;
  dp::parallelFor(n, 1, [&](long s0, long s1) {
    std::vector<float> cols(static_cast<std::size_t>(cr) * cc);
    for (long s = s0; s < s1; ++s) {
      deconvSample(geom, inC_, weight_.value.data(), bias_.value.data(),
                   x.data() + static_cast<std::size_t>(s) * planeIn,
                   cols.data(),
                   y.data() + static_cast<std::size_t>(s) * planeOut);
    }
  });
  return y;
}

Tensor ConvTranspose2d::backward(const Tensor& gradOut) {
  const int n = input_.size(0);
  const int h = input_.size(2);
  const int w = input_.size(3);
  const int oh = geom_.height;
  const int ow = geom_.width;
  if (gradOut.dim() != 4 || gradOut.size(0) != n ||
      gradOut.size(1) != outC_ || gradOut.size(2) != oh ||
      gradOut.size(3) != ow)
    throw std::invalid_argument("ConvTranspose2d::backward: bad shape");

  const int cr = geom_.colRows();
  const int cc = geom_.colCols();  // == h*w
  Tensor dx(input_.shape());
  const std::size_t planeIn = static_cast<std::size_t>(inC_) * h * w;
  const std::size_t planeOut = static_cast<std::size_t>(outC_) * oh * ow;

  // Per-sample gradient buffers reduced in ascending sample order (see
  // Conv2d::backward).
  const std::size_t wN = weight_.grad.numel();
  std::vector<float> dw(static_cast<std::size_t>(n) * wN, 0.0f);
  std::vector<float> db(static_cast<std::size_t>(n) * outC_, 0.0f);

  dp::parallelFor(n, 1, [&](long s0, long s1) {
    std::vector<float> cols(static_cast<std::size_t>(cr) * cc);
    for (long s = s0; s < s1; ++s) {
      const float* dy =
          gradOut.data() + static_cast<std::size_t>(s) * planeOut;
      im2col(geom_, dy, cols.data());
      // dx_s (inC, cc) = W (inC, cr) * cols (cr, cc)
      gemm(false, false, inC_, cc, cr, 1.0f, weight_.value.data(), cr,
           cols.data(), cc, 0.0f,
           dx.data() + static_cast<std::size_t>(s) * planeIn, cc);
      // dW_s (inC, cr) = x_s (inC, cc) * cols^T (cc, cr)
      gemm(false, true, inC_, cr, cc, 1.0f,
           input_.data() + static_cast<std::size_t>(s) * planeIn, cc,
           cols.data(), cc, 0.0f,
           dw.data() + static_cast<std::size_t>(s) * wN, cr);
      for (int c = 0; c < outC_; ++c) {
        const float* plane = dy + static_cast<std::size_t>(c) * oh * ow;
        float acc = 0.0f;
        for (int i = 0; i < oh * ow; ++i) acc += plane[i];
        db[static_cast<std::size_t>(s) * outC_ + c] = acc;
      }
    }
  });

  addSampleRows(dw.data(), n, wN, weight_.grad.data());
  addSampleRows(db.data(), n, static_cast<std::size_t>(outC_),
                bias_.grad.data());
  return dx;
}

}  // namespace dp::nn
