#include "nn/conv2d.hpp"

#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/init.hpp"
#include "tensor/conv_direct.hpp"
#include "tensor/gemm.hpp"

namespace dp::nn {

namespace {

/// Convolves one sample: im2col into `cols`, GEMM with the weights and
/// bias add into `y` (the sample's (outC, oh*ow) output plane).
void convSample(const ConvGeom& geom, int outC, const float* weights,
                const float* bias, const float* image, float* cols,
                float* y) {
  const int cr = geom.colRows();
  const int cc = geom.colCols();
  im2col(geom, image, cols);
  // y_s (outC, cc) = W (outC, cr) * cols (cr, cc)
  gemm(false, false, outC, cc, cr, 1.0f, weights, cr, cols, cc, 0.0f, y,
       cc);
  for (int c = 0; c < outC; ++c) {
    float* plane = y + static_cast<std::size_t>(c) * cc;
    const float b = bias[c];
    for (int i = 0; i < cc; ++i) plane[i] += b;
  }
}

}  // namespace

void addSampleRows(const float* rows, int samples, std::size_t count,
                   float* acc) {
  constexpr long kGrain = 256;  // elements per chunk
  dp::parallelFor(static_cast<long>(count), kGrain, [&](long begin,
                                                        long end) {
    float* __restrict sum = acc + begin;
    for (int s = 0; s < samples; ++s) {
      const float* __restrict row =
          rows + static_cast<std::size_t>(s) * count + begin;
      for (long e = 0; e < end - begin; ++e) sum[e] += row[e];
    }
  });
}

Conv2d::Conv2d(int inChannels, int outChannels, int kernel, int stride,
               int pad, Rng& rng, double weightDecay)
    : inC_(inChannels), outC_(outChannels), kernel_(kernel),
      stride_(stride), pad_(pad),
      weight_(Tensor::zeros({outChannels, inChannels * kernel * kernel}),
              weightDecay),
      bias_(Tensor::zeros({outChannels})) {
  if (inChannels <= 0 || outChannels <= 0 || kernel <= 0 || stride <= 0 ||
      pad < 0)
    throw std::invalid_argument("Conv2d: bad configuration");
  xavierUniform(weight_.value, inChannels * kernel * kernel,
                outChannels * kernel * kernel, rng);
}

Tensor Conv2d::forward(const Tensor& x, bool /*training*/) {
  if (x.dim() != 4 || x.size(1) != inC_)
    throw std::invalid_argument("Conv2d::forward: bad input " +
                                x.shapeString());
  const int n = x.size(0);
  geom_ = ConvGeom{inC_, x.size(2), x.size(3), kernel_, stride_, pad_};
  const int oh = geom_.outHeight();
  const int ow = geom_.outWidth();
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("Conv2d::forward: input too small");
  input_ = x;
  const int cr = geom_.colRows();
  const int cc = geom_.colCols();
  cols_ = Tensor({n, cr * cc});

  Tensor y({n, outC_, oh, ow});
  const std::size_t planeIn =
      static_cast<std::size_t>(inC_) * geom_.height * geom_.width;
  const std::size_t planeOut = static_cast<std::size_t>(outC_) * oh * ow;
  // Every sample owns its slice of cols_ and y: race-free by layout.
  dp::parallelFor(n, 1, [&](long s0, long s1) {
    for (long s = s0; s < s1; ++s) {
      convSample(geom_, outC_, weight_.value.data(), bias_.value.data(),
                 x.data() + static_cast<std::size_t>(s) * planeIn,
                 cols_.data() + static_cast<std::size_t>(s) * cr * cc,
                 y.data() + static_cast<std::size_t>(s) * planeOut);
    }
  });
  return y;
}

Tensor Conv2d::infer(const Tensor& x) const {
  if (x.dim() != 4 || x.size(1) != inC_)
    throw std::invalid_argument("Conv2d::infer: bad input " +
                                x.shapeString());
  const int n = x.size(0);
  const ConvGeom geom{inC_, x.size(2), x.size(3), kernel_, stride_, pad_};
  const int oh = geom.outHeight();
  const int ow = geom.outWidth();
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("Conv2d::infer: input too small");
  const int cr = geom.colRows();
  const int cc = geom.colCols();
  Tensor y({n, outC_, oh, ow});
  const std::size_t planeIn =
      static_cast<std::size_t>(inC_) * geom.height * geom.width;
  const std::size_t planeOut = static_cast<std::size_t>(outC_) * oh * ow;
  // Single-channel inputs (the TCAE squish-topology shape) skip im2col
  // on the inference path: no cols scratch is needed here because
  // infer() never backpropagates. forward() keeps the im2col route —
  // backward() consumes the stored column matrix for dW.
  if (convDirectApplicable(geom)) {
    dp::parallelFor(n, 1, [&](long s0, long s1) {
      for (long s = s0; s < s1; ++s) {
        convDirect(geom, outC_, weight_.value.data(), bias_.value.data(),
                   x.data() + static_cast<std::size_t>(s) * planeIn,
                   y.data() + static_cast<std::size_t>(s) * planeOut);
      }
    });
    return y;
  }
  dp::parallelFor(n, 1, [&](long s0, long s1) {
    std::vector<float> cols(static_cast<std::size_t>(cr) * cc);
    for (long s = s0; s < s1; ++s) {
      convSample(geom, outC_, weight_.value.data(), bias_.value.data(),
                 x.data() + static_cast<std::size_t>(s) * planeIn,
                 cols.data(),
                 y.data() + static_cast<std::size_t>(s) * planeOut);
    }
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& gradOut) {
  const int n = input_.size(0);
  const int oh = geom_.outHeight();
  const int ow = geom_.outWidth();
  if (gradOut.dim() != 4 || gradOut.size(0) != n ||
      gradOut.size(1) != outC_ || gradOut.size(2) != oh ||
      gradOut.size(3) != ow)
    throw std::invalid_argument("Conv2d::backward: bad gradient shape");

  const int cr = geom_.colRows();
  const int cc = geom_.colCols();
  Tensor dx(input_.shape());
  const std::size_t planeIn =
      static_cast<std::size_t>(inC_) * geom_.height * geom_.width;
  const std::size_t planeOut = static_cast<std::size_t>(outC_) * oh * ow;

  // Per-sample gradient buffers, reduced below in ascending sample
  // order — the same accumulation sequence as a serial loop, so weight
  // gradients are bit-identical at any thread count.
  const std::size_t wN = weight_.grad.numel();
  std::vector<float> dw(static_cast<std::size_t>(n) * wN, 0.0f);
  std::vector<float> db(static_cast<std::size_t>(n) * outC_, 0.0f);

  dp::parallelFor(n, 1, [&](long s0, long s1) {
    std::vector<float> dcols(static_cast<std::size_t>(cr) * cc);
    for (long s = s0; s < s1; ++s) {
      const float* dy = gradOut.data() + static_cast<std::size_t>(s) * planeOut;
      const float* cols =
          cols_.data() + static_cast<std::size_t>(s) * cr * cc;
      // dW_s (outC, cr) = dy (outC, cc) * cols^T (cc, cr)
      gemm(false, true, outC_, cr, cc, 1.0f, dy, cc, cols, cc, 0.0f,
           dw.data() + static_cast<std::size_t>(s) * wN, cr);
      // dcols (cr, cc) = W^T (cr, outC) * dy (outC, cc)
      gemm(true, false, cr, cc, outC_, 1.0f, weight_.value.data(), cr, dy,
           cc, 0.0f, dcols.data(), cc);
      col2im(geom_, dcols.data(),
             dx.data() + static_cast<std::size_t>(s) * planeIn);
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
