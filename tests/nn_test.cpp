#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/reshape.hpp"
#include "nn/schedule.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "testutil.hpp"

namespace dp::nn {
namespace {

using dp::test::gradCheck;

constexpr double kGradTol = 5e-2;  // float math + finite differences

// ----------------------------------------------------------- GradChecks

TEST(GradCheck, Linear) {
  dp::Rng rng(1);
  Linear layer(6, 4, rng);
  const Tensor x = Tensor::randn({3, 6}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), kGradTol);
}

TEST(GradCheck, Conv2dStride1) {
  dp::Rng rng(2);
  Conv2d layer(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), kGradTol);
}

TEST(GradCheck, Conv2dStride2) {
  dp::Rng rng(3);
  Conv2d layer(1, 2, 3, 2, 1, rng);
  const Tensor x = Tensor::randn({2, 1, 8, 8}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), kGradTol);
}

TEST(GradCheck, ConvTranspose2dStride2) {
  dp::Rng rng(4);
  ConvTranspose2d layer(2, 1, 4, 2, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), kGradTol);
}

TEST(GradCheck, ConvTranspose2dStride1) {
  dp::Rng rng(5);
  ConvTranspose2d layer(1, 2, 3, 1, 0, rng);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), kGradTol);
}

TEST(GradCheck, ConvTranspose2dStride3) {
  // Stride 3 with no padding: output pixels come from non-overlapping
  // kernel placements, a different col2im scatter pattern than the
  // overlapping stride-2 case above.
  dp::Rng rng(12);
  ConvTranspose2d layer(2, 3, 3, 3, 0, rng);
  const Tensor x = Tensor::randn({2, 2, 3, 3}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), kGradTol);
}

TEST(GradCheck, Activations) {
  dp::Rng rng(6);
  // Keep inputs away from 0: finite differences straddling the ReLU /
  // LeakyReLU kink would disagree with the (one-sided) analytic grad.
  Tensor x = Tensor::randn({4, 7}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] += x[i] >= 0.0f ? 0.1f : -0.1f;
  {
    ReLU l;
    EXPECT_LT(gradCheck(l, x, rng), kGradTol);
  }
  {
    LeakyReLU l(0.2f);
    EXPECT_LT(gradCheck(l, x, rng), kGradTol);
  }
  {
    Sigmoid l;
    EXPECT_LT(gradCheck(l, x, rng), kGradTol);
  }
  {
    Tanh l;
    EXPECT_LT(gradCheck(l, x, rng), kGradTol);
  }
}

// ReLU and LeakyReLU against the conditional-store loops they replaced,
// bit for bit, on mixed-sign data plus -0.0, +0.0, NaN and infinities.
TEST(Activations, ReluFamilyMatchesConditionalStoresBitForBit) {
  dp::Rng rng(14);
  Tensor x = Tensor::randn({3, 40}, rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float edges[] = {-0.0f, 0.0f, std::nanf(""), -inf, inf, -1e-40f};
  for (std::size_t i = 0; i < std::size(edges); ++i) x[i] = edges[i];
  Tensor dy = Tensor::randn({3, 40}, rng);
  dy[0] = -1.0f;
  dy[1] = -0.0f;
  dy[2] = std::nanf("");
  for (const float slope : {0.0f, 0.2f}) {
    SCOPED_TRACE("slope=" + std::to_string(slope));
    Tensor y = x;
    Tensor dx = dy;
    for (std::size_t i = 0; i < x.numel(); ++i) {
      if (slope == 0.0f) {
        if (y[i] < 0.0f) y[i] = 0.0f;
        if (x[i] <= 0.0f) dx[i] = 0.0f;
      } else {
        if (y[i] < 0.0f) y[i] *= slope;
        if (x[i] <= 0.0f) dx[i] *= slope;
      }
    }
    std::unique_ptr<Layer> layer;
    if (slope == 0.0f)
      layer = std::make_unique<ReLU>();
    else
      layer = std::make_unique<LeakyReLU>(slope);
    EXPECT_TRUE(dp::test::tensorsBitEqual(layer->infer(x), y));
    EXPECT_TRUE(dp::test::tensorsBitEqual(layer->forward(x, true), y));
    EXPECT_TRUE(dp::test::tensorsBitEqual(layer->backward(dy), dx));
  }
}

TEST(GradCheck, BatchNorm1d) {
  dp::Rng rng(7);
  BatchNorm1d layer(5);
  const Tensor x = Tensor::randn({8, 5}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), 1e-1);
}

TEST(GradCheck, BatchNorm1dTrainingInsideNetwork) {
  // Training mode inside a composite: the batch statistics couple every
  // sample, so dL/dx flows through the mean/variance terms as well as
  // the straight-through path.
  dp::Rng rng(13);
  Sequential net;
  net.emplace<Linear>(6, 5, rng);
  net.emplace<BatchNorm1d>(5);
  net.emplace<Tanh>();
  const Tensor x = Tensor::randn({8, 6}, rng);
  EXPECT_LT(gradCheck(net, x, rng), 1e-1);
}

TEST(GradCheck, SequentialComposite) {
  dp::Rng rng(8);
  Sequential net;
  net.emplace<Linear>(6, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 3, rng);
  net.emplace<Tanh>();
  const Tensor x = Tensor::randn({3, 6}, rng);
  // Looser bound than single layers: hidden pre-activations can land
  // within eps of the ReLU kink, where central differences disagree
  // with the one-sided analytic gradient.
  EXPECT_LT(gradCheck(net, x, rng), 1e-1);
}

TEST(GradCheck, ConvDeconvComposite) {
  dp::Rng rng(9);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 2, 1, rng);
  net.emplace<ReLU>();
  net.emplace<ConvTranspose2d>(2, 1, 4, 2, 1, rng);
  net.emplace<Sigmoid>();
  const Tensor x = Tensor::randn({2, 1, 6, 6}, rng);
  EXPECT_LT(gradCheck(net, x, rng), kGradTol);
}

/// Gradient-check sweep over convolution configurations (kernel,
/// stride, pad) for both Conv2d and its transpose.
class ConvGradSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvGradSweep, Conv2dMatchesNumericGradient) {
  const auto [kernel, stride, pad] = GetParam();
  dp::Rng rng(31);
  Conv2d layer(2, 2, kernel, stride, pad, rng);
  const Tensor x = Tensor::randn({1, 2, 8, 8}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), kGradTol);
}

TEST_P(ConvGradSweep, ConvTranspose2dMatchesNumericGradient) {
  const auto [kernel, stride, pad] = GetParam();
  if ((4 - 1) * stride - 2 * pad + kernel <= 0) GTEST_SKIP();
  dp::Rng rng(32);
  ConvTranspose2d layer(2, 2, kernel, stride, pad, rng);
  const Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  EXPECT_LT(gradCheck(layer, x, rng), kGradTol);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvGradSweep,
    ::testing::Values(std::tuple{1, 1, 0}, std::tuple{3, 1, 1},
                      std::tuple{3, 2, 1}, std::tuple{4, 2, 1},
                      std::tuple{5, 1, 2}, std::tuple{3, 1, 0}));

// ----------------------------------------------------------- Shapes/API

TEST(Linear, ForwardShapeAndBias) {
  dp::Rng rng(1);
  Linear layer(3, 2, rng);
  layer.weight().value.zero();
  layer.bias().value[0] = 1.5f;
  layer.bias().value[1] = -2.0f;
  const Tensor y = layer.forward(Tensor::zeros({4, 3}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{4, 2}));
  EXPECT_EQ(y.at(3, 0), 1.5f);
  EXPECT_EQ(y.at(0, 1), -2.0f);
}

TEST(Linear, RejectsBadInput) {
  dp::Rng rng(1);
  Linear layer(3, 2, rng);
  EXPECT_THROW(layer.forward(Tensor::zeros({4, 5}), false),
               std::invalid_argument);
  EXPECT_THROW(Linear(0, 2, rng), std::invalid_argument);
}

TEST(Conv2d, OutputGeometry) {
  dp::Rng rng(1);
  Conv2d layer(1, 4, 3, 2, 1, rng);
  EXPECT_EQ(layer.outSize(24), 12);
  const Tensor y = layer.forward(Tensor::zeros({2, 1, 24, 24}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 4, 12, 12}));
}

TEST(Conv2d, KnownConvolutionValue) {
  dp::Rng rng(1);
  Conv2d layer(1, 1, 3, 1, 0, rng);
  layer.params()[0]->value.fill(1.0f);  // all-ones kernel
  layer.params()[1]->value.zero();
  Tensor x = Tensor::full({1, 1, 3, 3}, 2.0f);
  const Tensor y = layer.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_NEAR(y[0], 18.0f, 1e-5);
}

TEST(ConvTranspose2d, OutputGeometryDoubles) {
  dp::Rng rng(1);
  ConvTranspose2d layer(3, 1, 4, 2, 1, rng);
  EXPECT_EQ(layer.outSize(6), 12);
  EXPECT_EQ(layer.outSize(12), 24);
  const Tensor y = layer.forward(Tensor::zeros({1, 3, 6, 6}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 12, 12}));
}

TEST(ConvTranspose2d, IsAdjointOfConv) {
  // <conv(x), y> == <x, deconv(y)> when they share weights (zero bias).
  dp::Rng rng(10);
  Conv2d conv(2, 3, 3, 2, 1, rng);
  ConvTranspose2d deconv(3, 2, 3, 2, 1, rng);
  // Copy conv weight (3, 2*3*3) into deconv weight (3, 2*3*3): layouts
  // match because deconv stores (inC=3, outC*K*K=2*9).
  deconv.params()[0]->value = conv.params()[0]->value;
  conv.params()[1]->value.zero();
  deconv.params()[1]->value.zero();

  // Sizes chosen so the pair is exactly adjoint: conv maps 7x7 -> 4x4
  // and the transposed conv maps 4x4 -> 7x7.
  const Tensor x = Tensor::randn({1, 2, 7, 7}, rng);
  const Tensor y = Tensor::randn({1, 3, 4, 4}, rng);
  const Tensor cx = conv.forward(x, false);
  const Tensor dy = deconv.forward(y, false);
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < cx.numel(); ++i) lhs += static_cast<double>(cx[i]) * y[i];
  for (std::size_t i = 0; i < dy.numel(); ++i) rhs += static_cast<double>(dy[i]) * x[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(BatchNorm1d, NormalizesBatchInTraining) {
  dp::Rng rng(1);
  BatchNorm1d bn(2);
  Tensor x({64, 2});
  for (int i = 0; i < 64; ++i) {
    x.at(i, 0) = static_cast<float>(rng.gaussian(5.0, 3.0));
    x.at(i, 1) = static_cast<float>(rng.gaussian(-2.0, 0.5));
  }
  const Tensor y = bn.forward(x, true);
  double m0 = 0, v0 = 0;
  for (int i = 0; i < 64; ++i) m0 += y.at(i, 0);
  m0 /= 64;
  for (int i = 0; i < 64; ++i) v0 += (y.at(i, 0) - m0) * (y.at(i, 0) - m0);
  v0 /= 64;
  EXPECT_NEAR(m0, 0.0, 1e-4);
  EXPECT_NEAR(v0, 1.0, 1e-2);
}

TEST(BatchNorm1d, EvalUsesRunningStats) {
  dp::Rng rng(1);
  BatchNorm1d bn(1);
  for (int step = 0; step < 200; ++step) {
    Tensor x({32, 1});
    for (int i = 0; i < 32; ++i)
      x.at(i, 0) = static_cast<float>(rng.gaussian(4.0, 2.0));
    (void)bn.forward(x, true);
  }
  // Evaluating the distribution mean should map near 0.
  Tensor probe({1, 1});
  probe.at(0, 0) = 4.0f;
  const Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0, 0.3);
}

TEST(Reshape, FlattenAndReshapeRoundTrip) {
  Flatten flatten;
  Reshape reshape(2, 3, 4);
  dp::Rng rng(1);
  const Tensor x = Tensor::randn({5, 2, 3, 4}, rng);
  const Tensor flat = flatten.forward(x, false);
  EXPECT_EQ(flat.shape(), (std::vector<int>{5, 24}));
  const Tensor back = reshape.forward(flat, false);
  dp::test::expectTensorsBitEqual(back, x);
  // Gradients pass through unchanged.
  dp::test::expectTensorsBitEqual(flatten.backward(flat), x);
}

TEST(Sequential, ParamAggregationAndCount) {
  dp::Rng rng(1);
  Sequential net;
  net.emplace<Linear>(4, 3, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(3, 2, rng);
  EXPECT_EQ(net.params().size(), 4u);  // two weights + two biases
  EXPECT_EQ(net.parameterCount(), 4u * 3u + 3u + 3u * 2u + 2u);
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

// ----------------------------------------------------------------- Loss

TEST(Loss, MseValueAndGradient) {
  Tensor pred({1, 2}), target({1, 2}), grad;
  pred[0] = 1.0f;
  pred[1] = 3.0f;
  target[0] = 0.0f;
  target[1] = 1.0f;
  const double loss = mseLoss(pred, target, grad);
  EXPECT_NEAR(loss, (1.0 + 4.0) / 2.0, 1e-6);
  EXPECT_NEAR(grad[0], 2.0 * 1.0 / 2.0, 1e-6);
  EXPECT_NEAR(grad[1], 2.0 * 2.0 / 2.0, 1e-6);
}

TEST(Loss, BceMatchesManualComputation) {
  Tensor logits({1, 2}), target({1, 2}), grad;
  logits[0] = 0.0f;
  logits[1] = 2.0f;
  target[0] = 1.0f;
  target[1] = 0.0f;
  const double loss = bceWithLogitsLoss(logits, target, grad);
  const double expected =
      (-std::log(0.5) + (2.0 + std::log1p(std::exp(-2.0)))) / 2.0;
  EXPECT_NEAR(loss, expected, 1e-6);
  EXPECT_NEAR(grad[0], (0.5 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(grad[1], (1.0 / (1.0 + std::exp(-2.0))) / 2.0, 1e-6);
}

TEST(Loss, BceIsStableForExtremeLogits) {
  Tensor logits({1, 2}), target({1, 2}), grad;
  logits[0] = 500.0f;
  logits[1] = -500.0f;
  target[0] = 1.0f;
  target[1] = 0.0f;
  const double loss = bceWithLogitsLoss(logits, target, grad);
  EXPECT_NEAR(loss, 0.0, 1e-6);
  EXPECT_TRUE(std::isfinite(grad[0]));
}

TEST(Loss, KlIsZeroForStandardNormal) {
  Tensor mu = Tensor::zeros({2, 3});
  Tensor logVar = Tensor::zeros({2, 3});
  Tensor gm, gv;
  EXPECT_NEAR(gaussianKlLoss(mu, logVar, gm, gv), 0.0, 1e-6);
  for (std::size_t i = 0; i < gm.numel(); ++i) {
    EXPECT_NEAR(gm[i], 0.0, 1e-6);
    EXPECT_NEAR(gv[i], 0.0, 1e-6);
  }
}

TEST(Loss, KlGradientMatchesNumeric) {
  dp::Rng rng(3);
  Tensor mu = Tensor::randn({2, 3}, rng);
  Tensor logVar = Tensor::randn({2, 3}, rng, 0.5);
  Tensor gm, gv;
  (void)gaussianKlLoss(mu, logVar, gm, gv);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < mu.numel(); ++i) {
    Tensor mp = mu, mm = mu, t1, t2;
    mp[i] += static_cast<float>(eps);
    mm[i] -= static_cast<float>(eps);
    const double num =
        (gaussianKlLoss(mp, logVar, t1, t2) -
         gaussianKlLoss(mm, logVar, t1, t2)) /
        (2 * eps);
    EXPECT_NEAR(num, gm[i], 1e-3);
  }
}

// ------------------------------------------------------------ Optimizer

TEST(Optimizer, SgdDescendsQuadratic) {
  Param p(Tensor::full({1}, 10.0f));
  Sgd opt({&p}, 0.1);
  for (int i = 0; i < 100; ++i) {
    opt.zeroGrad();
    p.grad[0] = 2.0f * p.value[0];  // d/dx x^2
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 0.0, 1e-3);
}

TEST(Optimizer, MomentumAcceleratesDescent) {
  Param plain(Tensor::full({1}, 10.0f));
  Param mom(Tensor::full({1}, 10.0f));
  Sgd optPlain({&plain}, 0.01, 0.0);
  Sgd optMom({&mom}, 0.01, 0.9);
  for (int i = 0; i < 20; ++i) {
    optPlain.zeroGrad();
    optMom.zeroGrad();
    plain.grad[0] = 2.0f * plain.value[0];
    mom.grad[0] = 2.0f * mom.value[0];
    optPlain.step();
    optMom.step();
  }
  EXPECT_LT(std::abs(mom.value[0]), std::abs(plain.value[0]));
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Param p(Tensor::full({2}, 5.0f));
  Adam opt({&p}, 0.1);
  for (int i = 0; i < 300; ++i) {
    opt.zeroGrad();
    p.grad[0] = 2.0f * p.value[0];
    p.grad[1] = 2.0f * (p.value[1] - 1.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 0.0, 1e-2);
  EXPECT_NEAR(p.value[1], 1.0, 1e-2);
}

TEST(Optimizer, WeightDecayShrinksParameters) {
  Param p(Tensor::full({1}, 1.0f), /*wd=*/0.5);
  Sgd opt({&p}, 0.1);
  opt.zeroGrad();  // gradient zero; only decay acts
  opt.step();
  EXPECT_LT(p.value[0], 1.0f);
}

TEST(Optimizer, RejectsNullParams) {
  EXPECT_THROW(Sgd({nullptr}, 0.1), std::invalid_argument);
}

TEST(Optimizer, SgdMomentumMatchesClosedForm) {
  // Constant gradient g=1, lr=0.1, momentum=0.5 from w=0:
  //   v_t = 0.5 v_{t-1} - 0.1,  w_t = w_{t-1} + v_t
  // so v = -0.1, -0.15, -0.175 and w = -0.1, -0.25, -0.425.
  Param p(Tensor::zeros({1}));
  Sgd opt({&p}, 0.1, 0.5);
  const double expectedV[] = {-0.1, -0.15, -0.175};
  const double expectedW[] = {-0.1, -0.25, -0.425};
  for (int t = 0; t < 3; ++t) {
    p.grad[0] = 1.0f;
    opt.step();
    EXPECT_NEAR(p.value[0], expectedW[t], 1e-6) << t;
    // state() exposes the velocity tensor, one per parameter.
    const std::vector<Tensor*> state = opt.state();
    ASSERT_EQ(state.size(), 1u);
    EXPECT_NEAR((*state[0])[0], expectedV[t], 1e-6) << t;
  }
}

TEST(Optimizer, AdamMatchesClosedFormBiasCorrectedMoments) {
  // Constant gradient g=3 from w=0 (defaults beta1=0.9, beta2=0.999):
  // the raw moments are m_t = g(1-beta1^t), v_t = g^2(1-beta2^t), so
  // after bias correction mhat = g and vhat = g^2 exactly — every
  // update is lr * g/(|g|+eps) ~= lr, the signature Adam property.
  Param p(Tensor::zeros({1}));
  Adam opt({&p}, 0.1);
  p.grad[0] = 3.0f;
  opt.step();
  EXPECT_EQ(opt.stepCount(), 1);
  EXPECT_NEAR(p.value[0], -0.1, 1e-6);
  // state() is [step counter, m..., v...].
  std::vector<Tensor*> state = opt.state();
  ASSERT_EQ(state.size(), 3u);
  EXPECT_FLOAT_EQ((*state[0])[0], 1.0f);
  EXPECT_NEAR((*state[1])[0], 0.1 * 3.0, 1e-6);         // m_1
  EXPECT_NEAR((*state[2])[0], 0.001 * 9.0, 1e-8);       // v_1

  p.grad[0] = 3.0f;
  opt.step();
  EXPECT_EQ(opt.stepCount(), 2);
  EXPECT_NEAR(p.value[0], -0.2, 1e-5);
  EXPECT_NEAR((*state[1])[0], 0.9 * 0.3 + 0.1 * 3.0, 1e-6);      // m_2
  EXPECT_NEAR((*state[2])[0], 0.999 * 0.009 + 0.001 * 9.0, 1e-7);// v_2
}

TEST(Optimizer, StateRoundTripResumesBitIdentically) {
  // Train 10 steps, checkpoint (params + optimizer state), restore
  // into fresh objects, then continue both for 10 more steps on the
  // same gradient sequence: trajectories must match bit for bit, for
  // both the Adam moments/step-count path and the Sgd velocity path.
  const auto gradAt = [](long step, std::size_t i) {
    return static_cast<float>(std::sin(0.3 * static_cast<double>(step) +
                                       static_cast<double>(i)));
  };
  const auto fill = [&](Param& p, long step) {
    for (std::size_t i = 0; i < p.grad.numel(); ++i)
      p.grad[i] = gradAt(step, i);
  };

  dp::Rng rng(31);
  const Tensor init = Tensor::randn({5}, rng);
  const std::string adamPath = "dp_nn_adam_state.bin";
  const std::string sgdPath = "dp_nn_sgd_state.bin";

  Param aw(init);
  Adam adam({&aw}, 0.05);
  Param sw(init);
  Sgd sgd({&sw}, 0.05, 0.9);
  for (long t = 0; t < 10; ++t) {
    fill(aw, t);
    adam.step();
    fill(sw, t);
    sgd.step();
  }
  {
    std::vector<const Tensor*> out = {&aw.value};
    for (Tensor* s : adam.state()) out.push_back(s);
    saveTensors(out, adamPath);
  }
  {
    std::vector<const Tensor*> out = {&sw.value};
    for (Tensor* s : sgd.state()) out.push_back(s);
    saveTensors(out, sgdPath);
  }

  Param aw2(Tensor::zeros({5}));
  Adam adam2({&aw2}, 0.05);
  {
    std::vector<Tensor*> in = {&aw2.value};
    for (Tensor* s : adam2.state()) in.push_back(s);
    loadTensors(in, adamPath);
    adam2.loadState();  // re-derives the bias-correction step count
  }
  EXPECT_EQ(adam2.stepCount(), 10);
  Param sw2(Tensor::zeros({5}));
  Sgd sgd2({&sw2}, 0.05, 0.9);
  {
    std::vector<Tensor*> in = {&sw2.value};
    for (Tensor* s : sgd2.state()) in.push_back(s);
    loadTensors(in, sgdPath);
    sgd2.loadState();
  }

  for (long t = 10; t < 20; ++t) {
    fill(aw, t);
    adam.step();
    fill(aw2, t);
    adam2.step();
    fill(sw, t);
    sgd.step();
    fill(sw2, t);
    sgd2.step();
  }
  EXPECT_TRUE(dp::test::tensorsBitEqual(aw2.value, aw.value));
  EXPECT_TRUE(dp::test::tensorsBitEqual(sw2.value, sw.value));
  EXPECT_EQ(adam2.stepCount(), adam.stepCount());
  std::remove(adamPath.c_str());
  std::remove(sgdPath.c_str());
}

// ------------------------------------------------------------- Schedule

TEST(Schedule, StaircaseDecay) {
  StepDecaySchedule s(0.001, 0.7, 2000);
  EXPECT_DOUBLE_EQ(s.lrAt(0), 0.001);
  EXPECT_DOUBLE_EQ(s.lrAt(1999), 0.001);
  EXPECT_NEAR(s.lrAt(2000), 0.0007, 1e-12);
  EXPECT_NEAR(s.lrAt(4500), 0.001 * 0.7 * 0.7, 1e-12);
}

// ------------------------------------------------------------ Serialize

TEST(Serialize, RoundTripsParameters) {
  dp::Rng rng(1);
  Sequential a;
  a.emplace<Linear>(4, 3, rng);
  a.emplace<Linear>(3, 2, rng);
  Sequential b;
  b.emplace<Linear>(4, 3, rng);
  b.emplace<Linear>(3, 2, rng);

  const std::string path = ::testing::TempDir() + "/params.bin";
  saveParams(a.params(), path);
  loadParams(b.params(), path);
  const Tensor x = Tensor::randn({2, 4}, rng);
  dp::test::expectTensorsBitEqual(a.forward(x, false), b.forward(x, false));
  std::remove(path.c_str());
}

TEST(Serialize, DetectsShapeMismatch) {
  dp::Rng rng(1);
  Sequential a;
  a.emplace<Linear>(4, 3, rng);
  Sequential b;
  b.emplace<Linear>(4, 4, rng);
  const std::string path = ::testing::TempDir() + "/params2.bin";
  saveParams(a.params(), path);
  EXPECT_THROW(loadParams(b.params(), path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, FailsOnMissingFile) {
  dp::Rng rng(1);
  Sequential a;
  a.emplace<Linear>(2, 2, rng);
  EXPECT_THROW(loadParams(a.params(), "/nonexistent/params.bin"),
               std::runtime_error);
}

// ----------------------------------------------------------------- Init

TEST(Init, XavierBoundsRespectFanInOut) {
  dp::Rng rng(1);
  Tensor w({100, 100});
  xavierUniform(w, 100, 100, rng);
  const double bound = std::sqrt(6.0 / 200.0);
  EXPECT_LE(w.absMax(), bound + 1e-6);
  EXPECT_GT(w.absMax(), bound * 0.8);  // actually fills the range
}

TEST(Init, HeNormalHasExpectedScale) {
  dp::Rng rng(1);
  Tensor w({200, 50});
  heNormal(w, 50, rng);
  double var = 0.0;
  for (std::size_t i = 0; i < w.numel(); ++i) var += w[i] * w[i];
  var /= static_cast<double>(w.numel());
  EXPECT_NEAR(var, 2.0 / 50.0, 0.01);
}

}  // namespace
}  // namespace dp::nn
