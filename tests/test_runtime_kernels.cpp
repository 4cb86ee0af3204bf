// Numeric kernel unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/runtime/kernels.h"

namespace gf::rt {
namespace {

conc::ThreadPool& pool() {
  static conc::ThreadPool p(4);
  return p;
}

DenseTensor filled(std::vector<std::int64_t> shape, std::vector<float> data) {
  DenseTensor t(std::move(shape), ir::DataType::kFloat32);
  for (std::size_t i = 0; i < data.size(); ++i) t.f(static_cast<std::int64_t>(i)) = data[i];
  return t;
}

DenseTensor ints(std::vector<std::int64_t> shape, std::vector<std::int32_t> data) {
  DenseTensor t(std::move(shape), ir::DataType::kInt32);
  for (std::size_t i = 0; i < data.size(); ++i) t.i32(static_cast<std::int64_t>(i)) = data[i];
  return t;
}

/// n deterministic values in [-1, 1) (xorshift32).
std::vector<float> random_vec(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  std::uint32_t s = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    v[i] = static_cast<float>(s % 20011u) / 10005.5f - 1.0f;
  }
  return v;
}

std::vector<std::uint32_t> bits_of(const DenseTensor& t) {
  std::vector<std::uint32_t> b(static_cast<std::size_t>(t.numel()));
  std::memcpy(b.data(), t.fdata(), b.size() * sizeof(float));
  return b;
}

/// Element counts for the element-kernel tests: three full 4096-element
/// blocks and a ragged fourth.
constexpr std::int64_t kRaggedElems = 3 * 4096 + 5;

TEST(MatmulKernel, Small2x2) {
  const DenseTensor a = filled({2, 2}, {1, 2, 3, 4});
  const DenseTensor b = filled({2, 2}, {5, 6, 7, 8});
  DenseTensor out({2, 2}, ir::DataType::kFloat32);
  KernelStats stats;
  matmul(a, b, out, false, false, pool(), stats);
  EXPECT_FLOAT_EQ(out.f(0), 19);
  EXPECT_FLOAT_EQ(out.f(1), 22);
  EXPECT_FLOAT_EQ(out.f(2), 43);
  EXPECT_FLOAT_EQ(out.f(3), 50);
  EXPECT_DOUBLE_EQ(stats.flops, 16.0);
}

TEST(MatmulKernel, TransposeFlagsAgree) {
  // (A^T B^T) computed with flags equals computing from materialized
  // transposes.
  const DenseTensor a = filled({3, 2}, {1, 2, 3, 4, 5, 6});     // A^T is 2x3
  const DenseTensor b = filled({4, 3}, {1, 0, 2, 0, 1, 0, 3, 1, 0, 2, 0, 1});  // B^T 3x4
  DenseTensor out({2, 4}, ir::DataType::kFloat32);
  KernelStats stats;
  matmul(a, b, out, true, true, pool(), stats);

  const DenseTensor at = filled({2, 3}, {1, 3, 5, 2, 4, 6});
  const DenseTensor bt = filled({3, 4}, {1, 0, 3, 2, 0, 1, 1, 0, 2, 0, 0, 1});
  DenseTensor expected({2, 4}, ir::DataType::kFloat32);
  matmul(at, bt, expected, false, false, pool(), stats);
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(out.f(i), expected.f(i)) << i;
}

TEST(MatmulKernel, BatchedBroadcastsSharedWeights) {
  const DenseTensor a = filled({2, 1, 2}, {1, 2, 3, 4});  // two (1x2) rows
  const DenseTensor w = filled({2, 2}, {1, 0, 0, 1});     // identity
  DenseTensor out({2, 1, 2}, ir::DataType::kFloat32);
  KernelStats stats;
  matmul(a, w, out, false, false, pool(), stats);
  EXPECT_FLOAT_EQ(out.f(0), 1);
  EXPECT_FLOAT_EQ(out.f(1), 2);
  EXPECT_FLOAT_EQ(out.f(2), 3);
  EXPECT_FLOAT_EQ(out.f(3), 4);
}

TEST(Conv2dKernel, IdentityKernelCopiesCenter) {
  // 3x3 kernel with 1 at center == identity under same padding.
  DenseTensor in({1, 3, 3, 1}, ir::DataType::kFloat32);
  for (int i = 0; i < 9; ++i) in.f(i) = static_cast<float>(i + 1);
  DenseTensor f({3, 3, 1, 1}, ir::DataType::kFloat32);
  f.f(4) = 1.0f;  // center tap
  DenseTensor out({1, 3, 3, 1}, ir::DataType::kFloat32);
  KernelStats stats;
  conv2d(in, f, out, 1, pool(), stats);
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(out.f(i), in.f(i)) << i;
}

TEST(Conv2dKernel, StrideSubsamples) {
  DenseTensor in({1, 4, 4, 1}, ir::DataType::kFloat32);
  for (int i = 0; i < 16; ++i) in.f(i) = static_cast<float>(i);
  DenseTensor f({1, 1, 1, 1}, ir::DataType::kFloat32);
  f.f(0) = 2.0f;
  DenseTensor out({1, 2, 2, 1}, ir::DataType::kFloat32);
  KernelStats stats;
  conv2d(in, f, out, 2, pool(), stats);
  EXPECT_FLOAT_EQ(out.f(0), 0);
  EXPECT_FLOAT_EQ(out.f(1), 4);
  EXPECT_FLOAT_EQ(out.f(2), 16);
  EXPECT_FLOAT_EQ(out.f(3), 20);
}

TEST(SoftmaxKernel, RowsSumToOne) {
  const DenseTensor logits = filled({2, 3}, {1, 2, 3, -1, 0, 1});
  DenseTensor out({2, 3}, ir::DataType::kFloat32);
  KernelStats stats;
  softmax(logits, out, pool(), stats);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) {
      sum += out.f(r * 3 + c);
      EXPECT_GT(out.f(r * 3 + c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  // Shift invariance: both rows are shifted copies -> equal distributions.
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(out.f(c), out.f(3 + c), 1e-6f);
}

TEST(SoftmaxXentKernel, LossIsNegLogProb) {
  const DenseTensor logits = filled({1, 2}, {0, 0});
  const DenseTensor labels = ints({1}, {1});
  DenseTensor loss({1}, ir::DataType::kFloat32);
  DenseTensor probs({1, 2}, ir::DataType::kFloat32);
  KernelStats stats;
  softmax_xent(logits, labels, loss, probs, pool(), stats);
  EXPECT_NEAR(loss.f(0), std::log(2.0f), 1e-6f);
}

TEST(PoolKernel, MaxAndAvg) {
  DenseTensor in({1, 2, 2, 1}, ir::DataType::kFloat32);
  in.f(0) = 1;
  in.f(1) = 5;
  in.f(2) = 3;
  in.f(3) = 2;
  DenseTensor out({1, 1, 1, 1}, ir::DataType::kFloat32);
  KernelStats stats;
  pool(ir::PoolKind::kMax, in, out, 2, 2, pool(), stats);
  EXPECT_FLOAT_EQ(out.f(0), 5);
  pool(ir::PoolKind::kAvg, in, out, 2, 2, pool(), stats);
  EXPECT_FLOAT_EQ(out.f(0), 2.75f);
}

TEST(PoolGradKernel, MaxRoutesToArgmax) {
  DenseTensor in({1, 2, 2, 1}, ir::DataType::kFloat32);
  in.f(0) = 1;
  in.f(1) = 5;
  in.f(2) = 3;
  in.f(3) = 2;
  DenseTensor out({1, 1, 1, 1}, ir::DataType::kFloat32);
  KernelStats stats;
  pool(ir::PoolKind::kMax, in, out, 2, 2, pool(), stats);
  DenseTensor dy({1, 1, 1, 1}, ir::DataType::kFloat32);
  dy.f(0) = 7;
  DenseTensor dx({1, 2, 2, 1}, ir::DataType::kFloat32);
  pool_grad(ir::PoolKind::kMax, in, out, dy, dx, 2, 2, pool(), stats);
  EXPECT_FLOAT_EQ(dx.f(0), 0);
  EXPECT_FLOAT_EQ(dx.f(1), 7);
  EXPECT_FLOAT_EQ(dx.f(2), 0);
  EXPECT_FLOAT_EQ(dx.f(3), 0);
}

TEST(BatchNormKernel, NormalizesToZeroMeanUnitVar) {
  DenseTensor in({4, 1}, ir::DataType::kFloat32);
  in.f(0) = 2;
  in.f(1) = 4;
  in.f(2) = 6;
  in.f(3) = 8;
  DenseTensor scale = filled({1}, {1});
  DenseTensor shift = filled({1}, {0});
  DenseTensor out({4, 1}, ir::DataType::kFloat32);
  KernelStats stats;
  batch_norm(in, scale, shift, out, pool(), stats);
  float mean = 0, var = 0;
  for (int i = 0; i < 4; ++i) mean += out.f(i) / 4;
  for (int i = 0; i < 4; ++i) var += out.f(i) * out.f(i) / 4;
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  EXPECT_NEAR(var, 1.0f, 1e-3f);
}

TEST(EmbeddingKernels, GradRejectsOutOfRangeId) {
  const std::int64_t vocab = 3;
  const DenseTensor dy = filled({2, 2}, {1, 2, 3, 4});
  for (const std::int32_t bad : {-1, static_cast<std::int32_t>(vocab)}) {
    const DenseTensor ids = ints({2}, {0, bad});
    DenseTensor dtable = filled({vocab, 2}, {7, 7, 7, 7, 7, 7});
    KernelStats stats;
    EXPECT_THROW(embedding_grad(ids, dy, dtable, pool(), stats), std::logic_error)
        << "id " << bad;
    for (std::int64_t i = 0; i < dtable.numel(); ++i)
      EXPECT_EQ(dtable.f(i), 7.0f) << "id " << bad << " let the kernel write element " << i;
  }
}

TEST(EmbeddingKernels, LookupRejectsOutOfRangeIdBeforeWriting) {
  const DenseTensor table = filled({3, 2}, {10, 11, 20, 21, 30, 31});
  for (const std::int32_t bad : {-1, 3}) {
    const DenseTensor ids = ints({2}, {0, bad});
    DenseTensor out = filled({2, 2}, {7, 7, 7, 7});
    KernelStats stats;
    EXPECT_THROW(embedding_lookup(table, ids, out, pool(), stats), std::logic_error)
        << "id " << bad;
    for (std::int64_t i = 0; i < out.numel(); ++i)
      EXPECT_EQ(out.f(i), 7.0f) << "id " << bad << " let the kernel write element " << i;
  }
}

TEST(EmbeddingKernels, LookupAndScatterRoundTrip) {
  const DenseTensor table = filled({3, 2}, {10, 11, 20, 21, 30, 31});
  const DenseTensor ids = ints({2}, {2, 0});
  DenseTensor out({2, 2}, ir::DataType::kFloat32);
  KernelStats stats;
  embedding_lookup(table, ids, out, pool(), stats);
  EXPECT_FLOAT_EQ(out.f(0), 30);
  EXPECT_FLOAT_EQ(out.f(3), 11);

  const DenseTensor dy = filled({2, 2}, {1, 2, 3, 4});
  DenseTensor dtable({3, 2}, ir::DataType::kFloat32);
  embedding_grad(ids, dy, dtable, pool(), stats);
  EXPECT_FLOAT_EQ(dtable.f(0), 3);  // row 0 from second lookup
  EXPECT_FLOAT_EQ(dtable.f(1), 4);
  EXPECT_FLOAT_EQ(dtable.f(2), 0);  // row 1 untouched
  EXPECT_FLOAT_EQ(dtable.f(4), 1);  // row 2 from first lookup
}

TEST(ConcatSplitKernels, RoundTrip) {
  const DenseTensor a = filled({2, 2}, {1, 2, 5, 6});
  const DenseTensor b = filled({2, 2}, {3, 4, 7, 8});
  DenseTensor cat({2, 4}, ir::DataType::kFloat32);
  KernelStats stats;
  concat({&a, &b}, 1, cat, pool(), stats);
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(cat.f(i), static_cast<float>(i + 1));

  DenseTensor p0({2, 2}, ir::DataType::kFloat32), p1({2, 2}, ir::DataType::kFloat32);
  split(cat, 1, {&p0, &p1}, pool(), stats);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(p0.f(i), a.f(i));
    EXPECT_FLOAT_EQ(p1.f(i), b.f(i));
  }
}

TEST(ConcatSplitKernels, EveryAxisOfARank3Tensor) {
  // Axis 2 has inner == 1 (the LSTM's axis-1 case), axes 0 and 1 have
  // inner > 1, and axis 0 has a single outer row. Parts are unequal.
  const std::vector<std::int64_t> shape = {4, 6, 5};
  DenseTensor cube(shape, ir::DataType::kFloat32);
  for (std::int64_t i = 0; i < cube.numel(); ++i) cube.f(i) = static_cast<float>(i);
  auto index = [](const std::vector<std::int64_t>& s, std::int64_t a, std::int64_t b,
                  std::int64_t c) { return (a * s[1] + b) * s[2] + c; };
  // Every element of `part` equals cube's element `offset` further along `axis`.
  auto expect_window = [&](const DenseTensor& part, std::size_t axis, std::int64_t offset) {
    const std::vector<std::int64_t>& ps = part.shape();
    for (std::int64_t a = 0; a < ps[0]; ++a)
      for (std::int64_t b = 0; b < ps[1]; ++b)
        for (std::int64_t c = 0; c < ps[2]; ++c) {
          std::int64_t src[3] = {a, b, c};
          src[axis] += offset;
          ASSERT_EQ(part.f(index(ps, a, b, c)), cube.f(index(shape, src[0], src[1], src[2])))
              << "axis " << axis << " at (" << a << "," << b << "," << c << ")";
        }
  };
  for (std::size_t axis = 0; axis < 3; ++axis) {
    std::vector<std::int64_t> s0 = shape, s1 = shape, s_slice = shape;
    s0[axis] = 2;
    s1[axis] = shape[axis] - 2;
    s_slice[axis] = 2;
    DenseTensor p0(s0, ir::DataType::kFloat32), p1(s1, ir::DataType::kFloat32);
    KernelStats stats;
    split(cube, axis, {&p0, &p1}, pool(), stats);
    expect_window(p0, axis, 0);
    expect_window(p1, axis, 2);

    DenseTensor cat(shape, ir::DataType::kFloat32);
    concat({&p0, &p1}, axis, cat, pool(), stats);
    EXPECT_EQ(bits_of(cat), bits_of(cube)) << "axis " << axis;

    DenseTensor sl(s_slice, ir::DataType::kFloat32);
    slice(cube, axis, 1, sl, pool(), stats);
    expect_window(sl, axis, 1);
  }
}

TEST(SliceKernel, ExtractsOffsetRegion) {
  const DenseTensor in = filled({1, 4}, {1, 2, 3, 4});
  DenseTensor out({1, 2}, ir::DataType::kFloat32);
  KernelStats stats;
  slice(in, 1, 1, out, pool(), stats);
  EXPECT_FLOAT_EQ(out.f(0), 2);
  EXPECT_FLOAT_EQ(out.f(1), 3);
}

TEST(ReduceBroadcastKernels, SumMeanAndBack) {
  const DenseTensor in = filled({2, 2}, {1, 2, 3, 4});
  DenseTensor sum({2}, ir::DataType::kFloat32);
  KernelStats stats;
  reduce(ir::ReduceKind::kSum, in, sum, pool(), stats);
  EXPECT_FLOAT_EQ(sum.f(0), 4);  // column sums (leading axes reduced)
  EXPECT_FLOAT_EQ(sum.f(1), 6);

  DenseTensor back({2, 2}, ir::DataType::kFloat32);
  broadcast(sum, back, pool(), stats);
  EXPECT_FLOAT_EQ(back.f(0), 4);
  EXPECT_FLOAT_EQ(back.f(2), 4);
  EXPECT_FLOAT_EQ(back.f(3), 6);
}

TEST(ApplyGradientKernel, SgdStep) {
  DenseTensor w = filled({2}, {1.0f, 2.0f});
  const DenseTensor g = filled({2}, {10.0f, -10.0f});
  KernelStats stats;
  apply_gradient(ir::Optimizer::kSGD, w, g, {}, 0.1, pool(), stats);
  EXPECT_FLOAT_EQ(w.f(0), 0.0f);
  EXPECT_FLOAT_EQ(w.f(1), 3.0f);
}

TEST(ApplyGradientKernel, MomentumAccumulates) {
  DenseTensor w = filled({1}, {0.0f});
  const DenseTensor g = filled({1}, {1.0f});
  DenseTensor v = DenseTensor::zeros({1});
  KernelStats stats;
  apply_gradient(ir::Optimizer::kMomentum, w, g, {&v}, 1.0, pool(), stats);
  EXPECT_FLOAT_EQ(w.f(0), -1.0f);
  apply_gradient(ir::Optimizer::kMomentum, w, g, {&v}, 1.0, pool(), stats);
  EXPECT_FLOAT_EQ(w.f(0), -2.9f);  // v = 1.9 on the second step
}

TEST(ApplyGradientKernel, EveryOptimizerBitwiseEqualsPerElementLoop) {
  const auto n = static_cast<std::size_t>(kRaggedElems);
  const std::vector<float> w0 = random_vec(n, 11), g = random_vec(n, 13);
  const std::vector<float> m0 = random_vec(n, 17);
  std::vector<float> v0 = random_vec(n, 19);
  for (float& x : v0) x = std::abs(x);
  const double learning_rate = 0.05;
  for (const ir::Optimizer opt :
       {ir::Optimizer::kSGD, ir::Optimizer::kMomentum, ir::Optimizer::kAdam}) {
    DenseTensor w({kRaggedElems}, ir::DataType::kFloat32);
    DenseTensor grad({kRaggedElems}, ir::DataType::kFloat32);
    DenseTensor m({kRaggedElems}, ir::DataType::kFloat32);
    DenseTensor v({kRaggedElems}, ir::DataType::kFloat32);
    std::copy(w0.begin(), w0.end(), w.fdata());
    std::copy(g.begin(), g.end(), grad.fdata());
    std::copy(m0.begin(), m0.end(), m.fdata());
    std::copy(v0.begin(), v0.end(), v.fdata());
    std::vector<DenseTensor*> slots;
    if (opt == ir::Optimizer::kMomentum) slots = {&m};
    if (opt == ir::Optimizer::kAdam) slots = {&m, &v};
    std::vector<float> ew = w0, em = m0, ev = v0;
    KernelStats stats;
    for (int step = 0; step < 3; ++step) {
      apply_gradient(opt, w, grad, slots, learning_rate, pool(), stats);
      for (std::size_t i = 0; i < n; ++i) {
        switch (opt) {
          case ir::Optimizer::kSGD:
            ew[i] -= static_cast<float>(learning_rate) * g[i];
            break;
          case ir::Optimizer::kMomentum: {
            constexpr float kMomentum = 0.9f;
            em[i] = kMomentum * em[i] + g[i];
            ew[i] -= static_cast<float>(learning_rate) * em[i];
            break;
          }
          case ir::Optimizer::kAdam: {
            constexpr float kB1 = 0.9f, kB2 = 0.999f, kEps = 1e-8f;
            em[i] = kB1 * em[i] + (1 - kB1) * g[i];
            ev[i] = kB2 * ev[i] + (1 - kB2) * g[i] * g[i];
            ew[i] -= static_cast<float>(learning_rate) * em[i] / (std::sqrt(ev[i]) + kEps);
            break;
          }
        }
      }
    }
    auto expect_bits = [&](const DenseTensor& got, const std::vector<float>& want,
                           const char* what) {
      ASSERT_EQ(std::memcmp(got.fdata(), want.data(), n * sizeof(float)), 0)
          << what << " of optimizer " << static_cast<int>(opt);
    };
    expect_bits(w, ew, "weight");
    expect_bits(m, em, "first slot");
    expect_bits(v, ev, "second slot");
  }
}

TEST(PointwiseKernel, EveryFnBitwiseEqualsPerElementLoop) {
  using Fn = ir::PointwiseFn;
  const auto n = static_cast<std::size_t>(kRaggedElems);
  std::vector<float> xa = random_vec(n, 23);
  const std::vector<float> xb = random_vec(n, 29), xc = random_vec(n, 31);
  // Signed zeros, saturating and subnormal inputs among the random ones.
  const float special[] = {0.0f, -0.0f, 30.0f, -30.0f, 1e-40f, -1e-40f, 1.0f};
  std::copy(std::begin(special), std::end(special), xa.begin());
  auto tensor = [&](const std::vector<float>& v) {
    DenseTensor t({kRaggedElems}, ir::DataType::kFloat32);
    std::copy(v.begin(), v.end(), t.fdata());
    return t;
  };
  const DenseTensor a = tensor(xa), b = tensor(xb), c = tensor(xc);
  const double alpha = 0.37;
  for (const Fn fn : {Fn::kAdd, Fn::kSub, Fn::kMul, Fn::kAddN, Fn::kSigmoid, Fn::kTanh,
                      Fn::kRelu, Fn::kOneMinus, Fn::kScale, Fn::kIdentity,
                      Fn::kSigmoidGrad, Fn::kTanhGrad, Fn::kReluGrad}) {
    std::vector<const DenseTensor*> in;
    switch (fn) {
      case Fn::kAdd: case Fn::kSub: case Fn::kMul: case Fn::kSigmoidGrad:
      case Fn::kTanhGrad: case Fn::kReluGrad:
        in = {&a, &b};
        break;
      case Fn::kAddN: in = {&a, &b, &c}; break;
      default: in = {&a}; break;
    }
    // The kernel's element expression, one element at a time.
    std::vector<float> want(n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto i = static_cast<std::int64_t>(k);
      auto x = [&](std::size_t which) { return in[which]->f(i); };
      switch (fn) {
        case Fn::kAdd: want[k] = x(0) + x(1); break;
        case Fn::kSub: want[k] = x(0) - x(1); break;
        case Fn::kMul: want[k] = x(0) * x(1); break;
        case Fn::kAddN: {
          double acc = 0;
          for (std::size_t j = 0; j < in.size(); ++j) acc += x(j);
          want[k] = static_cast<float>(acc);
          break;
        }
        case Fn::kSigmoid: want[k] = 1.0f / (1.0f + std::exp(-x(0))); break;
        case Fn::kTanh: want[k] = std::tanh(x(0)); break;
        case Fn::kRelu: want[k] = std::max(0.0f, x(0)); break;
        case Fn::kOneMinus: want[k] = 1.0f - x(0); break;
        case Fn::kScale: want[k] = static_cast<float>(alpha) * x(0); break;
        case Fn::kIdentity: want[k] = x(0); break;
        case Fn::kSigmoidGrad: want[k] = x(1) * x(0) * (1.0f - x(0)); break;
        case Fn::kTanhGrad: want[k] = x(1) * (1.0f - x(0) * x(0)); break;
        case Fn::kReluGrad: want[k] = x(0) > 0 ? x(1) : 0.0f; break;
      }
    }
    const DenseTensor expected = tensor(want);
    KernelStats stats;
    DenseTensor out({kRaggedElems}, ir::DataType::kFloat32);
    pointwise(fn, in, alpha, out, pool(), stats);
    EXPECT_EQ(bits_of(out), bits_of(expected)) << ir::pointwise_fn_name(fn);

    // In place: the output written over input 0's storage, as the memory
    // plan may alias it.
    DenseTensor io = *in[0];
    std::vector<const DenseTensor*> in_place = in;
    in_place[0] = &io;
    pointwise(fn, in_place, alpha, io, pool(), stats);
    EXPECT_EQ(bits_of(io), bits_of(expected)) << ir::pointwise_fn_name(fn) << " in place";
  }
}

TEST(DenseTensorAccess, WrongDtypeAccessorsThrow) {
  DenseTensor i32({3}, ir::DataType::kInt32);
  DenseTensor f32({3}, ir::DataType::kFloat32);
  const DenseTensor& ci32 = i32;
  const DenseTensor& cf32 = f32;
  EXPECT_THROW((void)i32.fdata(), std::logic_error);
  EXPECT_THROW((void)ci32.fdata(), std::logic_error);
  EXPECT_THROW((void)f32.idata(), std::logic_error);
  EXPECT_THROW((void)cf32.idata(), std::logic_error);
  EXPECT_THROW((void)i32.f(0), std::logic_error);
  EXPECT_THROW((void)f32.i32(0), std::logic_error);
  EXPECT_NE(i32.idata(), nullptr);
  EXPECT_NE(cf32.fdata(), nullptr);

  // Views carry the same check.
  alignas(kTensorAlignment) float storage[4] = {};
  DenseTensor iview = DenseTensor::view({4}, ir::DataType::kInt32, storage);
  EXPECT_THROW((void)iview.fdata(), std::logic_error);
  EXPECT_EQ(static_cast<void*>(iview.idata()), static_cast<void*>(storage));
}

}  // namespace
}  // namespace gf::rt
