// Blocked-GEMM core and parallel-kernel determinism tests.
//
// The contract under test: the cache-blocked packed GEMM (and every kernel
// re-expressed on top of it or parallelized over the pool) produces output
// bits that are independent of thread count and micro-kernel, because each
// output element adds fl(a*b) to a float accumulator in ascending-k order.
// Against the double-accumulating reference kernels the GEMM is checked
// per element within the fp32 summation bound (within_fp32_bound below).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/hw/cache_model.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"
#include "src/runtime/gemm.h"
#include "src/runtime/kernels.h"

namespace gf::rt {
namespace {

conc::ThreadPool& pool() {
  static conc::ThreadPool p(4);
  return p;
}

std::vector<float> random_vec(std::size_t n, std::uint32_t seed) {
  // xorshift32: deterministic values in [-1, 1) without <random> overhead.
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

std::vector<std::uint32_t> bits_of(const std::vector<float>& v) {
  std::vector<std::uint32_t> b(v.size());
  std::memcpy(b.data(), v.data(), v.size() * sizeof(float));
  return b;
}

/// The fp32 GEMM contract against the double reference: an element that
/// sums k float-rounded products in fp32 is within
/// (k+2) * 2^-24 * sum_p |a_ip * b_pj| of the reference's float result (k
/// roundings of products and partial sums, plus the reference's own final
/// cast, with slack). `abs_sum` is that sum, computed in double.
testing::AssertionResult within_fp32_bound(float c, float ref, std::int64_t k,
                                           double abs_sum) {
  const double bound = static_cast<double>(k + 2) * std::ldexp(1.0, -24) * abs_sum;
  const double err = std::abs(static_cast<double>(c) - static_cast<double>(ref));
  if (err <= bound) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "|" << c << " - " << ref << "| = " << err << " > bound " << bound;
}

/// sum_p |op(A)[r][p] * op(B)[p][col]| for one batch matrix pair.
double gemm_abs_sum(const float* a, const float* b, std::int64_t m, std::int64_t n,
                    std::int64_t k, bool trans_a, bool trans_b, std::int64_t r,
                    std::int64_t col) {
  double sum = 0;
  for (std::int64_t p = 0; p < k; ++p) {
    const float av = trans_a ? a[p * m + r] : a[r * k + p];
    const float bv = trans_b ? b[col * k + p] : b[p * n + col];
    sum += std::abs(static_cast<double>(av) * static_cast<double>(bv));
  }
  return sum;
}

/// Checks a stride-1, same-padded NHWC conv output (filter KH x KW x C x F)
/// element by element against the reference output, with the tap sum
/// sum |x * w| over the window (padding taps contribute zero) and
/// k = KH * KW * C.
void expect_conv_within_bound(const DenseTensor& in, const DenseTensor& filter,
                              const DenseTensor& out, const DenseTensor& ref) {
  const std::int64_t N = in.dim(0), H = in.dim(1), W = in.dim(2), C = in.dim(3);
  const std::int64_t KH = filter.dim(0), KW = filter.dim(1), F = filter.dim(3);
  const std::int64_t ph = (KH - 1) / 2, pw = (KW - 1) / 2;
  for (std::int64_t nidx = 0; nidx < N; ++nidx)
    for (std::int64_t ho = 0; ho < H; ++ho)
      for (std::int64_t wo = 0; wo < W; ++wo)
        for (std::int64_t f = 0; f < F; ++f) {
          double abs_sum = 0;
          for (std::int64_t kh = 0; kh < KH; ++kh)
            for (std::int64_t kw = 0; kw < KW; ++kw) {
              const std::int64_t h = ho + kh - ph, w = wo + kw - pw;
              if (h < 0 || h >= H || w < 0 || w >= W) continue;
              for (std::int64_t c = 0; c < C; ++c)
                abs_sum += std::abs(
                    static_cast<double>(in.f(((nidx * H + h) * W + w) * C + c)) *
                    static_cast<double>(filter.f(((kh * KW + kw) * C + c) * F + f)));
            }
          const std::int64_t i = ((nidx * H + ho) * W + wo) * F + f;
          EXPECT_TRUE(within_fp32_bound(out.f(i), ref.f(i), KH * KW * C, abs_sum))
              << "element " << i;
        }
}

DenseTensor tensor_from(std::vector<std::int64_t> shape, const std::vector<float>& data) {
  DenseTensor t(std::move(shape), ir::DataType::kFloat32);
  for (std::size_t i = 0; i < data.size(); ++i)
    t.f(static_cast<std::int64_t>(i)) = data[i];
  return t;
}

struct GemmCase {
  std::int64_t batch, m, n, k;
  bool trans_a, trans_b;
  bool broadcast_b;  // rank-3 A with a shared rank-2 B
};

void run_case(const GemmCase& gc) {
  SCOPED_TRACE(testing::Message()
               << "batch=" << gc.batch << " m=" << gc.m << " n=" << gc.n
               << " k=" << gc.k << " ta=" << gc.trans_a << " tb=" << gc.trans_b
               << " bcast=" << gc.broadcast_b);
  const auto a_elems = static_cast<std::size_t>(gc.batch * gc.m * gc.k);
  const auto b_batch = gc.broadcast_b ? 1 : gc.batch;
  const auto b_elems = static_cast<std::size_t>(b_batch * gc.k * gc.n);
  const auto c_elems = static_cast<std::size_t>(gc.batch * gc.m * gc.n);
  const std::vector<float> a = random_vec(a_elems, 11);
  const std::vector<float> b = random_vec(b_elems, 23);
  std::vector<float> c_blocked(c_elems, -7.0f), c_ref(c_elems, 7.0f);

  const std::int64_t a_stride = gc.m * gc.k;
  const std::int64_t b_stride = gc.broadcast_b ? 0 : gc.k * gc.n;
  const std::int64_t c_stride = gc.m * gc.n;
  blocked_gemm(a.data(), b.data(), c_blocked.data(), gc.batch, gc.m, gc.n, gc.k,
               gc.trans_a, gc.trans_b, a_stride, b_stride, c_stride,
               default_gemm_tiling(), pool());
  reference_gemm(a.data(), b.data(), c_ref.data(), gc.batch, gc.m, gc.n, gc.k,
                 gc.trans_a, gc.trans_b, a_stride, b_stride, c_stride, pool());
  for (std::int64_t bi = 0; bi < gc.batch; ++bi)
    for (std::int64_t r = 0; r < gc.m; ++r)
      for (std::int64_t col = 0; col < gc.n; ++col) {
        const std::int64_t i = bi * c_stride + r * gc.n + col;
        const double abs_sum =
            gemm_abs_sum(a.data() + bi * a_stride, b.data() + bi * b_stride, gc.m,
                         gc.n, gc.k, gc.trans_a, gc.trans_b, r, col);
        EXPECT_TRUE(within_fp32_bound(c_blocked[static_cast<std::size_t>(i)],
                                      c_ref[static_cast<std::size_t>(i)], gc.k,
                                      abs_sum))
            << "element " << i;
      }
}

TEST(BlockedGemm, MatchesReferenceWithinBoundRank2) {
  // Odd, non-tile-multiple shapes so every edge path (partial micro-tile,
  // partial KC block) is exercised in all four transpose combinations.
  for (bool ta : {false, true})
    for (bool tb : {false, true}) run_case({1, 67, 35, 129, ta, tb, false});
}

TEST(BlockedGemm, MatchesReferenceWithinBoundBatched) {
  for (bool ta : {false, true})
    for (bool tb : {false, true}) run_case({3, 17, 29, 41, ta, tb, false});
}

TEST(BlockedGemm, MatchesReferenceWithinBoundBroadcastB) {
  for (bool ta : {false, true})
    for (bool tb : {false, true}) run_case({4, 13, 19, 23, ta, tb, true});
}

TEST(BlockedGemm, MatchesReferenceWithinBoundTinyAndAlignedShapes) {
  run_case({1, 1, 1, 1, false, false, false});
  run_case({1, 4, 8, 16, false, false, false});     // exact micro-tiles
  run_case({1, 128, 128, 128, false, true, false});  // exact-ish macro fit
  run_case({2, 5, 3, 2, true, false, false});
}

/// The two micro-kernels blocked_gemm can run: the scalar one (packed for
/// the seed tile, which no compiled kernel takes) and the active ISA's
/// compiled one (packed for its register tile).
std::vector<GemmTiling> both_micro_kernels() {
  return {select_gemm_tiling(kGemmModelCacheBytes, sizeof(float), {kGemmMr, kGemmNr}),
          default_gemm_tiling()};
}

std::string tile_name(const GemmTiling& t) {
  return std::to_string(t.mr) + "x" + std::to_string(t.nr);
}

TEST(BlockedGemm, AccumulatesInFloatInAscendingK) {
  // k spans three KC blocks, so the chain is carried across block edges in
  // the float accumulator tile.
  for (const GemmTiling& tiling : both_micro_kernels()) {
    const std::int64_t k = 2 * tiling.kc + 7;
    for (const auto& [m, n] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{{1, 1}, {3, 5}}) {
      SCOPED_TRACE(testing::Message() << tile_name(tiling) << " m=" << m
                                      << " n=" << n << " k=" << k);
      const std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), 101);
      const std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), 103);
      std::vector<float> c(static_cast<std::size_t>(m * n)), want(c.size());
      blocked_gemm(a.data(), b.data(), c.data(), 1, m, n, k, false, false, 0, 0, 0,
                   tiling, pool());
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
          float acc = 0;
          for (std::int64_t p = 0; p < k; ++p)
            acc += a[static_cast<std::size_t>(i * k + p)] *
                   b[static_cast<std::size_t>(p * n + j)];
          want[static_cast<std::size_t>(i * n + j)] = acc;
        }
      EXPECT_EQ(bits_of(c), bits_of(want));
    }
  }
}

TEST(BlockedGemm, BitwiseIdenticalAcrossThreadCounts) {
  const std::int64_t m = 151, n = 93, k = 77;
  const std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), 5);
  const std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), 9);
  const std::vector<float> bias = random_vec(static_cast<std::size_t>(n), 13);
  GemmEpilogue bias_tanh;
  bias_tanh.bias = bias.data();
  bias_tanh.act = GemmEpilogue::Act::kTanh;
  for (const GemmTiling& tiling : both_micro_kernels())
    for (const GemmEpilogue& epi : {GemmEpilogue{}, bias_tanh}) {
      SCOPED_TRACE(testing::Message() << tile_name(tiling)
                                      << " epilogue=" << (epi.bias != nullptr));
      std::vector<std::vector<std::uint32_t>> runs;
      for (int threads : {1, 2, 8}) {
        conc::ThreadPool tp(threads);
        std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
        blocked_gemm(a.data(), b.data(), c.data(), 1, m, n, k, false, false, 0, 0,
                     0, tiling, tp, nullptr, epi);
        runs.push_back(bits_of(c));
      }
      EXPECT_EQ(runs[0], runs[1]);
      EXPECT_EQ(runs[0], runs[2]);
    }
}

// Panels packed once by pack_b_panels hold exactly the strips per-tile
// packing produces, so a prepacked call matches a per-call one bitwise:
// ragged n (a multiple of neither nr nor nc), k over three KC blocks, both
// trans_b, a bias + activation epilogue, a rank-3 A over a broadcast B and
// 1 or 3 threads. Prepacked B is not charged to GemmTraffic.
TEST(BlockedGemm, PrepackedPanelsMatchPerCallPackingBitwise) {
  conc::ThreadPool one(1), three(3);
  const std::int64_t m = 11;
  for (const GemmTiling& tiling : both_micro_kernels()) {
    const std::int64_t n = tiling.nc + tiling.nr + 3, k = 2 * tiling.kc + 9;
    const std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), 43);
    const std::vector<float> bias = random_vec(static_cast<std::size_t>(n), 47);
    GemmEpilogue bias_sigmoid;
    bias_sigmoid.bias = bias.data();
    bias_sigmoid.act = GemmEpilogue::Act::kSigmoid;
    for (bool trans_b : {false, true}) {
      std::vector<float> panels(static_cast<std::size_t>(packed_b_floats(k, n, tiling)));
      pack_b_panels(b.data(), trans_b, k, n, tiling, panels.data());
      for (std::int64_t batch : {1, 3})
        for (const GemmEpilogue& epi : {GemmEpilogue{}, bias_sigmoid})
          for (conc::ThreadPool* tp : {&one, &three}) {
            SCOPED_TRACE(testing::Message()
                         << tile_name(tiling) << " trans_b=" << trans_b << " batch=" << batch
                         << " epilogue=" << (epi.bias != nullptr)
                         << " threads=" << tp->thread_count());
            const std::vector<float> a =
                random_vec(static_cast<std::size_t>(batch * m * k), 41);
            std::vector<float> per_call(static_cast<std::size_t>(batch * m * n));
            std::vector<float> prepacked(per_call.size());
            blocked_gemm(a.data(), b.data(), per_call.data(), batch, m, n, k, false,
                         trans_b, m * k, 0, m * n, tiling, *tp, nullptr, epi);
            GemmTraffic traffic;
            blocked_gemm(a.data(), nullptr, prepacked.data(), batch, m, n, k, false,
                         trans_b, m * k, 0, m * n, tiling, *tp, &traffic, epi,
                         panels.data());
            EXPECT_EQ(bits_of(prepacked), bits_of(per_call));
            EXPECT_EQ(traffic.b_packed_bytes, 0.0);
            EXPECT_GT(traffic.a_packed_bytes, 0.0);
          }
    }
  }
}

TEST(GemmTiling, FollowsPaperTileRule) {
  // T = floor(sqrt(cache / (3 * dtype))) — the same rule as
  // hw::tiled_matmul_bytes; MC/NC round down to micro-tile multiples.
  const GemmTiling t = select_gemm_tiling(256.0 * 1024.0, 4);
  const auto edge = static_cast<std::int64_t>(std::floor(std::sqrt(256.0 * 1024.0 / 12.0)));
  EXPECT_EQ(t.kc, edge);
  EXPECT_EQ(t.mc, edge / kGemmMr * kGemmMr);
  EXPECT_EQ(t.nc, edge / kGemmNr * kGemmNr);
  EXPECT_GT(t.mc, 0);
  EXPECT_GT(t.nc, 0);

  // Degenerate cache still yields a usable (micro-tile) blocking.
  const GemmTiling tiny = select_gemm_tiling(16.0, 4);
  EXPECT_EQ(tiny.mc, kGemmMr);
  EXPECT_EQ(tiny.nc, kGemmNr);
  EXPECT_GE(tiny.kc, 1);
}

TEST(GemmTraffic, GrowsOncePanelsExceedModeledCache) {
  // With a fixed tiling, measured packed traffic per FLOP should grow once
  // the matrices outgrow a single macro-tile — the qualitative trend
  // hw::tiled_matmul_bytes predicts (ceil(N/T) re-reads of A, etc.).
  const GemmTiling small = select_gemm_tiling(8.0 * 1024.0, 4);  // T ~= 26
  auto traffic_per_elem = [&](std::int64_t edge) {
    const auto elems = static_cast<std::size_t>(edge * edge);
    const std::vector<float> a = random_vec(elems, 3);
    const std::vector<float> b = random_vec(elems, 7);
    std::vector<float> c(elems, 0.0f);
    GemmTraffic t;
    blocked_gemm(a.data(), b.data(), c.data(), 1, edge, edge, edge, false, false,
                 0, 0, 0, small, pool(), &t);
    // Normalize by the compulsory volume (3 matrices) to get a re-read factor.
    return t.total() / (3.0 * static_cast<double>(elems) * sizeof(float));
  };
  const double in_cache = traffic_per_elem(24);    // fits one macro-tile
  const double out_of_cache = traffic_per_elem(96);  // 4x4 tile grid
  EXPECT_GT(out_of_cache, 1.5 * in_cache);

  // And the model agrees about the direction of the trend.
  const double model_small = hw::tiled_matmul_bytes(24, 24, 24, 1, 4, 8.0 * 1024.0) /
                             (3.0 * 24.0 * 24.0 * 4.0);
  const double model_large = hw::tiled_matmul_bytes(96, 96, 96, 1, 4, 8.0 * 1024.0) /
                             (3.0 * 96.0 * 96.0 * 4.0);
  EXPECT_GT(model_large, model_small);
}

// --- KernelStats byte accounting pinned to the IR's algorithmic bytes ------

double ir_matmul_bytes(std::vector<std::int64_t> a_shape,
                       std::vector<std::int64_t> b_shape) {
  ir::Graph g("bytes");
  std::vector<sym::Expr> ae, be;
  for (auto d : a_shape) ae.emplace_back(static_cast<double>(d));
  for (auto d : b_shape) be.emplace_back(static_cast<double>(d));
  ir::Tensor* a = g.add_input("a", ir::TensorShape(ae));
  ir::Tensor* b = g.add_weight("b", ir::TensorShape(be));
  ir::Tensor* y = ir::matmul(g, "mm", a, b);
  return y->producer()->bytes_accessed().eval({});
}

void expect_matmul_stats_match(std::vector<std::int64_t> a_shape,
                               std::vector<std::int64_t> b_shape,
                               std::vector<std::int64_t> out_shape) {
  DenseTensor a(a_shape, ir::DataType::kFloat32);
  DenseTensor b(b_shape, ir::DataType::kFloat32);
  DenseTensor out(out_shape, ir::DataType::kFloat32);
  KernelStats stats;
  matmul(a, b, out, false, false, pool(), stats);
  EXPECT_DOUBLE_EQ(stats.bytes, ir_matmul_bytes(a_shape, b_shape));
}

TEST(MatmulStats, BytesMatchSymbolicRank2) {
  expect_matmul_stats_match({6, 10}, {10, 14}, {6, 14});
}

TEST(MatmulStats, BytesMatchSymbolicBatched) {
  expect_matmul_stats_match({3, 6, 10}, {3, 10, 14}, {3, 6, 14});
}

TEST(MatmulStats, BytesMatchSymbolicBroadcastB) {
  // The broadcast case the accounting documents: shared rank-2 B under a
  // rank-3 A is charged once, not once per batch.
  expect_matmul_stats_match({5, 6, 10}, {10, 14}, {5, 6, 14});
  DenseTensor a({5, 6, 10}, ir::DataType::kFloat32);
  DenseTensor b({10, 14}, ir::DataType::kFloat32);
  DenseTensor out({5, 6, 14}, ir::DataType::kFloat32);
  KernelStats stats;
  matmul(a, b, out, false, false, pool(), stats);
  const double dtype = 4.0;
  EXPECT_DOUBLE_EQ(stats.bytes, dtype * (5 * 6 * 10 + 10 * 14 + 5 * 6 * 14));
}

// --- alignment -------------------------------------------------------------

TEST(Alignment, DenseTensorBuffersAre64ByteAligned) {
  for (std::int64_t n : {1, 3, 17, 1000}) {
    DenseTensor f({n}, ir::DataType::kFloat32);
    DenseTensor i({n}, ir::DataType::kInt32);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.fdata()) % kTensorAlignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i.idata()) % kTensorAlignment, 0u);
  }
}

TEST(Alignment, AlignedVectorIsAligned) {
  AlignedVector<float> v(7);
  AlignedVector<double> d(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kTensorAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % kTensorAlignment, 0u);
}

// --- conv lowering vs reference -------------------------------------------

TEST(ConvBlocked, ForwardMatchesReferenceWithinBound) {
  // im2col orders taps (kh, kw, c) ascending with explicit zeros for
  // padding, so each output is one fp32 GEMM chain over KH*KW*C taps and
  // meets the GEMM's bound against the double-accumulating reference loops.
  const std::vector<std::int64_t> in_shape{2, 9, 7, 3}, f_shape{3, 3, 3, 5};
  DenseTensor in = tensor_from(in_shape, random_vec(2 * 9 * 7 * 3, 31));
  DenseTensor f = tensor_from(f_shape, random_vec(3 * 3 * 3 * 5, 37));
  DenseTensor out({2, 9, 7, 5}, ir::DataType::kFloat32);
  DenseTensor out_ref({2, 9, 7, 5}, ir::DataType::kFloat32);
  KernelStats s1, s2;
  conv2d(in, f, out, 1, pool(), s1);
  conv2d_reference(in, f, out_ref, 1, s2);
  expect_conv_within_bound(in, f, out, out_ref);
  EXPECT_DOUBLE_EQ(s1.flops, s2.flops);
  EXPECT_DOUBLE_EQ(s1.bytes, s2.bytes);
}

TEST(ConvBlocked, GradientsMatchReferenceNumerically) {
  // The GEMM-lowered gradients accumulate in a different (associativity)
  // order than the reference scatter loops, so equality is numeric.
  const std::vector<std::int64_t> in_shape{1, 6, 6, 2}, f_shape{3, 3, 2, 4};
  DenseTensor in = tensor_from(in_shape, random_vec(6 * 6 * 2, 41));
  DenseTensor f = tensor_from(f_shape, random_vec(3 * 3 * 2 * 4, 43));
  DenseTensor dy = tensor_from({1, 6, 6, 4}, random_vec(6 * 6 * 4, 47));

  DenseTensor dx({1, 6, 6, 2}, ir::DataType::kFloat32);
  DenseTensor dx_ref({1, 6, 6, 2}, ir::DataType::kFloat32);
  DenseTensor df({3, 3, 2, 4}, ir::DataType::kFloat32);
  DenseTensor df_ref({3, 3, 2, 4}, ir::DataType::kFloat32);
  KernelStats s;
  conv2d_grad_input(dy, f, dx, 1, pool(), s);
  conv2d_grad_input_reference(dy, f, dx_ref, 1, s);
  conv2d_grad_filter(in, dy, df, 1, pool(), s);
  conv2d_grad_filter_reference(in, dy, df_ref, 1, s);
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    EXPECT_NEAR(dx.f(i), dx_ref.f(i), 1e-4f) << i;
  for (std::int64_t i = 0; i < df.numel(); ++i)
    EXPECT_NEAR(df.f(i), df_ref.f(i), 1e-3f) << i;
}

TEST(ConvBlocked, GradientsBitwiseIdenticalAcrossThreadCounts) {
  DenseTensor in = tensor_from({2, 5, 5, 3}, random_vec(2 * 5 * 5 * 3, 53));
  DenseTensor f = tensor_from({3, 3, 3, 4}, random_vec(3 * 3 * 3 * 4, 59));
  DenseTensor dy = tensor_from({2, 5, 5, 4}, random_vec(2 * 5 * 5 * 4, 61));
  std::vector<std::vector<std::uint32_t>> dx_runs, df_runs;
  for (int threads : {1, 2, 8}) {
    conc::ThreadPool tp(threads);
    DenseTensor dx({2, 5, 5, 3}, ir::DataType::kFloat32);
    DenseTensor df({3, 3, 3, 4}, ir::DataType::kFloat32);
    KernelStats s;
    conv2d_grad_input(dy, f, dx, 1, tp, s);
    conv2d_grad_filter(in, dy, df, 1, tp, s);
    std::vector<float> dxv(dx.fdata(), dx.fdata() + dx.numel());
    std::vector<float> dfv(df.fdata(), df.fdata() + df.numel());
    dx_runs.push_back(bits_of(dxv));
    df_runs.push_back(bits_of(dfv));
  }
  EXPECT_EQ(dx_runs[0], dx_runs[1]);
  EXPECT_EQ(dx_runs[0], dx_runs[2]);
  EXPECT_EQ(df_runs[0], df_runs[1]);
  EXPECT_EQ(df_runs[0], df_runs[2]);
}

// --- parallelized serial kernels stay deterministic ------------------------

TEST(ParallelKernels, EmbeddingSoftmaxReduceBitwiseAcrossThreadCounts) {
  const std::int64_t rows = 200, vocab = 37, embed = 50;
  DenseTensor table = tensor_from({vocab, embed},
                                  random_vec(static_cast<std::size_t>(vocab * embed), 71));
  DenseTensor ids({rows}, ir::DataType::kInt32);
  for (std::int64_t r = 0; r < rows; ++r) ids.i32(r) = static_cast<std::int32_t>((r * 7) % vocab);
  DenseTensor dy = tensor_from({rows, embed},
                               random_vec(static_cast<std::size_t>(rows * embed), 73));
  DenseTensor logits = tensor_from({rows, embed},
                                   random_vec(static_cast<std::size_t>(rows * embed), 79));

  std::vector<std::vector<std::uint32_t>> runs;
  for (int threads : {1, 8}) {
    conc::ThreadPool tp(threads);
    KernelStats s;
    DenseTensor looked({rows, embed}, ir::DataType::kFloat32);
    DenseTensor dtable({vocab, embed}, ir::DataType::kFloat32);
    DenseTensor soft({rows, embed}, ir::DataType::kFloat32);
    DenseTensor red({embed}, ir::DataType::kFloat32);
    embedding_lookup(table, ids, looked, tp, s);
    embedding_grad(ids, dy, dtable, tp, s);
    softmax(logits, soft, tp, s);
    reduce(ir::ReduceKind::kMean, dy, red, tp, s);
    std::vector<float> all;
    all.insert(all.end(), looked.fdata(), looked.fdata() + looked.numel());
    all.insert(all.end(), dtable.fdata(), dtable.fdata() + dtable.numel());
    all.insert(all.end(), soft.fdata(), soft.fdata() + soft.numel());
    all.insert(all.end(), red.fdata(), red.fdata() + red.numel());
    runs.push_back(bits_of(all));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(ParallelKernels, ElementAndRowKernelsBitwiseAcrossThreadCounts) {
  // Sizes put several element blocks and several row chunks in every
  // parallel loop, with a ragged last one.
  const std::int64_t n = 3 * 4096 + 5, rows = 300, cols = 200;
  using Fn = ir::PointwiseFn;
  // y stays in (0, 1) so sigmoid/tanh-grad see realistic inputs; v > 0 for
  // Adam's sqrt.
  std::vector<float> yv = random_vec(static_cast<std::size_t>(n), 101);
  for (float& y : yv) y = 0.5f + 0.45f * y;
  const DenseTensor x0 = tensor_from({n}, random_vec(static_cast<std::size_t>(n), 97));
  const DenseTensor x1 = tensor_from({n}, random_vec(static_cast<std::size_t>(n), 99));
  const DenseTensor y = tensor_from({n}, yv);
  const DenseTensor grid =
      tensor_from({rows, cols}, random_vec(static_cast<std::size_t>(rows * cols), 103));
  const DenseTensor grid2 =
      tensor_from({rows, cols}, random_vec(static_cast<std::size_t>(rows * cols), 107));
  const DenseTensor scale = tensor_from({cols}, random_vec(cols, 109));
  const DenseTensor shift = tensor_from({cols}, random_vec(cols, 113));
  const DenseTensor dloss = tensor_from({rows}, random_vec(rows, 127));
  DenseTensor labels({rows}, ir::DataType::kInt32);
  for (std::int64_t r = 0; r < rows; ++r)
    labels.i32(r) = static_cast<std::int32_t>((r * 13) % cols);
  const DenseTensor cube =
      tensor_from({6, 40, 70}, random_vec(6 * 40 * 70, 131));

  std::vector<std::vector<std::uint32_t>> runs;
  for (int threads : {1, 3, 8}) {
    conc::ThreadPool tp(static_cast<std::size_t>(threads));
    KernelStats s;
    std::vector<float> all;
    auto keep = [&](const DenseTensor& t) {
      all.insert(all.end(), t.fdata(), t.fdata() + t.numel());
    };
    for (Fn fn : {Fn::kAdd, Fn::kSub, Fn::kMul, Fn::kAddN, Fn::kSigmoid, Fn::kTanh,
                  Fn::kRelu, Fn::kOneMinus, Fn::kScale, Fn::kIdentity, Fn::kSigmoidGrad,
                  Fn::kTanhGrad, Fn::kReluGrad}) {
      std::vector<const DenseTensor*> in;
      switch (fn) {
        case Fn::kAdd: case Fn::kSub: case Fn::kMul: case Fn::kReluGrad:
          in = {&x0, &x1};
          break;
        case Fn::kSigmoidGrad: case Fn::kTanhGrad: in = {&y, &x1}; break;
        case Fn::kAddN: in = {&x0, &x1, &y}; break;
        default: in = {&x0}; break;
      }
      DenseTensor out({n}, ir::DataType::kFloat32);
      pointwise(fn, in, 0.37, out, tp, s);
      keep(out);
    }
    for (ir::Optimizer opt :
         {ir::Optimizer::kSGD, ir::Optimizer::kMomentum, ir::Optimizer::kAdam}) {
      DenseTensor w = x0;
      DenseTensor m = x1;
      DenseTensor v = y;
      std::vector<DenseTensor*> slots;
      if (opt == ir::Optimizer::kMomentum) slots = {&m};
      if (opt == ir::Optimizer::kAdam) slots = {&m, &v};
      for (int step = 0; step < 2; ++step)
        apply_gradient(opt, w, x1, slots, 0.05, tp, s);
      keep(w);
      keep(m);
      keep(v);
    }
    for (std::size_t axis = 0; axis < 3; ++axis) {
      std::vector<std::int64_t> part_shape = cube.shape();
      part_shape[axis] /= 2;
      DenseTensor lo(part_shape, ir::DataType::kFloat32);
      DenseTensor hi(part_shape, ir::DataType::kFloat32);
      split(cube, axis, {&lo, &hi}, tp, s);
      DenseTensor cat(cube.shape(), ir::DataType::kFloat32);
      concat({&hi, &lo}, axis, cat, tp, s);
      DenseTensor sl(part_shape, ir::DataType::kFloat32);
      slice(cube, axis, cube.dim(axis) / 4, sl, tp, s);
      keep(lo);
      keep(hi);
      keep(cat);
      keep(sl);
    }
    for (ir::ReduceKind kind : {ir::ReduceKind::kSum, ir::ReduceKind::kMean}) {
      DenseTensor red({cols}, ir::DataType::kFloat32);
      reduce(kind, grid, red, tp, s);
      keep(red);
    }
    DenseTensor dx({rows, cols}, ir::DataType::kFloat32);
    softmax_grad(grid, grid2, dx, tp, s);
    keep(dx);
    softmax_xent_grad(grid, labels, dloss, dx, tp, s);
    keep(dx);
    DenseTensor bn({rows, cols}, ir::DataType::kFloat32);
    batch_norm(grid, scale, shift, bn, tp, s);
    keep(bn);
    DenseTensor dscale({cols}, ir::DataType::kFloat32);
    DenseTensor dshift({cols}, ir::DataType::kFloat32);
    batch_norm_grad(grid, scale, grid2, bn, dscale, dshift, tp, s);
    keep(bn);
    keep(dscale);
    keep(dshift);
    runs.push_back(bits_of(all));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

}  // namespace
}  // namespace gf::rt
