// Kernel-layer microbenchmark: blocked GEMM / conv kernels vs the retained
// reference implementations, validated against the paper's cache model.
//
// Seven sections. Sections 1-3 and 5-7 go to BENCH_kernels.json, section
// 4 to BENCH_codegen.json:
//
//  1. GEMM sweep over shapes drawn from the paper's models (word-LM
//     projection, NMT attention/recurrent, ResNet im2col shapes) plus the
//     canonical 1024^3 square: GFLOP/s, speedup vs `reference_gemm`, the
//     worst error against it divided by the fp32 accumulation bound
//     (gemm.h; must be <= 1), and whether the output is bitwise-identical
//     at 1, 2 and 8 threads.
//  2. Conv forward lowering vs the reference direct loops, with the same
//     error-over-bound and thread-count gates.
//  3. Traffic-model cross-check: with a deliberately small fixed tiling,
//     measured packed bytes per compulsory byte must grow once the matrices
//     outgrow one macro-tile, tracking the `hw::tiled_matmul_bytes` trend
//     (the paper's §4 tiled-GEMM traffic shape). Mismatched direction is a
//     hard failure (nonzero exit), as is an error over its bound or a
//     thread-count mismatch.
//  4. Codegen: fused-pointwise chains drawn from the paper's cells (LSTM
//     cell epilogue, RHN carry gate, residual+bias ReLU, gate backprop)
//     run compiled-vs-interpreter per supported ISA, plus the blocked GEMM
//     packed for the seed 4x8 tile (the scalar micro-kernel) vs the
//     register-tile-rule compiled one. Each chain is lowered once outside
//     the timed region, as the executor does. Exact-ops chains must match
//     the interpreter bitwise; sigmoid/tanh chains within epsilon. Outside
//     --smoke, at least one chain must clear a 2x compiled speedup or the
//     run fails.
//  5. Element and row kernels on word_lm's shapes (h128, batch 16): the
//     256x512 weight-gradient accumulation add, the [16x128]+[16x128]
//     concat, the [16x512] -> 4x[16x128] split and Adam on 256x512, in
//     us per call and GB/s of the kernel's charged bytes, next to the
//     host's single-thread copy bandwidth (rt::measure_copy_bandwidth).
//     Each output must be bitwise-equal to the per-element loop kept
//     here, smoke included; GB/s is reported, not gated.
//  6. One word_lm layer's recurrent weight gradient (z [b, 256], dgates
//     [b, 512], T = 20; smaller under --smoke) at b = 2 on one thread and
//     b = 16 on three: T GEMMs with K = b plus T-1 adds, in us, against
//     the stacked form ir::stack_weight_gradients produces (2 Concats and
//     one GEMM with K = T*b). The stacked result must lie within the
//     (T*b+2)*2^-24*sum|z*dg| bound of a double-precision sum, smoke
//     included; times are reported, not gated.
//  7. Shared-weight packing: one word_lm layer's T = 20 forward GEMMs
//     z_t·W (z [b, 256], W [256, 512]) and input-gradient GEMMs
//     dgates_t·Wᵀ (dgates [b, 512]; smaller under --smoke) at b = 2 on one
//     thread and b = 16 on three, each packing W per call, against
//     pack_b_panels once per trans_b and 2T calls on the panels (what the
//     executor does per step). Every prepacked output must be bitwise
//     equal to its per-call output, smoke included; times are reported,
//     not gated.
//
// Flags: --smoke (tiny shapes, 1 rep — CI), --threads N, --out PATH,
// --codegen-out PATH.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/concurrency/thread_pool.h"
#include "src/hw/cache_model.h"
#include "src/hw/cpu_features.h"
#include "src/runtime/codegen/lowering.h"
#include "src/runtime/datapar.h"
#include "src/runtime/gemm.h"
#include "src/runtime/kernels.h"
#include "src/util/format.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace {

using namespace gf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

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

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> abs_of(std::vector<float> v) {
  for (float& x : v) x = std::abs(x);
  return v;
}

/// Worst |c - ref| / ((k+2) * 2^-24 * abs_sum) over n elements: the fp32
/// accumulation contract of the blocked GEMM against the double reference
/// (gemm.h), where abs_sum[i] = sum_p |a_ip * b_pj|. At most 1 passes.
double max_err_over_bound(const float* c, const float* ref, const float* abs_sum,
                          std::size_t n, std::int64_t k) {
  const double unit = static_cast<double>(k + 2) * std::ldexp(1.0, -24);
  double worst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double err = std::abs(static_cast<double>(c[i]) - static_cast<double>(ref[i]));
    if (err > 0) worst = std::max(worst, err / (unit * abs_sum[i]));
  }
  return worst;
}

struct GemmShape {
  const char* label;
  std::int64_t m, n, k;
};

struct GemmResult {
  std::string label;
  std::int64_t m, n, k;
  double blocked_gflops = 0;
  double reference_gflops = 0;
  double speedup = 0;
  double measured_traffic_bytes = 0;
  double model_traffic_bytes = 0;
  double max_err_over_bound = 0;
  bool bitwise_across_threads = false;
};

/// Best-of-reps wall time of fn() in seconds.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

GemmResult bench_gemm_shape(const GemmShape& shape, conc::ThreadPool& pool, int reps) {
  const auto a_elems = static_cast<std::size_t>(shape.m * shape.k);
  const auto b_elems = static_cast<std::size_t>(shape.k * shape.n);
  const auto c_elems = static_cast<std::size_t>(shape.m * shape.n);
  const std::vector<float> a = random_vec(a_elems, 17);
  const std::vector<float> b = random_vec(b_elems, 19);
  std::vector<float> c_blocked(c_elems), c_ref(c_elems);
  const double flops = 2.0 * static_cast<double>(shape.m) * shape.n * shape.k;
  const rt::GemmTiling& tiling = rt::default_gemm_tiling();

  GemmResult res;
  res.label = shape.label;
  res.m = shape.m;
  res.n = shape.n;
  res.k = shape.k;

  rt::GemmTraffic traffic;
  const double t_blocked = time_best(reps, [&] {
    rt::blocked_gemm(a.data(), b.data(), c_blocked.data(), 1, shape.m, shape.n,
                     shape.k, false, false, 0, 0, 0, tiling, pool);
  });
  // One extra counted run for the traffic numbers (counting is off during
  // the timed reps to keep the atomics out of the measured loop).
  rt::blocked_gemm(a.data(), b.data(), c_blocked.data(), 1, shape.m, shape.n,
                   shape.k, false, false, 0, 0, 0, tiling, pool, &traffic);
  const double t_ref = time_best(reps, [&] {
    rt::reference_gemm(a.data(), b.data(), c_ref.data(), 1, shape.m, shape.n,
                       shape.k, false, false, 0, 0, 0, pool);
  });

  res.blocked_gflops = flops / t_blocked / 1e9;
  res.reference_gflops = flops / t_ref / 1e9;
  res.speedup = t_ref / t_blocked;
  res.measured_traffic_bytes = traffic.total();
  res.model_traffic_bytes =
      hw::tiled_matmul_bytes(static_cast<double>(shape.m), static_cast<double>(shape.n),
                             static_cast<double>(shape.k), 1.0, sizeof(float),
                             rt::kGemmModelCacheBytes);
  // sum_p |a_ip * b_pj| per element, accumulated in double by the reference.
  std::vector<float> abs_sum(c_elems);
  rt::reference_gemm(abs_of(a).data(), abs_of(b).data(), abs_sum.data(), 1, shape.m,
                     shape.n, shape.k, false, false, 0, 0, 0, pool);
  res.max_err_over_bound = max_err_over_bound(c_blocked.data(), c_ref.data(),
                                              abs_sum.data(), c_elems, shape.k);

  // Thread-count determinism: 1, 2, and 8 workers must agree bitwise.
  res.bitwise_across_threads = true;
  for (int threads : {1, 2, 8}) {
    conc::ThreadPool tp(static_cast<std::size_t>(threads));
    std::vector<float> c(c_elems);
    rt::blocked_gemm(a.data(), b.data(), c.data(), 1, shape.m, shape.n, shape.k,
                     false, false, 0, 0, 0, tiling, tp);
    res.bitwise_across_threads = res.bitwise_across_threads && bitwise_equal(c, c_blocked);
  }
  return res;
}

struct ConvResult {
  std::string label;
  double blocked_gflops = 0;
  double reference_gflops = 0;
  double speedup = 0;
  double max_err_over_bound = 0;
  bool bitwise_across_threads = false;
};

ConvResult bench_conv(std::int64_t n, std::int64_t hw_dim, std::int64_t c,
                      std::int64_t f, conc::ThreadPool& pool, int reps,
                      const char* label) {
  rt::DenseTensor in({n, hw_dim, hw_dim, c}, ir::DataType::kFloat32);
  rt::DenseTensor filt({3, 3, c, f}, ir::DataType::kFloat32);
  rt::DenseTensor out({n, hw_dim, hw_dim, f}, ir::DataType::kFloat32);
  rt::DenseTensor out_ref({n, hw_dim, hw_dim, f}, ir::DataType::kFloat32);
  const std::vector<float> xv = random_vec(static_cast<std::size_t>(in.numel()), 29);
  const std::vector<float> wv = random_vec(static_cast<std::size_t>(filt.numel()), 31);
  std::memcpy(in.fdata(), xv.data(), xv.size() * sizeof(float));
  std::memcpy(filt.fdata(), wv.data(), wv.size() * sizeof(float));

  rt::KernelStats stats;
  const double t_blocked = time_best(
      reps, [&] { rt::conv2d(in, filt, out, 1, pool, stats); });
  const double t_ref =
      time_best(reps, [&] { rt::conv2d_reference(in, filt, out_ref, 1, stats); });
  const double flops = 2.0 * static_cast<double>(out.numel()) * 9 * c;

  ConvResult res;
  res.label = label;
  res.blocked_gflops = flops / t_blocked / 1e9;
  res.reference_gflops = flops / t_ref / 1e9;
  res.speedup = t_ref / t_blocked;

  // The tap sums sum |x * w| over each window (k = 3*3*c), by the reference.
  rt::DenseTensor abs_in({n, hw_dim, hw_dim, c}, ir::DataType::kFloat32);
  rt::DenseTensor abs_filt({3, 3, c, f}, ir::DataType::kFloat32);
  rt::DenseTensor abs_sum({n, hw_dim, hw_dim, f}, ir::DataType::kFloat32);
  const std::vector<float> abs_x = abs_of(xv), abs_w = abs_of(wv);
  std::memcpy(abs_in.fdata(), abs_x.data(), abs_x.size() * sizeof(float));
  std::memcpy(abs_filt.fdata(), abs_w.data(), abs_w.size() * sizeof(float));
  rt::conv2d_reference(abs_in, abs_filt, abs_sum, 1, stats);
  const auto out_elems = static_cast<std::size_t>(out.numel());
  res.max_err_over_bound = max_err_over_bound(out.fdata(), out_ref.fdata(),
                                              abs_sum.fdata(), out_elems, 9 * c);

  res.bitwise_across_threads = true;
  for (int threads : {1, 2, 8}) {
    conc::ThreadPool tp(static_cast<std::size_t>(threads));
    rt::DenseTensor again({n, hw_dim, hw_dim, f}, ir::DataType::kFloat32);
    rt::conv2d(in, filt, again, 1, tp, stats);
    res.bitwise_across_threads =
        res.bitwise_across_threads &&
        std::memcmp(again.fdata(), out.fdata(), out_elems * sizeof(float)) == 0;
  }
  return res;
}

struct TrafficPoint {
  std::int64_t edge = 0;
  double measured_ratio = 0;  // packed bytes / compulsory bytes
  double model_ratio = 0;     // model bytes / compulsory bytes
};

/// Fixed-small-tiling sweep: both ratios must rise as the matrices outgrow
/// the modeled tile, which is the §4 claim this binary exists to validate.
std::vector<TrafficPoint> traffic_sweep(conc::ThreadPool& pool,
                                        const std::vector<std::int64_t>& edges) {
  const double cache = 8.0 * 1024.0;
  const rt::GemmTiling tiling = rt::select_gemm_tiling(cache, sizeof(float));
  std::vector<TrafficPoint> pts;
  for (std::int64_t edge : edges) {
    const auto elems = static_cast<std::size_t>(edge * edge);
    const std::vector<float> a = random_vec(elems, 37);
    const std::vector<float> b = random_vec(elems, 41);
    std::vector<float> c(elems);
    rt::GemmTraffic t;
    rt::blocked_gemm(a.data(), b.data(), c.data(), 1, edge, edge, edge, false,
                     false, 0, 0, 0, tiling, pool, &t);
    const double compulsory = 3.0 * static_cast<double>(elems) * sizeof(float);
    TrafficPoint p;
    p.edge = edge;
    p.measured_ratio = t.total() / compulsory;
    p.model_ratio = hw::tiled_matmul_bytes(static_cast<double>(edge),
                                           static_cast<double>(edge),
                                           static_cast<double>(edge), 1.0,
                                           sizeof(float), cache) /
                    compulsory;
    pts.push_back(p);
  }
  return pts;
}

// ---------------------------------------------------------------------------
// Section 4: codegen — compiled fused pointwise and the GEMM micro-kernel.
// ---------------------------------------------------------------------------

/// A fused per-element program with paper-derived shape: the chains the
/// graph-level fusion pass actually forms on the six models.
struct ChainSpec {
  const char* label;
  std::vector<std::int64_t> input_elems;  // element count per input
  std::vector<ir::FusedInstr> program;
  /// True when every instruction is an exact-IEEE op (no kSigmoid/kTanh):
  /// the compiled path must then match the interpreter bitwise.
  bool exact = false;
};

/// The LSTM cell epilogue: h = sigmoid(o) * tanh(sigmoid(i)*tanh(g) +
/// sigmoid(f)*c_prev). Inputs: i, f, g, o preactivations and c_prev.
ChainSpec lstm_cell_chain(std::int64_t n) {
  using F = ir::PointwiseFn;
  ChainSpec c;
  c.label = "lstm_cell";
  c.input_elems = {n, n, n, n, n};
  c.program = {{F::kSigmoid, {0}},   // 5: sigmoid(i)
               {F::kSigmoid, {1}},   // 6: sigmoid(f)
               {F::kTanh, {2}},      // 7: tanh(g)
               {F::kMul, {5, 7}},    // 8: input gate * candidate
               {F::kMul, {6, 4}},    // 9: forget gate * c_prev
               {F::kAdd, {8, 9}},    // 10: c
               {F::kSigmoid, {3}},   // 11: sigmoid(o)
               {F::kTanh, {10}},     // 12: tanh(c)
               {F::kMul, {11, 12}}}; // 13: h
  return c;
}

/// The RHN carry gate: y = tanh(h)*s + x*(1-s), s = sigmoid(t). Inputs:
/// h, t, x.
ChainSpec rhn_carry_chain(std::int64_t n) {
  using F = ir::PointwiseFn;
  ChainSpec c;
  c.label = "rhn_carry";
  c.input_elems = {n, n, n};
  c.program = {{F::kSigmoid, {1}},  // 3: s
               {F::kTanh, {0}},     // 4: tanh(h)
               {F::kMul, {4, 3}},   // 5: tanh(h)*s
               {F::kOneMinus, {3}}, // 6: 1-s
               {F::kMul, {2, 6}},   // 7: x*(1-s)
               {F::kAdd, {5, 7}}};  // 8: y
  return c;
}

/// ResNet-style residual add with a broadcast rank-1 bias and ReLU:
/// y = relu(x + r + bias). The bias input exercises the periodic load
/// classification. Exact ops only — bitwise-checked.
ChainSpec residual_bias_relu_chain(std::int64_t n, std::int64_t hidden) {
  using F = ir::PointwiseFn;
  ChainSpec c;
  c.label = "residual_bias_relu";
  c.input_elems = {n, n, hidden};
  c.program = {{F::kAddN, {0, 1, 2}}, {F::kRelu, {3}}};
  c.exact = true;
  return c;
}

/// Gate backprop: dz = (1/b) * sigmoid_grad(y, dy). Exact ops only.
ChainSpec gate_backprop_chain(std::int64_t n) {
  using F = ir::PointwiseFn;
  ChainSpec c;
  c.label = "gate_backprop";
  c.input_elems = {n, n};
  c.program = {{F::kSigmoidGrad, {0, 1}},
               {F::kScale, {2}, sym::Expr(1.0 / 128.0)}};
  c.exact = true;
  return c;
}

struct ChainIsaResult {
  std::string isa;
  double gbytes_per_s = 0;
  double speedup = 0;  // vs the interpreter
};

struct ChainResult {
  std::string label;
  std::int64_t elems = 0;
  std::size_t instrs = 0;
  bool exact = false;
  double interp_gbytes_per_s = 0;
  std::vector<ChainIsaResult> per_isa;
  double best_speedup = 0;
  double max_rel_err = 0;   // compiled (best ISA) vs interpreter
  bool bitwise_ok = true;   // exact chains only; true otherwise
  bool parity_ok = false;
};

/// Max |a-b| / max(|b|, 1) over the tensors.
double max_rel_err(const rt::DenseTensor& a, const rt::DenseTensor& b) {
  double worst = 0;
  const float* pa = a.fdata();
  const float* pb = b.fdata();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double denom = std::max(std::abs(static_cast<double>(pb[i])), 1.0);
    worst = std::max(worst, std::abs(static_cast<double>(pa[i]) - pb[i]) / denom);
  }
  return worst;
}

/// Relative-error bound for chains through the polynomial kSigmoid/kTanh:
/// the Cephes exp is ~2 ulp, and the chains compose at most two of them.
constexpr double kChainRelTol = 1e-5;

ChainResult bench_chain(const ChainSpec& spec, conc::ThreadPool& pool, int reps) {
  const std::int64_t n =
      *std::max_element(spec.input_elems.begin(), spec.input_elems.end());
  std::vector<rt::DenseTensor> storage;
  storage.reserve(spec.input_elems.size());
  std::vector<const rt::DenseTensor*> inputs;
  for (std::size_t i = 0; i < spec.input_elems.size(); ++i) {
    storage.emplace_back(std::vector<std::int64_t>{spec.input_elems[i]},
                         ir::DataType::kFloat32);
    const std::vector<float> v =
        random_vec(static_cast<std::size_t>(spec.input_elems[i]),
                   static_cast<std::uint32_t>(53 + 7 * i));
    std::memcpy(storage.back().fdata(), v.data(), v.size() * sizeof(float));
  }
  for (const rt::DenseTensor& t : storage) inputs.push_back(&t);
  rt::DenseTensor out_interp({n}, ir::DataType::kFloat32);
  rt::DenseTensor out_simd({n}, ir::DataType::kFloat32);

  std::vector<float> alphas;
  for (const ir::FusedInstr& ins : spec.program)
    alphas.push_back(static_cast<float>(ins.alpha.eval(sym::Bindings{})));
  const rt::codegen::LoweredProgram lowered =
      rt::codegen::lower_program(spec.program, inputs.size());

  double moved_bytes = static_cast<double>(n) * sizeof(float);
  for (std::int64_t e : spec.input_elems)
    moved_bytes += static_cast<double>(e) * sizeof(float);

  ChainResult res;
  res.label = spec.label;
  res.elems = n;
  res.instrs = spec.program.size();
  res.exact = spec.exact;

  rt::KernelStats stats;
  const double t_interp = time_best(reps, [&] {
    rt::fused_pointwise(spec.program, inputs, alphas, out_interp, pool, stats);
  });
  res.interp_gbytes_per_s = moved_bytes / t_interp / 1e9;

  const hw::SimdIsa best = hw::best_simd_isa();
  for (const hw::SimdIsa isa :
       {hw::SimdIsa::kGeneric, hw::SimdIsa::kAvx2, hw::SimdIsa::kAvx512,
        hw::SimdIsa::kNeon}) {
    if (!hw::isa_supported(isa)) continue;
    const double t = time_best(reps, [&] {
      rt::fused_pointwise_simd(lowered, inputs, alphas, out_simd, pool, stats, isa);
    });
    ChainIsaResult r;
    r.isa = hw::simd_isa_name(isa);
    r.gbytes_per_s = moved_bytes / t / 1e9;
    r.speedup = t_interp / t;
    if (isa == best) {
      res.best_speedup = r.speedup;
      res.max_rel_err = max_rel_err(out_simd, out_interp);
      if (spec.exact)
        res.bitwise_ok =
            std::memcmp(out_simd.fdata(), out_interp.fdata(),
                        static_cast<std::size_t>(n) * sizeof(float)) == 0;
    }
    res.per_isa.push_back(r);
  }
  res.parity_ok = res.max_rel_err <= kChainRelTol && res.bitwise_ok;
  return res;
}

struct UkrResult {
  std::string label;
  double scalar_gflops = 0;
  double simd_gflops = 0;
  double speedup = 0;
  bool bitwise_match = false;
  std::string scalar_tile;
  std::string simd_tile;
};

/// Blocked GEMM packed for the seed 4x8 tile (the scalar micro-kernel) vs
/// the register-tile rule's compiled one — the same cache tiling either
/// way, so the delta is the micro-kernel. The two must agree bitwise (the
/// vector kernel replicates the scalar tile's unfused fp32
/// multiply-then-add order).
UkrResult bench_gemm_ukr(const GemmShape& shape, conc::ThreadPool& pool, int reps) {
  const std::vector<float> a =
      random_vec(static_cast<std::size_t>(shape.m * shape.k), 61);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(shape.k * shape.n), 67);
  std::vector<float> c_scalar(static_cast<std::size_t>(shape.m * shape.n));
  std::vector<float> c_simd(c_scalar.size());
  const double flops = 2.0 * static_cast<double>(shape.m) * shape.n * shape.k;

  UkrResult res;
  res.label = shape.label;

  {
    const rt::GemmTiling tiling = rt::select_gemm_tiling(
        rt::kGemmModelCacheBytes, sizeof(float), {rt::kGemmMr, rt::kGemmNr});
    res.scalar_tile = std::to_string(tiling.mr) + "x" + std::to_string(tiling.nr);
    const double t = time_best(reps, [&] {
      rt::blocked_gemm(a.data(), b.data(), c_scalar.data(), 1, shape.m, shape.n,
                       shape.k, false, false, 0, 0, 0, tiling, pool);
    });
    res.scalar_gflops = flops / t / 1e9;
  }
  {
    const rt::GemmTiling tiling = rt::default_gemm_tiling();
    res.simd_tile = std::to_string(tiling.mr) + "x" + std::to_string(tiling.nr);
    const double t = time_best(reps, [&] {
      rt::blocked_gemm(a.data(), b.data(), c_simd.data(), 1, shape.m, shape.n,
                       shape.k, false, false, 0, 0, 0, tiling, pool);
    });
    res.simd_gflops = flops / t / 1e9;
  }

  res.speedup = res.simd_gflops / res.scalar_gflops;
  res.bitwise_match = bitwise_equal(c_scalar, c_simd);
  return res;
}

// ---------------------------------------------------------------------------
// Section 5: element and row kernels on word_lm's shapes.
// ---------------------------------------------------------------------------

struct ElementResult {
  std::string label;
  std::string shape;
  double us_per_call = 0;
  double gbytes_per_s = 0;  // the kernel's charged bytes per second
  bool bitwise_ok = false;
};

rt::DenseTensor random_tensor(std::vector<std::int64_t> shape, std::uint32_t seed) {
  rt::DenseTensor t(std::move(shape), ir::DataType::kFloat32);
  const std::vector<float> v = random_vec(static_cast<std::size_t>(t.numel()), seed);
  std::memcpy(t.fdata(), v.data(), v.size() * sizeof(float));
  return t;
}

bool same_bits(const rt::DenseTensor& t, const std::vector<float>& want) {
  return static_cast<std::size_t>(t.numel()) == want.size() &&
         std::memcmp(t.fdata(), want.data(), want.size() * sizeof(float)) == 0;
}

/// Best-of-reps time per call of fn, timed over `iters` back-to-back calls
/// so microsecond kernels are not lost in clock resolution. fn runs once
/// untimed first; GB/s divides the bytes that call charged by the time.
template <typename Fn>
ElementResult time_element_kernel(const std::string& label, const std::string& shape,
                                  int reps, int iters, Fn&& fn) {
  rt::KernelStats once;
  fn(once);
  rt::KernelStats ignored;
  const double t = time_best(reps, [&] {
                     for (int i = 0; i < iters; ++i) fn(ignored);
                   }) /
                   iters;
  ElementResult r;
  r.label = label;
  r.shape = shape;
  r.us_per_call = t * 1e6;
  r.gbytes_per_s = once.bytes / t / 1e9;
  return r;
}

std::vector<ElementResult> bench_element_kernels(conc::ThreadPool& pool, bool smoke,
                                                 int reps) {
  // word_lm at h = 128, batch 16: W is [2h, 4h], the cell input [b, h] + [b, h],
  // the gate block [b, 4h].
  const std::int64_t h = smoke ? 32 : 128, b = smoke ? 4 : 16;
  const std::int64_t wr = 2 * h, wc = 4 * h;
  const int iters = smoke ? 4 : 200;
  std::vector<ElementResult> out;
  const std::string w_shape = std::to_string(wr) + "x" + std::to_string(wc);

  {  // the weight-gradient accumulation add
    const rt::DenseTensor a = random_tensor({wr, wc}, 71), c = random_tensor({wr, wc}, 73);
    rt::DenseTensor sum({wr, wc}, ir::DataType::kFloat32);
    ElementResult r = time_element_kernel("accumulate_add", w_shape, reps, iters,
                                          [&](rt::KernelStats& st) {
      rt::pointwise(ir::PointwiseFn::kAdd, {&a, &c}, 1.0, sum, pool, st);
    });
    std::vector<float> want(static_cast<std::size_t>(a.numel()));
    for (std::int64_t i = 0; i < a.numel(); ++i)
      want[static_cast<std::size_t>(i)] = a.fdata()[i] + c.fdata()[i];
    r.bitwise_ok = same_bits(sum, want);
    out.push_back(r);
  }
  {  // the cell-input concat along axis 1
    const rt::DenseTensor x = random_tensor({b, h}, 79), hp = random_tensor({b, h}, 83);
    rt::DenseTensor cat({b, 2 * h}, ir::DataType::kFloat32);
    ElementResult r = time_element_kernel(
        "concat", std::to_string(b) + "x" + std::to_string(h) + " + " + std::to_string(b) +
                      "x" + std::to_string(h),
        reps, iters * 10,
        [&](rt::KernelStats& st) { rt::concat({&x, &hp}, 1, cat, pool, st); });
    std::vector<float> want;
    for (std::int64_t row = 0; row < b; ++row)
      for (std::int64_t col = 0; col < 2 * h; ++col)
        want.push_back(col < h ? x.fdata()[row * h + col] : hp.fdata()[row * h + col - h]);
    r.bitwise_ok = same_bits(cat, want);
    out.push_back(r);
  }
  {  // the gate split along axis 1
    const rt::DenseTensor gates = random_tensor({b, 4 * h}, 89);
    std::vector<rt::DenseTensor> parts;
    for (int p = 0; p < 4; ++p) parts.emplace_back(std::vector<std::int64_t>{b, h},
                                                   ir::DataType::kFloat32);
    std::vector<rt::DenseTensor*> part_ptrs;
    for (rt::DenseTensor& p : parts) part_ptrs.push_back(&p);
    ElementResult r = time_element_kernel(
        "split", std::to_string(b) + "x" + std::to_string(4 * h) + " -> 4x" +
                     std::to_string(b) + "x" + std::to_string(h),
        reps, iters * 10,
        [&](rt::KernelStats& st) { rt::split(gates, 1, part_ptrs, pool, st); });
    r.bitwise_ok = true;
    for (std::int64_t p = 0; p < 4; ++p) {
      std::vector<float> want;
      for (std::int64_t row = 0; row < b; ++row)
        for (std::int64_t col = 0; col < h; ++col)
          want.push_back(gates.fdata()[row * 4 * h + p * h + col]);
      r.bitwise_ok = r.bitwise_ok && same_bits(parts[static_cast<std::size_t>(p)], want);
    }
    out.push_back(r);
  }
  {  // Adam on the weight; the check replays one step from fixed state
    const rt::DenseTensor grad = random_tensor({wr, wc}, 97);
    const rt::DenseTensor w0 = random_tensor({wr, wc}, 101);
    const rt::DenseTensor m0 = random_tensor({wr, wc}, 103);
    rt::DenseTensor v0 = random_tensor({wr, wc}, 107);
    for (std::int64_t i = 0; i < v0.numel(); ++i) v0.fdata()[i] = std::abs(v0.fdata()[i]);
    rt::DenseTensor w = w0, m = m0, v = v0;
    const double lr = 0.01;
    ElementResult r = time_element_kernel("adam", w_shape, reps, iters,
                                          [&](rt::KernelStats& st) {
      rt::apply_gradient(ir::Optimizer::kAdam, w, grad, {&m, &v}, lr, pool, st);
    });
    w = w0;
    m = m0;
    v = v0;
    rt::KernelStats st;
    rt::apply_gradient(ir::Optimizer::kAdam, w, grad, {&m, &v}, lr, pool, st);
    constexpr float kB1 = 0.9f, kB2 = 0.999f, kEps = 1e-8f;
    const auto n = static_cast<std::size_t>(w0.numel());
    std::vector<float> ew(w0.fdata(), w0.fdata() + n), em(m0.fdata(), m0.fdata() + n),
        ev(v0.fdata(), v0.fdata() + n);
    const float* g = grad.fdata();
    for (std::size_t i = 0; i < n; ++i) {
      em[i] = kB1 * em[i] + (1 - kB1) * g[i];
      ev[i] = kB2 * ev[i] + (1 - kB2) * g[i] * g[i];
      ew[i] -= static_cast<float>(lr) * em[i] / (std::sqrt(ev[i]) + kEps);
    }
    r.bitwise_ok = same_bits(w, ew) && same_bits(m, em) && same_bits(v, ev);
    out.push_back(r);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Section 6: one recurrent layer's weight gradient, per timestep vs stacked.
// ---------------------------------------------------------------------------

struct StackResult {
  std::string label;
  std::int64_t b = 0, steps = 0;
  std::size_t threads = 0;
  double per_timestep_us = 0;     // T GEMMs with K = b, then T-1 adds
  double stacked_us = 0;          // 2 Concats, then one GEMM with K = T·b
  double speedup = 0;
  double max_err_over_bound = 0;  // stacked vs a double sum; must be <= 1
};

/// The weight gradient Σ_t z_tᵀ·dgates_t of one layer, z_t [b, zc] and
/// dgates_t [b, gc], both ways on the executor's kernels and a pool of
/// `threads` (ir::stack_weight_gradients is the graph rewrite between
/// them). The stacked result is gated on the blocked GEMM's fp32 contract
/// with k = T·b against the exact sum in double.
StackResult bench_stacking(const std::string& label, std::int64_t b, std::size_t threads,
                           std::int64_t zc, std::int64_t gc, std::int64_t steps, int reps,
                           int iters) {
  conc::ThreadPool pool(threads);
  const auto t_count = static_cast<std::size_t>(steps);
  std::vector<rt::DenseTensor> z, dg, prod;
  std::vector<const rt::DenseTensor*> z_parts, dg_parts;
  for (std::size_t t = 0; t < t_count; ++t) {
    z.push_back(random_tensor({b, zc}, 200 + 2 * static_cast<std::uint32_t>(t)));
    dg.push_back(random_tensor({b, gc}, 201 + 2 * static_cast<std::uint32_t>(t)));
    prod.emplace_back(std::vector<std::int64_t>{zc, gc}, ir::DataType::kFloat32);
  }
  for (std::size_t t = 0; t < t_count; ++t) {  // once z and dg stop growing
    z_parts.push_back(&z[t]);
    dg_parts.push_back(&dg[t]);
  }
  rt::DenseTensor acc({zc, gc}, ir::DataType::kFloat32);
  rt::DenseTensor z_all({steps * b, zc}, ir::DataType::kFloat32);
  rt::DenseTensor dg_all({steps * b, gc}, ir::DataType::kFloat32);
  rt::DenseTensor stacked({zc, gc}, ir::DataType::kFloat32);
  rt::KernelStats st;
  const auto per_timestep = [&] {
    for (std::size_t t = 0; t < t_count; ++t)
      rt::matmul(z[t], dg[t], prod[t], true, false, pool, st);
    rt::pointwise(ir::PointwiseFn::kAdd, {&prod[0], &prod[1]}, 1.0, acc, pool, st);
    for (std::size_t t = 2; t < t_count; ++t)
      rt::pointwise(ir::PointwiseFn::kAdd, {&acc, &prod[t]}, 1.0, acc, pool, st);
  };
  const auto stacked_gemm = [&] {
    rt::concat(z_parts, 0, z_all, pool, st);
    rt::concat(dg_parts, 0, dg_all, pool, st);
    rt::matmul(z_all, dg_all, stacked, true, false, pool, st);
  };
  per_timestep();
  stacked_gemm();

  StackResult r;
  r.label = label;
  r.b = b;
  r.steps = steps;
  r.threads = threads;
  r.per_timestep_us = time_best(reps, [&] {
                        for (int i = 0; i < iters; ++i) per_timestep();
                      }) / iters * 1e6;
  r.stacked_us = time_best(reps, [&] {
                   for (int i = 0; i < iters; ++i) stacked_gemm();
                 }) / iters * 1e6;
  r.speedup = r.per_timestep_us / r.stacked_us;

  const double unit = static_cast<double>(steps * b + 2) * std::ldexp(1.0, -24);
  for (std::int64_t i = 0; i < zc; ++i)
    for (std::int64_t j = 0; j < gc; ++j) {
      double exact = 0, magnitude = 0;
      for (std::size_t t = 0; t < t_count; ++t)
        for (std::int64_t p = 0; p < b; ++p) {
          const double term =
              static_cast<double>(z[t].fdata()[p * zc + i]) * dg[t].fdata()[p * gc + j];
          exact += term;
          magnitude += std::abs(term);
        }
      const double err = std::abs(stacked.fdata()[i * gc + j] - exact);
      if (err > 0) r.max_err_over_bound = std::max(r.max_err_over_bound, err / (unit * magnitude));
    }
  return r;
}

// ---------------------------------------------------------------------------
// Section 7: a shared weight packed per call vs once per step.
// ---------------------------------------------------------------------------

struct PackingResult {
  std::string label;
  std::int64_t b = 0, steps = 0;
  std::size_t threads = 0;
  double per_call_us = 0;   // 2T GEMMs, each packing W
  double prepacked_us = 0;  // 2 pack_b_panels, then 2T GEMMs on the panels
  double speedup = 0;
  bool bitwise_ok = false;
};

/// One recurrent layer's per-timestep GEMMs that read its weight W
/// [zc, gc]: z_t·W (z_t [b, zc]) and dgates_t·Wᵀ (dgates_t [b, gc]) for
/// t < steps, on the executor's matmul kernel and a pool of `threads`.
PackingResult bench_shared_packing(const std::string& label, std::int64_t b,
                                   std::size_t threads, std::int64_t zc, std::int64_t gc,
                                   std::int64_t steps, int reps, int iters) {
  conc::ThreadPool pool(threads);
  const rt::GemmTiling& tiling = rt::default_gemm_tiling();
  const auto t_count = static_cast<std::size_t>(steps);
  const rt::DenseTensor w = random_tensor({zc, gc}, 300);
  std::vector<rt::DenseTensor> z, dg, fwd, bwd, fwd_packed, bwd_packed;
  for (std::size_t t = 0; t < t_count; ++t) {
    z.push_back(random_tensor({b, zc}, 301 + 2 * static_cast<std::uint32_t>(t)));
    dg.push_back(random_tensor({b, gc}, 302 + 2 * static_cast<std::uint32_t>(t)));
    for (auto* out : {&fwd, &fwd_packed})
      out->emplace_back(std::vector<std::int64_t>{b, gc}, ir::DataType::kFloat32);
    for (auto* out : {&bwd, &bwd_packed})
      out->emplace_back(std::vector<std::int64_t>{b, zc}, ir::DataType::kFloat32);
  }
  std::vector<float> panel_w(static_cast<std::size_t>(rt::packed_b_floats(zc, gc, tiling)));
  std::vector<float> panel_wt(static_cast<std::size_t>(rt::packed_b_floats(gc, zc, tiling)));
  rt::KernelStats st;
  const auto per_call = [&] {
    for (std::size_t t = 0; t < t_count; ++t) {
      rt::matmul(z[t], w, fwd[t], false, false, pool, st);
      rt::matmul(dg[t], w, bwd[t], false, true, pool, st);
    }
  };
  const auto prepacked = [&] {
    conc::parallel_for(pool, 0, 2, [&](std::size_t trans) {
      if (trans == 0) {
        rt::pack_b_panels(w.fdata(), false, zc, gc, tiling, panel_w.data());
      } else {
        rt::pack_b_panels(w.fdata(), true, gc, zc, tiling, panel_wt.data());
      }
    });
    for (std::size_t t = 0; t < t_count; ++t) {
      rt::matmul(z[t], w, fwd_packed[t], false, false, pool, st, nullptr,
                 ir::PointwiseFn::kIdentity, panel_w.data());
      rt::matmul(dg[t], w, bwd_packed[t], false, true, pool, st, nullptr,
                 ir::PointwiseFn::kIdentity, panel_wt.data());
    }
  };
  per_call();
  prepacked();

  PackingResult r;
  r.label = label;
  r.b = b;
  r.steps = steps;
  r.threads = threads;
  r.per_call_us = time_best(reps, [&] {
                    for (int i = 0; i < iters; ++i) per_call();
                  }) / iters * 1e6;
  r.prepacked_us = time_best(reps, [&] {
                     for (int i = 0; i < iters; ++i) prepacked();
                   }) / iters * 1e6;
  r.speedup = r.per_call_us / r.prepacked_us;
  const auto same_bits = [](const rt::DenseTensor& x, const rt::DenseTensor& y) {
    return std::memcmp(x.fdata(), y.fdata(), x.byte_size()) == 0;
  };
  r.bitwise_ok = true;
  for (std::size_t t = 0; t < t_count; ++t)
    r.bitwise_ok = r.bitwise_ok && same_bits(fwd[t], fwd_packed[t]) &&
                   same_bits(bwd[t], bwd_packed[t]);
  return r;
}

void write_codegen_json(const std::string& path, std::size_t threads,
                        const std::vector<ChainResult>& chains,
                        const UkrResult& ukr, bool speedup_gate_ok) {
  util::Json chain_rows = util::Json::array();
  for (const ChainResult& c : chains) {
    util::Json per_isa = util::Json::array();
    for (const ChainIsaResult& r : c.per_isa)
      per_isa.push_back(util::Json::object(
          {{"isa", r.isa}, {"gbytes_per_s", r.gbytes_per_s}, {"speedup", r.speedup}}));
    chain_rows.push_back(util::Json::object(
        {{"label", c.label}, {"elems", c.elems}, {"instrs", c.instrs}, {"exact", c.exact},
         {"interp_gbytes_per_s", c.interp_gbytes_per_s}, {"best_speedup", c.best_speedup},
         {"max_rel_err", c.max_rel_err}, {"bitwise_ok", c.bitwise_ok},
         {"parity_ok", c.parity_ok}, {"per_isa", per_isa}}));
  }
  const util::Json micro = util::Json::object(
      {{"label", ukr.label}, {"scalar_tile", ukr.scalar_tile},
       {"simd_tile", ukr.simd_tile}, {"scalar_gflops", ukr.scalar_gflops},
       {"simd_gflops", ukr.simd_gflops}, {"speedup", ukr.speedup},
       {"bitwise_match", ukr.bitwise_match}});
  const util::Json doc = util::Json::object(
      {{"threads", threads}, {"best_isa", hw::simd_isa_name(hw::best_simd_isa())},
       {"chains", chain_rows}, {"gemm_micro_kernel", micro},
       {"speedup_gate_2x", speedup_gate_ok}});
  std::ofstream(path) << doc.dump() << "\n";
}

void write_json(const std::string& path, std::size_t threads,
                const std::vector<GemmResult>& gemms,
                const std::vector<ConvResult>& convs,
                const std::vector<TrafficPoint>& traffic, bool traffic_trend_ok,
                const std::vector<ElementResult>& elements, double copy_bandwidth,
                const std::vector<StackResult>& stacking,
                const std::vector<PackingResult>& packing) {
  util::Json gemm_rows = util::Json::array();
  for (const GemmResult& r : gemms)
    gemm_rows.push_back(util::Json::object(
        {{"label", r.label}, {"m", r.m}, {"n", r.n}, {"k", r.k},
         {"blocked_gflops", r.blocked_gflops}, {"reference_gflops", r.reference_gflops},
         {"speedup", r.speedup}, {"measured_traffic_bytes", r.measured_traffic_bytes},
         {"model_traffic_bytes", r.model_traffic_bytes},
         {"max_err_over_bound", r.max_err_over_bound},
         {"bitwise_across_threads", r.bitwise_across_threads}}));
  util::Json conv_rows = util::Json::array();
  for (const ConvResult& r : convs)
    conv_rows.push_back(util::Json::object(
        {{"label", r.label}, {"blocked_gflops", r.blocked_gflops},
         {"reference_gflops", r.reference_gflops}, {"speedup", r.speedup},
         {"max_err_over_bound", r.max_err_over_bound},
         {"bitwise_across_threads", r.bitwise_across_threads}}));
  util::Json traffic_rows = util::Json::array();
  for (const TrafficPoint& p : traffic)
    traffic_rows.push_back(util::Json::object({{"edge", p.edge},
                                               {"measured_ratio", p.measured_ratio},
                                               {"model_ratio", p.model_ratio}}));
  util::Json element_rows = util::Json::array();
  for (const ElementResult& r : elements)
    element_rows.push_back(util::Json::object(
        {{"label", r.label}, {"shape", r.shape}, {"us_per_call", r.us_per_call},
         {"gbytes_per_s", r.gbytes_per_s}, {"bitwise_ok", r.bitwise_ok}}));
  util::Json stacking_rows = util::Json::array();
  for (const StackResult& r : stacking)
    stacking_rows.push_back(util::Json::object(
        {{"label", r.label}, {"b", r.b}, {"steps", r.steps}, {"threads", r.threads},
         {"per_timestep_us", r.per_timestep_us}, {"stacked_us", r.stacked_us},
         {"speedup", r.speedup}, {"max_err_over_bound", r.max_err_over_bound}}));
  util::Json packing_rows = util::Json::array();
  for (const PackingResult& r : packing)
    packing_rows.push_back(util::Json::object(
        {{"label", r.label}, {"b", r.b}, {"steps", r.steps}, {"threads", r.threads},
         {"per_call_us", r.per_call_us}, {"prepacked_us", r.prepacked_us},
         {"speedup", r.speedup}, {"bitwise_ok", r.bitwise_ok}}));
  const util::Json doc = util::Json::object(
      {{"threads", threads}, {"model_cache_bytes", rt::kGemmModelCacheBytes},
       {"gemm", gemm_rows}, {"conv", conv_rows}, {"traffic_sweep", traffic_rows},
       {"traffic_trend_matches_model", traffic_trend_ok},
       {"element_kernels", element_rows},
       {"copy_bandwidth_gbytes_per_s", copy_bandwidth / 1e9},
       {"weight_gradient_stacking", stacking_rows},
       {"shared_weight_packing", packing_rows}});
  std::ofstream(path) << doc.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = 8;
  std::string out_path = "BENCH_kernels.json";
  std::string codegen_out_path = "BENCH_codegen.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--codegen-out" && i + 1 < argc) {
      codegen_out_path = argv[++i];
    } else {
      std::cerr << "usage: kernel_bench [--smoke] [--threads N] [--out PATH] "
                   "[--codegen-out PATH]\n";
      return 2;
    }
  }

  conc::ThreadPool pool(threads);
  const int reps = smoke ? 1 : 3;

  // GEMM shapes from the paper's workloads: the word-LM output projection
  // (batch*seq x hidden -> vocab), an LSTM gate block, an NMT attention
  // score, a ResNet-50 3x3 im2col at 14^2 spatial, and the square classic.
  std::vector<GemmShape> shapes;
  if (smoke) {
    shapes = {{"smoke_square", 96, 96, 96}, {"smoke_odd", 67, 35, 129}};
  } else {
    shapes = {
        {"wordlm_projection", 640, 10000, 1024},  // (b*s x h) . (h x vocab)
        {"lstm_gates", 128, 4096, 2048},          // gate block at h=1024
        {"nmt_attention", 640, 640, 1024},        // score = Q . K^T
        {"resnet_conv_im2col", 3136, 256, 2304},  // 56^2 x (3*3*256) . 256
        {"square_1024", 1024, 1024, 1024},
    };
  }

  std::vector<GemmResult> gemms;
  util::Table gemm_table({"shape", "m", "n", "k", "blocked GF/s", "ref GF/s",
                          "speedup", "err/bound", "1/2/8T bitwise"});
  bool ok = true;
  for (const GemmShape& s : shapes) {
    const GemmResult r = bench_gemm_shape(s, pool, reps);
    ok = ok && r.max_err_over_bound <= 1.0 && r.bitwise_across_threads;
    gemm_table.add_row({r.label, std::to_string(r.m), std::to_string(r.n),
                        std::to_string(r.k), util::format_sig(r.blocked_gflops, 3),
                        util::format_sig(r.reference_gflops, 3),
                        util::format_sig(r.speedup, 3) + "x",
                        util::format_sig(r.max_err_over_bound, 3) +
                            (r.max_err_over_bound <= 1.0 ? "" : " NO"),
                        r.bitwise_across_threads ? "yes" : "NO"});
    gemms.push_back(r);
  }
  std::cout << "== blocked GEMM vs reference (threads=" << threads << ") ==\n";
  gemm_table.print(std::cout);

  std::vector<ConvResult> convs;
  util::Table conv_table({"conv", "blocked GF/s", "ref GF/s", "speedup", "err/bound",
                          "1/2/8T bitwise"});
  if (smoke) {
    convs.push_back(bench_conv(1, 8, 8, 16, pool, reps, "smoke_conv_8x8x8"));
  } else {
    convs.push_back(bench_conv(4, 28, 64, 64, pool, reps, "resnet_28x28x64"));
    convs.push_back(bench_conv(2, 56, 64, 64, pool, reps, "resnet_56x56x64"));
  }
  for (const ConvResult& r : convs) {
    ok = ok && r.max_err_over_bound <= 1.0 && r.bitwise_across_threads;
    conv_table.add_row({r.label, util::format_sig(r.blocked_gflops, 3),
                        util::format_sig(r.reference_gflops, 3),
                        util::format_sig(r.speedup, 3) + "x",
                        util::format_sig(r.max_err_over_bound, 3) +
                            (r.max_err_over_bound <= 1.0 ? "" : " NO"),
                        r.bitwise_across_threads ? "yes" : "NO"});
  }
  std::cout << "\n== conv2d (im2col + blocked GEMM) vs reference ==\n";
  conv_table.print(std::cout);

  const std::vector<std::int64_t> edges =
      smoke ? std::vector<std::int64_t>{24, 96} : std::vector<std::int64_t>{24, 48, 96, 192};
  const std::vector<TrafficPoint> traffic = traffic_sweep(pool, edges);
  util::Table traffic_table({"edge", "measured bytes/compulsory", "model bytes/compulsory"});
  for (const TrafficPoint& p : traffic)
    traffic_table.add_row({std::to_string(p.edge), util::format_sig(p.measured_ratio, 3),
                           util::format_sig(p.model_ratio, 3)});
  std::cout << "\n== traffic vs hw::tiled_matmul_bytes (fixed 8 KiB tile model) ==\n";
  traffic_table.print(std::cout);

  const bool traffic_trend_ok =
      traffic.back().measured_ratio > traffic.front().measured_ratio &&
      traffic.back().model_ratio > traffic.front().model_ratio;
  ok = ok && traffic_trend_ok;
  std::cout << "\ntraffic trend matches cache model: " << (traffic_trend_ok ? "yes" : "NO")
            << "\n";

  // Section 4: compiled fused pointwise vs the interpreter, per ISA.
  const std::int64_t chain_n = smoke ? 8192 : (1 << 20);
  const std::int64_t chain_hidden = smoke ? 64 : 1024;
  const std::vector<ChainSpec> chain_specs = {
      lstm_cell_chain(chain_n),
      rhn_carry_chain(chain_n),
      residual_bias_relu_chain(chain_n, chain_hidden),
      gate_backprop_chain(chain_n),
  };
  std::vector<ChainResult> chains;
  util::Table chain_table({"chain", "elems", "instrs", "interp GB/s",
                           "best GB/s", "speedup", "max rel err", "parity"});
  for (const ChainSpec& spec : chain_specs) {
    const ChainResult r = bench_chain(spec, pool, reps);
    ok = ok && r.parity_ok;
    double best_gbps = 0;
    for (const ChainIsaResult& per : r.per_isa)
      best_gbps = std::max(best_gbps, per.gbytes_per_s);
    chain_table.add_row(
        {r.label, std::to_string(r.elems), std::to_string(r.instrs),
         util::format_sig(r.interp_gbytes_per_s, 3), util::format_sig(best_gbps, 3),
         util::format_sig(r.best_speedup, 3) + "x",
         util::format_sig(r.max_rel_err, 2),
         r.parity_ok ? (r.exact ? "bitwise" : "eps") : "NO"});
    chains.push_back(r);
  }
  std::cout << "\n== codegen: compiled fused pointwise vs interpreter (best isa: "
            << hw::simd_isa_name(hw::best_simd_isa()) << ") ==\n";
  chain_table.print(std::cout);

  const GemmShape ukr_shape =
      smoke ? GemmShape{"smoke_square", 96, 96, 96}
            : GemmShape{"lstm_gates", 128, 4096, 2048};
  const UkrResult ukr = bench_gemm_ukr(ukr_shape, pool, reps);
  ok = ok && ukr.bitwise_match;
  std::cout << "\n== codegen: GEMM micro-kernel scalar " << ukr.scalar_tile
            << " vs compiled " << ukr.simd_tile << " (" << ukr.label << ") ==\n"
            << "scalar " << util::format_sig(ukr.scalar_gflops, 3)
            << " GF/s, compiled " << util::format_sig(ukr.simd_gflops, 3)
            << " GF/s, speedup " << util::format_sig(ukr.speedup, 3)
            << "x, bitwise " << (ukr.bitwise_match ? "yes" : "NO") << "\n";

  // The tentpole's acceptance gate: outside --smoke (whose shapes are too
  // small to measure honestly), some paper-derived chain must run >= 2x
  // faster compiled than interpreted.
  bool speedup_gate_ok = true;
  if (!smoke) {
    speedup_gate_ok = false;
    for (const ChainResult& r : chains)
      speedup_gate_ok = speedup_gate_ok || r.best_speedup >= 2.0;
    ok = ok && speedup_gate_ok;
    std::cout << "compiled speedup >= 2x on some chain: "
              << (speedup_gate_ok ? "yes" : "NO") << "\n";
  }

  // Section 5: element and row kernels against the host's copy bandwidth.
  const double copy_bandwidth = rt::measure_copy_bandwidth();
  const std::vector<ElementResult> elements = bench_element_kernels(pool, smoke, reps);
  util::Table element_table({"kernel", "shape", "us/call", "GB/s", "bitwise"});
  for (const ElementResult& r : elements) {
    ok = ok && r.bitwise_ok;
    element_table.add_row({r.label, r.shape, util::format_sig(r.us_per_call, 3),
                           util::format_sig(r.gbytes_per_s, 3),
                           r.bitwise_ok ? "yes" : "NO"});
  }
  std::cout << "\n== element and row kernels (host copy bandwidth "
            << util::format_sig(copy_bandwidth / 1e9, 3) << " GB/s, one thread) ==\n";
  element_table.print(std::cout);

  // Section 6: one word_lm layer's weight gradient (z [b, 256], dgates
  // [b, 512], T = 20) per timestep vs stacked, at train_lstm_dp2's
  // micro-step (b = 2, one thread) and train_lstm's step (b = 16, three).
  const std::int64_t stack_h = smoke ? 32 : 128, stack_steps = smoke ? 5 : 20;
  std::vector<StackResult> stacking;
  for (const auto& [b, stack_threads] :
       {std::pair<std::int64_t, std::size_t>{2, 1}, {16, 3}})
    stacking.push_back(bench_stacking("b" + std::to_string(b) + "_t" +
                                          std::to_string(stack_threads),
                                      b, stack_threads, 2 * stack_h, 4 * stack_h,
                                      stack_steps, reps, smoke ? 2 : 20));
  util::Table stack_table({"shape", "threads", "T GEMMs + adds us", "stacked us", "speedup",
                           "err/bound"});
  for (const StackResult& r : stacking) {
    const bool bound_ok = r.max_err_over_bound <= 1.0;
    ok = ok && bound_ok;
    stack_table.add_row({"z " + std::to_string(r.b) + "x" + std::to_string(2 * stack_h) +
                             ", T = " + std::to_string(r.steps),
                         std::to_string(r.threads), util::format_sig(r.per_timestep_us, 3),
                         util::format_sig(r.stacked_us, 3), util::format_sig(r.speedup, 3),
                         util::format_sig(r.max_err_over_bound, 3) +
                             (bound_ok ? "" : " FAIL")});
  }
  std::cout << "\n== recurrent weight gradient: per timestep vs stacked (K = T*b) ==\n";
  stack_table.print(std::cout);

  // Section 7: the same layer's 2T GEMMs that read W, packing W per call
  // vs once per step, at the same two configurations.
  std::vector<PackingResult> packing;
  for (const auto& [b, pack_threads] :
       {std::pair<std::int64_t, std::size_t>{2, 1}, {16, 3}})
    packing.push_back(bench_shared_packing("b" + std::to_string(b) + "_t" +
                                               std::to_string(pack_threads),
                                           b, pack_threads, 2 * stack_h, 4 * stack_h,
                                           stack_steps, reps, smoke ? 2 : 20));
  util::Table packing_table({"shape", "threads", "per-call packing us", "prepacked us",
                             "speedup", "bitwise"});
  for (const PackingResult& r : packing) {
    ok = ok && r.bitwise_ok;
    packing_table.add_row({"z " + std::to_string(r.b) + "x" + std::to_string(2 * stack_h) +
                               ", T = " + std::to_string(r.steps),
                           std::to_string(r.threads), util::format_sig(r.per_call_us, 3),
                           util::format_sig(r.prepacked_us, 3),
                           util::format_sig(r.speedup, 3), r.bitwise_ok ? "yes" : "NO"});
  }
  std::cout << "\n== shared weight: packed per call vs once per step (2T GEMMs) ==\n";
  packing_table.print(std::cout);

  write_json(out_path, threads, gemms, convs, traffic, traffic_trend_ok, elements,
             copy_bandwidth, stacking, packing);
  std::cout << "wrote " << out_path << "\n";
  write_codegen_json(codegen_out_path, threads, chains, ukr, speedup_gate_ok);
  std::cout << "wrote " << codegen_out_path << "\n";
  if (!ok) {
    std::cerr << "kernel_bench: FAILURE (error bound/bitwise/determinism/traffic "
                 "check failed)\n";
    return 1;
  }
  return 0;
}
