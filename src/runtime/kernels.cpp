#include "src/runtime/kernels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/runtime/codegen/dispatch.h"
#include "src/runtime/im2col.h"

namespace gf::rt {
namespace {

void expect(bool cond, const char* what) {
  if (!cond) throw std::logic_error(std::string("kernel: ") + what);
}

double tensor_bytes(const DenseTensor& t) { return static_cast<double>(t.byte_size()); }

/// Element kernels run in blocks of kElementChunk elements: one
/// parallel_for iteration and one switch per block, a plain pointer loop
/// inside (codegen::run_lowered blocks by kSimdBlock the same way).
constexpr std::int64_t kElementChunk = 4096;
/// Row kernels give each parallel_for chunk at least this many elements of
/// work, so small tensors (a 16-row LSTM concat) run inline instead of
/// waking a peer thread.
constexpr std::int64_t kRowGrain = 16384;

/// Minimum parallel_for chunk, in rows, for rows of `row_elems` elements.
std::size_t row_grain(std::int64_t row_elems) {
  const std::int64_t per_row = std::max<std::int64_t>(row_elems, 1);
  return static_cast<std::size_t>((kRowGrain + per_row - 1) / per_row);
}

/// Runs body(i0, i1) over [0, n) in kElementChunk blocks across the pool.
template <typename Body>
void for_element_blocks(conc::ThreadPool& pool, std::int64_t n, const Body& body) {
  const std::int64_t blocks = (n + kElementChunk - 1) / kElementChunk;
  conc::parallel_for(pool, 0, static_cast<std::size_t>(blocks), [&](std::size_t b) {
    const std::int64_t i0 = static_cast<std::int64_t>(b) * kElementChunk;
    body(i0, std::min(i0 + kElementChunk, n));
  });
}

/// Throws unless every id indexes a row of a `vocab`-row table.
void expect_ids_in_range(const DenseTensor& ids, std::int64_t vocab) {
  const std::int32_t* id = ids.idata();
  for (std::int64_t r = 0; r < ids.numel(); ++r)
    expect(id[r] >= 0 && id[r] < vocab, "embedding id out of range");
}

/// outer/axis/inner decomposition for axis-wise data movement.
struct AxisView {
  std::int64_t outer = 1, axis = 1, inner = 1;
};
AxisView axis_view(const DenseTensor& t, std::size_t axis) {
  AxisView v;
  for (std::size_t i = 0; i < axis; ++i) v.outer *= t.dim(i);
  v.axis = t.dim(axis);
  for (std::size_t i = axis + 1; i < t.rank(); ++i) v.inner *= t.dim(i);
  return v;
}

/// Per-thread im2col/col2im scratch, grown monotonically and reused across
/// conv calls so steady-state steps hit the allocator O(1) times. Safe for
/// the same reason as GemmScratch: an op owns its executing thread until
/// the kernel returns (parallel_for callers block on a condition variable
/// instead of draining unrelated pool tasks), so two convs never
/// interleave on one thread. Every consumer fully overwrites the scratch
/// (im2col writes pad cells, GEMM writes the whole dcol), so no zeroing.
float* conv_scratch(std::size_t n) {
  thread_local AlignedVector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

Im2ColShape conv_shape(const DenseTensor& in, std::int64_t kh, std::int64_t kw,
                       std::int64_t ho, std::int64_t wo, int stride) {
  Im2ColShape s;
  s.n = in.dim(0);
  s.h = in.dim(1);
  s.w = in.dim(2);
  s.c = in.dim(3);
  s.kh = kh;
  s.kw = kw;
  s.ho = ho;
  s.wo = wo;
  s.stride = stride;
  return s;
}

}  // namespace

void matmul(const DenseTensor& a, const DenseTensor& b, DenseTensor& out, bool trans_a,
            bool trans_b, conc::ThreadPool& pool, KernelStats& stats,
            const DenseTensor* epi_bias, ir::PointwiseFn epi_act,
            const float* b_packed) {
  const bool a3 = a.rank() == 3, b3 = b.rank() == 3;
  expect(a.rank() >= 2 && b.rank() >= 2, "matmul rank");
  const std::int64_t batch = a3 ? a.dim(0) : 1;
  const std::size_t oa = a3 ? 1 : 0, ob = b3 ? 1 : 0;
  const std::int64_t m = trans_a ? a.dim(oa + 1) : a.dim(oa);
  const std::int64_t k = trans_a ? a.dim(oa) : a.dim(oa + 1);
  const std::int64_t n = trans_b ? b.dim(ob) : b.dim(ob + 1);
  expect((trans_b ? b.dim(ob + 1) : b.dim(ob)) == k, "matmul inner dim");

  const std::int64_t a_stride = m * k;
  const std::int64_t b_stride = b3 ? k * n : 0;  // 0: broadcast shared B
  const std::int64_t o_stride = m * n;

  GemmEpilogue epi;
  if (epi_bias != nullptr) {
    expect(epi_bias->numel() == n, "matmul epilogue bias length");
    epi.bias = epi_bias->fdata();
  }
  switch (epi_act) {
    case ir::PointwiseFn::kIdentity: break;
    case ir::PointwiseFn::kSigmoid: epi.act = GemmEpilogue::Act::kSigmoid; break;
    case ir::PointwiseFn::kTanh: epi.act = GemmEpilogue::Act::kTanh; break;
    case ir::PointwiseFn::kRelu: epi.act = GemmEpilogue::Act::kRelu; break;
    default: expect(false, "unsupported matmul epilogue activation");
  }

  blocked_gemm(a.fdata(), b.fdata(), out.fdata(), batch, m, n, k, trans_a, trans_b,
               a_stride, b_stride, o_stride, default_gemm_tiling(), pool, nullptr, epi,
               b_packed);

  stats.flops += 2.0 * static_cast<double>(batch) * m * n * k;
  // Epilogue work, mirroring MatMulOp::flops()/bytes_accessed() exactly.
  if (epi_bias != nullptr) {
    stats.flops += static_cast<double>(out.numel());
    stats.bytes += tensor_bytes(*epi_bias);
  }
  if (epi_act != ir::PointwiseFn::kIdentity)
    stats.flops += ir::pointwise_fn_flops_per_element(epi_act, 1) *
                   static_cast<double>(out.numel());
  // Algorithmic bytes, matching MatMulOp::bytes_accessed(): each operand
  // tensor charged exactly once. With a rank-2 B broadcast across a
  // rank-3 batch, B is one tensor of k*n elements — charged once, however
  // many batch matrices stream it.
  const double dtype = static_cast<double>(ir::dtype_bytes(out.dtype()));
  stats.bytes += dtype * (static_cast<double>(batch) * m * k +
                          static_cast<double>(b3 ? batch : 1) * k * n +
                          static_cast<double>(batch) * m * n);
}

// --- convolutions -----------------------------------------------------------

void conv2d(const DenseTensor& in, const DenseTensor& filter, DenseTensor& out,
            int stride, conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t KH = filter.dim(0), KW = filter.dim(1), F = filter.dim(3);
  const Im2ColShape s = conv_shape(in, KH, KW, out.dim(1), out.dim(2), stride);
  // col: (N*HO*WO) x (KH*KW*C); filter (KH,KW,C,F) is already the
  // row-major (KH*KW*C) x F right-hand side.
  float* col = conv_scratch(static_cast<std::size_t>(s.rows() * s.cols()));
  im2col(in.fdata(), s, col, pool);
  blocked_gemm(col, filter.fdata(), out.fdata(), 1, s.rows(), F, s.cols(),
               false, false, 0, 0, 0, default_gemm_tiling(), pool);
  stats.flops += 2.0 * static_cast<double>(out.numel()) * KH * KW * s.c;
  stats.bytes += tensor_bytes(in) + tensor_bytes(filter) + tensor_bytes(out);
}

void conv2d_grad_input(const DenseTensor& dy, const DenseTensor& filter, DenseTensor& dx,
                       int stride, conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t KH = filter.dim(0), KW = filter.dim(1), F = filter.dim(3);
  const Im2ColShape s = conv_shape(dx, KH, KW, dy.dim(1), dy.dim(2), stride);
  // dcol = dy . filter^T : (rows x F) . (F x KH*KW*C), then col2im
  // scatter-adds the tap gradients back onto the input image.
  float* dcol = conv_scratch(static_cast<std::size_t>(s.rows() * s.cols()));
  blocked_gemm(dy.fdata(), filter.fdata(), dcol, 1, s.rows(), s.cols(), F,
               false, true, 0, 0, 0, default_gemm_tiling(), pool);
  std::fill(dx.fdata(), dx.fdata() + dx.numel(), 0.0f);
  col2im_add(dcol, s, dx.fdata(), pool);
  stats.flops += 2.0 * static_cast<double>(dy.numel()) * KH * KW * s.c;
  stats.bytes += tensor_bytes(dy) + tensor_bytes(filter) + tensor_bytes(dx);
}

void conv2d_grad_filter(const DenseTensor& in, const DenseTensor& dy, DenseTensor& df,
                        int stride, conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t KH = df.dim(0), KW = df.dim(1), F = df.dim(3);
  const Im2ColShape s = conv_shape(in, KH, KW, dy.dim(1), dy.dim(2), stride);
  // dF = im2col(input)^T . dy : (KH*KW*C x rows) . (rows x F).
  float* col = conv_scratch(static_cast<std::size_t>(s.rows() * s.cols()));
  im2col(in.fdata(), s, col, pool);
  blocked_gemm(col, dy.fdata(), df.fdata(), 1, s.cols(), F, s.rows(), true,
               false, 0, 0, 0, default_gemm_tiling(), pool);
  stats.flops += 2.0 * static_cast<double>(dy.numel()) * KH * KW * s.c;
  stats.bytes += tensor_bytes(in) + tensor_bytes(dy) + tensor_bytes(df);
}

// --- retained reference convolutions (the seed kernels) --------------------

void conv2d_reference(const DenseTensor& in, const DenseTensor& filter, DenseTensor& out,
                      int stride, KernelStats& stats) {
  const std::int64_t N = in.dim(0), H = in.dim(1), W = in.dim(2), C = in.dim(3);
  const std::int64_t KH = filter.dim(0), KW = filter.dim(1), F = filter.dim(3);
  const std::int64_t HO = out.dim(1), WO = out.dim(2);
  const std::int64_t ph = (KH - 1) / 2, pw = (KW - 1) / 2;
  const float* x = in.fdata();
  const float* w = filter.fdata();
  float* y = out.fdata();
  for (std::int64_t nidx = 0; nidx < N; ++nidx)
    for (std::int64_t ho = 0; ho < HO; ++ho)
      for (std::int64_t wo = 0; wo < WO; ++wo)
        for (std::int64_t f = 0; f < F; ++f) {
          double acc = 0;
          for (std::int64_t kh = 0; kh < KH; ++kh) {
            const std::int64_t h = ho * stride + kh - ph;
            if (h < 0 || h >= H) continue;
            for (std::int64_t kw = 0; kw < KW; ++kw) {
              const std::int64_t ww = wo * stride + kw - pw;
              if (ww < 0 || ww >= W) continue;
              for (std::int64_t c = 0; c < C; ++c)
                acc += x[((nidx * H + h) * W + ww) * C + c] *
                       w[((kh * KW + kw) * C + c) * F + f];
            }
          }
          y[((nidx * HO + ho) * WO + wo) * F + f] = static_cast<float>(acc);
        }
  stats.flops += 2.0 * static_cast<double>(out.numel()) * KH * KW * C;
  stats.bytes += tensor_bytes(in) + tensor_bytes(filter) + tensor_bytes(out);
}

void conv2d_grad_input_reference(const DenseTensor& dy, const DenseTensor& filter,
                                 DenseTensor& dx, int stride, KernelStats& stats) {
  const std::int64_t N = dx.dim(0), H = dx.dim(1), W = dx.dim(2), C = dx.dim(3);
  const std::int64_t KH = filter.dim(0), KW = filter.dim(1), F = filter.dim(3);
  const std::int64_t HO = dy.dim(1), WO = dy.dim(2);
  const std::int64_t ph = (KH - 1) / 2, pw = (KW - 1) / 2;
  const float* g = dy.fdata();
  const float* w = filter.fdata();
  float* o = dx.fdata();
  std::fill(o, o + dx.numel(), 0.0f);
  for (std::int64_t nidx = 0; nidx < N; ++nidx)
    for (std::int64_t ho = 0; ho < HO; ++ho)
      for (std::int64_t wo = 0; wo < WO; ++wo)
        for (std::int64_t f = 0; f < F; ++f) {
          const float gv = g[((nidx * HO + ho) * WO + wo) * F + f];
          for (std::int64_t kh = 0; kh < KH; ++kh) {
            const std::int64_t h = ho * stride + kh - ph;
            if (h < 0 || h >= H) continue;
            for (std::int64_t kw = 0; kw < KW; ++kw) {
              const std::int64_t ww = wo * stride + kw - pw;
              if (ww < 0 || ww >= W) continue;
              for (std::int64_t c = 0; c < C; ++c)
                o[((nidx * H + h) * W + ww) * C + c] +=
                    gv * w[((kh * KW + kw) * C + c) * F + f];
            }
          }
        }
  stats.flops += 2.0 * static_cast<double>(dy.numel()) * KH * KW * C;
  stats.bytes += tensor_bytes(dy) + tensor_bytes(filter) + tensor_bytes(dx);
}

void conv2d_grad_filter_reference(const DenseTensor& in, const DenseTensor& dy,
                                  DenseTensor& df, int stride, KernelStats& stats) {
  const std::int64_t N = in.dim(0), H = in.dim(1), W = in.dim(2), C = in.dim(3);
  const std::int64_t KH = df.dim(0), KW = df.dim(1), F = df.dim(3);
  const std::int64_t HO = dy.dim(1), WO = dy.dim(2);
  const std::int64_t ph = (KH - 1) / 2, pw = (KW - 1) / 2;
  const float* x = in.fdata();
  const float* g = dy.fdata();
  float* o = df.fdata();
  std::fill(o, o + df.numel(), 0.0f);
  for (std::int64_t nidx = 0; nidx < N; ++nidx)
    for (std::int64_t ho = 0; ho < HO; ++ho)
      for (std::int64_t wo = 0; wo < WO; ++wo)
        for (std::int64_t f = 0; f < F; ++f) {
          const float gv = g[((nidx * HO + ho) * WO + wo) * F + f];
          for (std::int64_t kh = 0; kh < KH; ++kh) {
            const std::int64_t h = ho * stride + kh - ph;
            if (h < 0 || h >= H) continue;
            for (std::int64_t kw = 0; kw < KW; ++kw) {
              const std::int64_t ww = wo * stride + kw - pw;
              if (ww < 0 || ww >= W) continue;
              for (std::int64_t c = 0; c < C; ++c)
                o[((kh * KW + kw) * C + c) * F + f] +=
                    gv * x[((nidx * H + h) * W + ww) * C + c];
            }
          }
        }
  stats.flops += 2.0 * static_cast<double>(dy.numel()) * KH * KW * C;
  stats.bytes += tensor_bytes(in) + tensor_bytes(dy) + tensor_bytes(df);
}

// --- element/row kernels ----------------------------------------------------

void pointwise(ir::PointwiseFn fn, const std::vector<const DenseTensor*>& inputs,
               double scale_alpha, DenseTensor& out, conc::ThreadPool& pool,
               KernelStats& stats) {
  expect(!inputs.empty(), "pointwise inputs");
  // Checks the arity (throws on a mismatch) before any element is written.
  const double flops_per_element = ir::pointwise_fn_flops_per_element(fn, inputs.size());
  const std::int64_t n = out.numel();
  std::vector<const float*> src(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) src[j] = inputs[j]->fdata();
  float* o = out.fdata();
  const float* a = src[0];
  const float* b = src.size() > 1 ? src[1] : nullptr;
  const float alpha = static_cast<float>(scale_alpha);
  using Fn = ir::PointwiseFn;
  // Each case is the element's float expression, so the bits do not depend
  // on the blocking. `o` may alias input 0 (the memory plan allows it):
  // every element reads its inputs before it is written.
  for_element_blocks(pool, n, [&](std::int64_t i0, std::int64_t i1) {
    switch (fn) {
      case Fn::kAdd:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = a[i] + b[i];
        break;
      case Fn::kSub:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = a[i] - b[i];
        break;
      case Fn::kMul:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = a[i] * b[i];
        break;
      case Fn::kAddN:
        for (std::int64_t i = i0; i < i1; ++i) {
          double acc = 0;
          for (const float* x : src) acc += x[i];
          o[i] = static_cast<float>(acc);
        }
        break;
      case Fn::kSigmoid:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = 1.0f / (1.0f + std::exp(-a[i]));
        break;
      case Fn::kTanh:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = std::tanh(a[i]);
        break;
      case Fn::kRelu:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = std::max(0.0f, a[i]);
        break;
      case Fn::kOneMinus:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = 1.0f - a[i];
        break;
      case Fn::kScale:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = alpha * a[i];
        break;
      case Fn::kIdentity:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = a[i];
        break;
      case Fn::kSigmoidGrad:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = b[i] * a[i] * (1.0f - a[i]);
        break;
      case Fn::kTanhGrad:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = b[i] * (1.0f - a[i] * a[i]);
        break;
      case Fn::kReluGrad:
        for (std::int64_t i = i0; i < i1; ++i) o[i] = a[i] > 0 ? b[i] : 0.0f;
        break;
    }
  });
  stats.flops += flops_per_element * static_cast<double>(n);
  for (const DenseTensor* t : inputs) stats.bytes += tensor_bytes(*t);
  stats.bytes += tensor_bytes(out);
}

void bias_add(const DenseTensor& in, const DenseTensor& bias, DenseTensor& out,
              conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t nb = bias.numel();
  const std::int64_t rows = in.numel() / nb;
  const float* x = in.fdata();
  const float* b = bias.fdata();
  float* o = out.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(rows),
      [&](std::size_t r) {
        const std::int64_t base = static_cast<std::int64_t>(r) * nb;
        for (std::int64_t c = 0; c < nb; ++c) o[base + c] = x[base + c] + b[c];
      },
      row_grain(nb));
  stats.flops += static_cast<double>(in.numel());
  stats.bytes += tensor_bytes(in) + tensor_bytes(bias) + tensor_bytes(out);
}

void fused_pointwise(const std::vector<ir::FusedInstr>& program,
                     const std::vector<const DenseTensor*>& inputs,
                     const std::vector<float>& alphas, DenseTensor& out,
                     conc::ThreadPool& pool, KernelStats& stats) {
  expect(!program.empty() && !inputs.empty(), "fused_pointwise arity");
  expect(program.size() <= ir::FusedPointwiseOp::kMaxInstrs,
         "fused_pointwise program too long");
  expect(alphas.size() == program.size(), "fused_pointwise alpha count");
  const int nin = static_cast<int>(inputs.size());
  const std::int64_t n = out.numel();
  float* o = out.fdata();
  std::vector<const float*> src(inputs.size());
  std::vector<std::int64_t> extent(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    src[j] = inputs[j]->fdata();
    extent[j] = inputs[j]->numel();
  }
  using Fn = ir::PointwiseFn;
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(n),
      [&](std::size_t idx) {
        const auto i = static_cast<std::int64_t>(idx);
        float regs[ir::FusedPointwiseOp::kMaxInstrs];
        // args < nin read an external operand (modulo addressing; exact for
        // the shape classes FusedPointwiseOp admits), the rest read the
        // register file. Each case repeats its standalone kernel's float
        // expression so the fused bits equal the unfused chain's.
        auto val = [&](int a) {
          return a < nin ? src[a][i % extent[a]] : regs[a - nin];
        };
        for (std::size_t j = 0; j < program.size(); ++j) {
          const ir::FusedInstr& instr = program[j];
          const std::vector<int>& arg = instr.args;
          float r = 0.0f;
          switch (instr.fn) {
            case Fn::kAdd: r = val(arg[0]) + val(arg[1]); break;
            case Fn::kSub: r = val(arg[0]) - val(arg[1]); break;
            case Fn::kMul: r = val(arg[0]) * val(arg[1]); break;
            case Fn::kAddN: {
              double acc = 0;
              for (int a : arg) acc += val(a);
              r = static_cast<float>(acc);
              break;
            }
            case Fn::kSigmoid: r = 1.0f / (1.0f + std::exp(-val(arg[0]))); break;
            case Fn::kTanh: r = std::tanh(val(arg[0])); break;
            case Fn::kRelu: r = std::max(0.0f, val(arg[0])); break;
            case Fn::kOneMinus: r = 1.0f - val(arg[0]); break;
            case Fn::kScale: r = alphas[j] * val(arg[0]); break;
            case Fn::kIdentity: r = val(arg[0]); break;
            case Fn::kSigmoidGrad:
              r = val(arg[1]) * val(arg[0]) * (1.0f - val(arg[0]));
              break;
            case Fn::kTanhGrad:
              r = val(arg[1]) * (1.0f - val(arg[0]) * val(arg[0]));
              break;
            case Fn::kReluGrad: r = val(arg[0]) > 0 ? val(arg[1]) : 0.0f; break;
          }
          regs[j] = r;
        }
        o[i] = regs[program.size() - 1];
      },
      kElementChunk);
  double flops_per_element = 0;
  for (const ir::FusedInstr& instr : program)
    flops_per_element +=
        ir::pointwise_fn_flops_per_element(instr.fn, instr.args.size());
  stats.flops += flops_per_element * static_cast<double>(n);
  for (const DenseTensor* t : inputs) stats.bytes += tensor_bytes(*t);
  stats.bytes += tensor_bytes(out);
}

void fused_pointwise_simd(const codegen::LoweredProgram& lowered,
                          const std::vector<const DenseTensor*>& inputs,
                          const std::vector<float>& alphas, DenseTensor& out,
                          conc::ThreadPool& pool, KernelStats& stats,
                          hw::SimdIsa isa) {
  expect(inputs.size() == lowered.num_inputs, "fused_pointwise_simd arity");
  for (const codegen::LoweredInstr& ins : lowered.body)
    expect(ins.alpha_slot < static_cast<int>(alphas.size()),
           "fused_pointwise_simd alpha count");
  std::vector<const float*> src(inputs.size());
  std::vector<std::int64_t> extent(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    src[j] = inputs[j]->fdata();
    extent[j] = inputs[j]->numel();
  }
  codegen::run_lowered(lowered, codegen::resolve_isa(isa), src.data(), extent.data(),
                       alphas.data(), out.fdata(), out.numel(), pool);

  // Charge work identically to the interpreter so interp-vs-simd profiles
  // differ only in seconds, which is exactly the signal whatif scales.
  stats.flops += lowered.flops_per_element * static_cast<double>(out.numel());
  for (const DenseTensor* t : inputs) stats.bytes += tensor_bytes(*t);
  stats.bytes += tensor_bytes(out);
}

void embedding_lookup(const DenseTensor& table, const DenseTensor& ids, DenseTensor& out,
                      conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t e = table.dim(1);
  expect_ids_in_range(ids, table.dim(0));
  const std::int32_t* id = ids.idata();
  const float* t = table.fdata();
  float* o = out.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(ids.numel()),
      [&](std::size_t idx) {
        const auto r = static_cast<std::int64_t>(idx);
        std::copy_n(t + static_cast<std::int64_t>(id[r]) * e, e, o + r * e);
      },
      row_grain(e));
  stats.bytes += 2.0 * tensor_bytes(out) + tensor_bytes(ids);
}

void embedding_grad(const DenseTensor& ids, const DenseTensor& dy, DenseTensor& dtable,
                    conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t e = dtable.dim(1);
  // Before any write: an out-of-range id would scatter past the table.
  expect_ids_in_range(ids, dtable.dim(0));
  const std::int32_t* id = ids.idata();
  const float* g = dy.fdata();
  float* dt = dtable.fdata();
  std::fill_n(dt, dtable.numel(), 0.0f);
  const std::int64_t rows = ids.numel();
  // Fixed-width column blocks (independent of thread count): each block
  // owns a disjoint slice of every table row and scans the lookup rows in
  // ascending order, so the per-element accumulation order never changes.
  constexpr std::int64_t kColBlock = 32;
  const std::int64_t blocks = (e + kColBlock - 1) / kColBlock;
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(blocks),
      [&](std::size_t blk) {
        const std::int64_t c0 = static_cast<std::int64_t>(blk) * kColBlock;
        const std::int64_t c1 = std::min(e, c0 + kColBlock);
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* src = g + r * e;
          float* dst = dt + static_cast<std::int64_t>(id[r]) * e;
          for (std::int64_t c = c0; c < c1; ++c) dst[c] += src[c];
        }
      },
      row_grain(rows * kColBlock));
  stats.flops += static_cast<double>(dy.numel());
  stats.bytes += tensor_bytes(ids) + tensor_bytes(dy) + tensor_bytes(dtable);
}

void softmax(const DenseTensor& logits, DenseTensor& out, conc::ThreadPool& pool,
             KernelStats& stats) {
  const std::int64_t c = logits.dim(logits.rank() - 1);
  const std::int64_t rows = logits.numel() / c;
  const float* in = logits.fdata();
  float* o = out.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(rows),
      [&](std::size_t idx) {
        const auto r = static_cast<std::int64_t>(idx);
        const float* x = in + r * c;
        float* y = o + r * c;
        float m = x[0];
        for (std::int64_t i = 1; i < c; ++i) m = std::max(m, x[i]);
        double sum = 0;
        for (std::int64_t i = 0; i < c; ++i) sum += y[i] = std::exp(x[i] - m);
        for (std::int64_t i = 0; i < c; ++i) y[i] = static_cast<float>(y[i] / sum);
      },
      row_grain(c));
  stats.flops += 5.0 * static_cast<double>(logits.numel());
  stats.bytes += tensor_bytes(logits) + tensor_bytes(out);
}

void softmax_grad(const DenseTensor& y, const DenseTensor& dy, DenseTensor& dx,
                  conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t c = y.dim(y.rank() - 1);
  const std::int64_t rows = y.numel() / c;
  const float* yv = y.fdata();
  const float* g = dy.fdata();
  float* o = dx.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(rows),
      [&](std::size_t idx) {
        const std::int64_t base = static_cast<std::int64_t>(idx) * c;
        double dot = 0;
        for (std::int64_t i = base; i < base + c; ++i) dot += yv[i] * g[i];
        for (std::int64_t i = base; i < base + c; ++i)
          o[i] = yv[i] * (g[i] - static_cast<float>(dot));
      },
      row_grain(c));
  stats.flops += 4.0 * static_cast<double>(y.numel());
  stats.bytes += tensor_bytes(y) + tensor_bytes(dy) + tensor_bytes(dx);
}

void softmax_xent(const DenseTensor& logits, const DenseTensor& labels, DenseTensor& loss,
                  DenseTensor& probs, conc::ThreadPool& pool, KernelStats& stats) {
  softmax(logits, probs, pool, stats);
  const std::int64_t c = logits.dim(1);
  const std::int64_t rows = logits.dim(0);
  const std::int32_t* lab = labels.idata();
  const float* p = probs.fdata();
  float* l = loss.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(rows),
      [&](std::size_t idx) {
        const auto r = static_cast<std::int64_t>(idx);
        const std::int32_t label = lab[r];
        expect(label >= 0 && label < c, "label out of range");
        l[r] = -std::log(std::max(p[r * c + label], 1e-30f));
      },
      row_grain(1));
  stats.flops += static_cast<double>(logits.numel());
  stats.bytes += tensor_bytes(labels) + tensor_bytes(loss);
}

void softmax_xent_grad(const DenseTensor& probs, const DenseTensor& labels,
                       const DenseTensor& dloss, DenseTensor& dlogits,
                       conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t c = probs.dim(1);
  const std::int64_t rows = probs.dim(0);
  const float* p = probs.fdata();
  const std::int32_t* lab = labels.idata();
  const float* dl = dloss.fdata();
  float* o = dlogits.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(rows),
      [&](std::size_t idx) {
        const auto r = static_cast<std::int64_t>(idx);
        const float d = dl[r];
        const std::int32_t label = lab[r];
        const float* pr = p + r * c;
        float* orow = o + r * c;
        for (std::int64_t i = 0; i < c; ++i)
          orow[i] = (pr[i] - (i == label ? 1.0f : 0.0f)) * d;
      },
      row_grain(c));
  stats.flops += 2.0 * static_cast<double>(probs.numel());
  stats.bytes += tensor_bytes(probs) + tensor_bytes(labels) + tensor_bytes(dloss) +
                 tensor_bytes(dlogits);
}

void reduce(ir::ReduceKind kind, const DenseTensor& in, DenseTensor& out,
            conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t keep = out.numel();
  const std::int64_t groups = in.numel() / keep;
  const float* x = in.fdata();
  float* o = out.fdata();
  // Parallel over kept elements; each sums its strided group in ascending
  // order on one iteration, so the reduction tree is fixed.
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(keep),
      [&](std::size_t idx) {
        const auto j = static_cast<std::int64_t>(idx);
        double acc = 0;
        for (std::int64_t g = 0; g < groups; ++g) acc += x[g * keep + j];
        if (kind == ir::ReduceKind::kMean) acc /= static_cast<double>(groups);
        o[j] = static_cast<float>(acc);
      },
      row_grain(groups));
  stats.flops += static_cast<double>(in.numel()) +
                 (kind == ir::ReduceKind::kMean ? static_cast<double>(keep) : 0.0);
  stats.bytes += tensor_bytes(in) + tensor_bytes(out);
}

void broadcast(const DenseTensor& in, DenseTensor& out, conc::ThreadPool& pool,
               KernelStats& stats) {
  const std::int64_t inner = in.numel();
  const std::int64_t copies = out.numel() / inner;
  const float* src = in.fdata();
  float* o = out.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(copies),
      [&](std::size_t cidx) {
        std::copy_n(src, inner, o + static_cast<std::int64_t>(cidx) * inner);
      },
      row_grain(inner));
  stats.bytes += tensor_bytes(in) + tensor_bytes(out);
}

void batch_norm(const DenseTensor& in, const DenseTensor& scale, const DenseTensor& shift,
                DenseTensor& out, conc::ThreadPool& pool, KernelStats& stats) {
  constexpr double kEps = 1e-5;
  const std::int64_t c = scale.numel();
  const std::int64_t rows = in.numel() / c;
  const float* x = in.fdata();
  const float* sc = scale.fdata();
  const float* sh = shift.fdata();
  float* y = out.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(c),
      [&](std::size_t chidx) {
        const auto ch = static_cast<std::int64_t>(chidx);
        double mean = 0, var = 0;
        for (std::int64_t r = 0; r < rows; ++r) mean += x[r * c + ch];
        mean /= static_cast<double>(rows);
        for (std::int64_t r = 0; r < rows; ++r) {
          const double d = x[r * c + ch] - mean;
          var += d * d;
        }
        var /= static_cast<double>(rows);
        const double inv = 1.0 / std::sqrt(var + kEps);
        for (std::int64_t r = 0; r < rows; ++r)
          y[r * c + ch] = static_cast<float>((x[r * c + ch] - mean) * inv * sc[ch] + sh[ch]);
      },
      row_grain(rows));
  stats.flops += 8.0 * static_cast<double>(in.numel());
  stats.bytes +=
      tensor_bytes(in) + tensor_bytes(scale) + tensor_bytes(shift) + tensor_bytes(out);
}

void batch_norm_grad(const DenseTensor& in, const DenseTensor& scale,
                     const DenseTensor& dy, DenseTensor& dx, DenseTensor& dscale,
                     DenseTensor& dshift, conc::ThreadPool& pool, KernelStats& stats) {
  constexpr double kEps = 1e-5;
  const std::int64_t c = scale.numel();
  const std::int64_t rows = in.numel() / c;
  const float* x = in.fdata();
  const float* sc = scale.fdata();
  const float* g = dy.fdata();
  float* o = dx.fdata();
  float* dsc = dscale.fdata();
  float* dsh = dshift.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(c),
      [&](std::size_t chidx) {
        const auto ch = static_cast<std::int64_t>(chidx);
        double mean = 0, var = 0;
        for (std::int64_t r = 0; r < rows; ++r) mean += x[r * c + ch];
        mean /= static_cast<double>(rows);
        for (std::int64_t r = 0; r < rows; ++r) {
          const double d = x[r * c + ch] - mean;
          var += d * d;
        }
        var /= static_cast<double>(rows);
        const double inv = 1.0 / std::sqrt(var + kEps);

        double sum_dy = 0, sum_dy_xhat = 0;
        for (std::int64_t r = 0; r < rows; ++r) {
          const double xhat = (x[r * c + ch] - mean) * inv;
          sum_dy += g[r * c + ch];
          sum_dy_xhat += g[r * c + ch] * xhat;
        }
        dsh[ch] = static_cast<float>(sum_dy);
        dsc[ch] = static_cast<float>(sum_dy_xhat);
        const double n = static_cast<double>(rows);
        for (std::int64_t r = 0; r < rows; ++r) {
          const double xhat = (x[r * c + ch] - mean) * inv;
          o[r * c + ch] = static_cast<float>(
              sc[ch] * inv * (g[r * c + ch] - sum_dy / n - xhat * sum_dy_xhat / n));
        }
      },
      row_grain(rows));
  stats.flops += 12.0 * static_cast<double>(in.numel());
  stats.bytes += tensor_bytes(in) + tensor_bytes(scale) + tensor_bytes(dy) +
                 tensor_bytes(dx) + tensor_bytes(dscale) + tensor_bytes(dshift);
}

void pool(ir::PoolKind kind, const DenseTensor& in, DenseTensor& out, int window_h,
          int window_w, conc::ThreadPool& pool_, KernelStats& stats) {
  const std::int64_t N = in.dim(0), H = in.dim(1), W = in.dim(2), C = in.dim(3);
  const std::int64_t HO = out.dim(1), WO = out.dim(2);
  conc::parallel_for(pool_, 0, static_cast<std::size_t>(N * HO), [&](std::size_t idx) {
    const std::int64_t n = static_cast<std::int64_t>(idx) / HO;
    const std::int64_t ho = static_cast<std::int64_t>(idx) % HO;
    for (std::int64_t wo = 0; wo < WO; ++wo)
      for (std::int64_t c = 0; c < C; ++c) {
        double acc = (kind == ir::PoolKind::kMax) ? -1e30 : 0.0;
        for (std::int64_t kh = 0; kh < window_h; ++kh)
          for (std::int64_t kw = 0; kw < window_w; ++kw) {
            const std::int64_t h = ho * window_h + kh, w = wo * window_w + kw;
            if (h >= H || w >= W) continue;
            const double v = in.f(((n * H + h) * W + w) * C + c);
            acc = (kind == ir::PoolKind::kMax) ? std::max(acc, v) : acc + v;
          }
        if (kind == ir::PoolKind::kAvg) acc /= window_h * window_w;
        out.f(((n * HO + ho) * WO + wo) * C + c) = static_cast<float>(acc);
      }
  });
  stats.flops += static_cast<double>(in.numel());
  stats.bytes += tensor_bytes(in) + tensor_bytes(out);
}

void pool_grad(ir::PoolKind kind, const DenseTensor& in, const DenseTensor& out,
               const DenseTensor& dy, DenseTensor& dx, int window_h, int window_w,
               conc::ThreadPool& pool_, KernelStats& stats) {
  const std::int64_t N = in.dim(0), H = in.dim(1), W = in.dim(2), C = in.dim(3);
  const std::int64_t HO = out.dim(1), WO = out.dim(2);
  std::fill(dx.fdata(), dx.fdata() + dx.numel(), 0.0f);
  // Windows tile the input (stride == window), so (n, ho) rows touch
  // disjoint dx rows and can scatter in parallel.
  conc::parallel_for(pool_, 0, static_cast<std::size_t>(N * HO), [&](std::size_t idx) {
    const std::int64_t n = static_cast<std::int64_t>(idx) / HO;
    const std::int64_t ho = static_cast<std::int64_t>(idx) % HO;
    for (std::int64_t wo = 0; wo < WO; ++wo)
      for (std::int64_t c = 0; c < C; ++c) {
        const std::int64_t oi = ((n * HO + ho) * WO + wo) * C + c;
        if (kind == ir::PoolKind::kAvg) {
          const float share = dy.f(oi) / (window_h * window_w);
          for (std::int64_t kh = 0; kh < window_h; ++kh)
            for (std::int64_t kw = 0; kw < window_w; ++kw) {
              const std::int64_t h = ho * window_h + kh, w = wo * window_w + kw;
              if (h >= H || w >= W) continue;
              dx.f(((n * H + h) * W + w) * C + c) += share;
            }
        } else {
          // Route the gradient to the (first) argmax position.
          for (std::int64_t kh = 0; kh < window_h; ++kh)
            for (std::int64_t kw = 0; kw < window_w; ++kw) {
              const std::int64_t h = ho * window_h + kh, w = wo * window_w + kw;
              if (h >= H || w >= W) continue;
              if (in.f(((n * H + h) * W + w) * C + c) == out.f(oi)) {
                dx.f(((n * H + h) * W + w) * C + c) += dy.f(oi);
                kh = window_h;  // break both loops
                break;
              }
            }
        }
      }
  });
  stats.flops += static_cast<double>(dx.numel());
  stats.bytes += tensor_bytes(in) + tensor_bytes(out) + tensor_bytes(dy) +
                 tensor_bytes(dx);
}

// Axis-wise data movement: an outer row of the concatenated tensor is the
// parts' rows back to back, each one contiguous run of axis x inner
// elements, so every part's row is a single std::copy_n.

void concat(const std::vector<const DenseTensor*>& inputs, std::size_t axis,
            DenseTensor& out, conc::ThreadPool& pool, KernelStats& stats) {
  const AxisView ov = axis_view(out, axis);
  const std::int64_t row = ov.axis * ov.inner;
  std::vector<const float*> src(inputs.size());
  std::vector<std::int64_t> run(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    src[j] = inputs[j]->fdata();
    run[j] = axis_view(*inputs[j], axis).axis * ov.inner;
    stats.bytes += tensor_bytes(*inputs[j]);
  }
  float* o = out.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(ov.outer),
      [&](std::size_t oidx) {
        const auto r = static_cast<std::int64_t>(oidx);
        float* dst = o + r * row;
        for (std::size_t j = 0; j < src.size(); ++j)
          dst = std::copy_n(src[j] + r * run[j], run[j], dst);
      },
      row_grain(row));
  stats.bytes += tensor_bytes(out);
}

void split(const DenseTensor& in, std::size_t axis,
           const std::vector<DenseTensor*>& outs, conc::ThreadPool& pool,
           KernelStats& stats) {
  const AxisView iv = axis_view(in, axis);
  const std::int64_t row = iv.axis * iv.inner;
  std::vector<float*> dst(outs.size());
  std::vector<std::int64_t> run(outs.size());
  for (std::size_t j = 0; j < outs.size(); ++j) {
    dst[j] = outs[j]->fdata();
    run[j] = axis_view(*outs[j], axis).axis * iv.inner;
    stats.bytes += tensor_bytes(*outs[j]);
  }
  const float* x = in.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(iv.outer),
      [&](std::size_t oidx) {
        const auto r = static_cast<std::int64_t>(oidx);
        const float* src = x + r * row;
        for (std::size_t j = 0; j < dst.size(); ++j) {
          std::copy_n(src, run[j], dst[j] + r * run[j]);
          src += run[j];
        }
      },
      row_grain(row));
  stats.bytes += tensor_bytes(in);
}

void slice(const DenseTensor& in, std::size_t axis, std::int64_t offset, DenseTensor& out,
           conc::ThreadPool& pool, KernelStats& stats) {
  const AxisView iv = axis_view(in, axis);
  const AxisView ov = axis_view(out, axis);
  const std::int64_t run = ov.axis * ov.inner;
  const float* x = in.fdata() + offset * iv.inner;
  float* o = out.fdata();
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(ov.outer),
      [&](std::size_t oidx) {
        const auto r = static_cast<std::int64_t>(oidx);
        std::copy_n(x + r * iv.axis * iv.inner, run, o + r * run);
      },
      row_grain(run));
  stats.bytes += 2.0 * tensor_bytes(out);
}

void reshape_copy(const DenseTensor& in, DenseTensor& out, KernelStats& stats) {
  (void)stats;  // reshape moves no data algorithmically
  std::copy(in.fdata(), in.fdata() + in.numel(), out.fdata());
}

void apply_gradient(ir::Optimizer optimizer, DenseTensor& weight, const DenseTensor& grad,
                    const std::vector<DenseTensor*>& slots, double learning_rate,
                    conc::ThreadPool& pool, KernelStats& stats) {
  const std::int64_t n = weight.numel();
  float* w = weight.fdata();
  const float* g = grad.fdata();
  const float lr = static_cast<float>(learning_rate);
  switch (optimizer) {
    case ir::Optimizer::kSGD:
      for_element_blocks(pool, n, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) w[i] -= lr * g[i];
      });
      stats.flops += 2.0 * static_cast<double>(n);
      stats.bytes += 2.0 * tensor_bytes(weight) + tensor_bytes(grad);
      return;
    case ir::Optimizer::kMomentum: {
      expect(slots.size() == 1, "momentum needs one slot");
      float* v = slots[0]->fdata();
      constexpr float kMomentum = 0.9f;
      for_element_blocks(pool, n, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          v[i] = kMomentum * v[i] + g[i];
          w[i] -= lr * v[i];
        }
      });
      stats.flops += 4.0 * static_cast<double>(n);
      stats.bytes += 2.0 * tensor_bytes(weight) + tensor_bytes(grad) +
                     2.0 * tensor_bytes(*slots[0]);
      return;
    }
    case ir::Optimizer::kAdam: {
      expect(slots.size() == 2, "adam needs two slots");
      float* m = slots[0]->fdata();
      float* v = slots[1]->fdata();
      constexpr float kB1 = 0.9f, kB2 = 0.999f, kEps = 1e-8f;
      for_element_blocks(pool, n, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          m[i] = kB1 * m[i] + (1 - kB1) * g[i];
          v[i] = kB2 * v[i] + (1 - kB2) * g[i] * g[i];
          w[i] -= lr * m[i] / (std::sqrt(v[i]) + kEps);
        }
      });
      stats.flops += 10.0 * static_cast<double>(n);
      stats.bytes += 2.0 * tensor_bytes(weight) + tensor_bytes(grad) +
                     2.0 * tensor_bytes(*slots[0]) + 2.0 * tensor_bytes(*slots[1]);
      return;
    }
  }
  expect(false, "unknown optimizer");
}

}  // namespace gf::rt
