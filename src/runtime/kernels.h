// Numeric kernels for every op type in the IR.
//
// The kernel layer is the runtime's performance floor: matrix ops lower to
// the cache-blocked packed GEMM in gemm.h (convolutions via im2col), and
// every remaining kernel partitions its disjoint-output loop over the
// thread pool with `parallel_for`. All kernels keep the executor's
// bitwise-determinism contract — each output element is produced by
// exactly one iteration with a fixed accumulation order, so results are
// identical across schedules and thread counts.
//
// The pre-blocking implementations are retained as `*_reference` (and
// `reference_gemm`) and the fused-pointwise interpreter as
// `fused_pointwise`. They are test oracles, never chosen by the executor
// (except the interpreter for programs too wide to compile): tests hold
// the production kernels to them — bitwise, or within the fp32 error
// bound of gemm.h — and `bench/kernel_bench` reports speedup against them.
#pragma once

#include <cstdint>

#include "src/concurrency/thread_pool.h"
#include "src/hw/cpu_features.h"
#include "src/ir/ops.h"
#include "src/runtime/codegen/lowering.h"
#include "src/runtime/dense_tensor.h"
#include "src/runtime/gemm.h"

namespace gf::rt {

/// Executed-work counters, accumulated by every kernel from its actual
/// loop trip counts — the runtime-side mirror of the symbolic counts.
struct KernelStats {
  double flops = 0;
  double bytes = 0;
  /// Which implementation class served this op ("pointwise-simd" for a
  /// compiled fused program); points at a string literal. Flows into
  /// TimelineEvent::kernel_class so what-if scaling can target an
  /// implementation rather than an op type. Empty for single-implementation
  /// ops.
  const char* kernel_class = "";
};

// Dense (optionally batched/transposed) GEMM. Shapes follow MatMulOp.
// Bytes are charged algorithmically, matching MatMulOp::bytes_accessed():
// each operand tensor once — in particular a rank-2 B broadcast under a
// rank-3 A is charged once, not once per batch (shared weights are read
// once algorithmically; cache re-streaming is the hw model's concern).
// `epi_bias` / `epi_act` carry a fused MatMul epilogue (src/ir/fusion.h)
// into the GEMM's per-tile output pass; results stay bitwise equal to the
// separate matmul -> bias_add -> pointwise kernel sequence. `b_packed` is a
// rank-2 b already packed by pack_b_panels under default_gemm_tiling()
// (blocked_gemm's argument of that name); stats are charged as without it.
void matmul(const DenseTensor& a, const DenseTensor& b, DenseTensor& out, bool trans_a,
            bool trans_b, conc::ThreadPool& pool, KernelStats& stats,
            const DenseTensor* epi_bias = nullptr,
            ir::PointwiseFn epi_act = ir::PointwiseFn::kIdentity,
            const float* b_packed = nullptr);

// NHWC convolution, "same" padding (odd kernel), square stride. Executed
// as im2col + blocked GEMM.
void conv2d(const DenseTensor& in, const DenseTensor& filter, DenseTensor& out,
            int stride, conc::ThreadPool& pool, KernelStats& stats);
void conv2d_grad_input(const DenseTensor& dy, const DenseTensor& filter, DenseTensor& dx,
                       int stride, conc::ThreadPool& pool, KernelStats& stats);
void conv2d_grad_filter(const DenseTensor& in, const DenseTensor& dy, DenseTensor& df,
                        int stride, conc::ThreadPool& pool, KernelStats& stats);

// Retained single-threaded direct convolution loops (the seed kernels):
// test and bench oracles for the im2col path.
void conv2d_reference(const DenseTensor& in, const DenseTensor& filter, DenseTensor& out,
                      int stride, KernelStats& stats);
void conv2d_grad_input_reference(const DenseTensor& dy, const DenseTensor& filter,
                                 DenseTensor& dx, int stride, KernelStats& stats);
void conv2d_grad_filter_reference(const DenseTensor& in, const DenseTensor& dy,
                                  DenseTensor& df, int stride, KernelStats& stats);

void pointwise(ir::PointwiseFn fn, const std::vector<const DenseTensor*>& inputs,
               double scale_alpha, DenseTensor& out, conc::ThreadPool& pool,
               KernelStats& stats);

void bias_add(const DenseTensor& in, const DenseTensor& bias, DenseTensor& out,
              conc::ThreadPool& pool, KernelStats& stats);

/// Interprets a FusedPointwiseOp program once per output element: inputs
/// are read with modulo addressing (exact for same-shape operands, rank-1
/// biases, and broadcast sources — FusedPointwiseOp's shape contract),
/// intermediate results live in a register file and never touch memory.
/// Each instruction replicates its standalone kernel's float expression
/// (kAddN keeps the double accumulator), so fused output bits equal the
/// unfused op chain's. `alphas` holds the pre-evaluated kScale multiplier
/// per instruction, narrowed to float (ignored for other fns; size must
/// match the program). The test oracle for fused_pointwise_simd.
void fused_pointwise(const std::vector<ir::FusedInstr>& program,
                     const std::vector<const DenseTensor*>& inputs,
                     const std::vector<float>& alphas, DenseTensor& out,
                     conc::ThreadPool& pool, KernelStats& stats);

/// Compiled fused-pointwise path: runs a program lowered by
/// codegen::lower_program on the straight-line vectorized executor for
/// `isa` (resolved to a supported ISA first). `alphas` is indexed by
/// source-program instruction, as for the interpreter. Throws
/// std::invalid_argument when the program is not codegen::compilable,
/// which no constructed FusedPointwiseOp's program is. Numerics per dispatch.h:
/// bitwise equal to the interpreter except epsilon-bounded kSigmoid/kTanh.
/// Stats are charged identically to the interpreter (from the source
/// program's FLOPs per element, which lowering records).
void fused_pointwise_simd(const codegen::LoweredProgram& lowered,
                          const std::vector<const DenseTensor*>& inputs,
                          const std::vector<float>& alphas, DenseTensor& out,
                          conc::ThreadPool& pool, KernelStats& stats,
                          hw::SimdIsa isa);

/// Both embedding kernels throw std::logic_error before writing anything
/// when an id lies outside [0, table rows).
void embedding_lookup(const DenseTensor& table, const DenseTensor& ids, DenseTensor& out,
                      conc::ThreadPool& pool, KernelStats& stats);
// Scatter-add partitioned over embedding-column blocks: each task owns a
// disjoint column range and walks the rows in ascending order, so the sum
// per table element is thread-count independent.
void embedding_grad(const DenseTensor& ids, const DenseTensor& dy, DenseTensor& dtable,
                    conc::ThreadPool& pool, KernelStats& stats);

void softmax(const DenseTensor& logits, DenseTensor& out, conc::ThreadPool& pool,
             KernelStats& stats);
void softmax_grad(const DenseTensor& y, const DenseTensor& dy, DenseTensor& dx,
                  conc::ThreadPool& pool, KernelStats& stats);
void softmax_xent(const DenseTensor& logits, const DenseTensor& labels, DenseTensor& loss,
                  DenseTensor& probs, conc::ThreadPool& pool, KernelStats& stats);
void softmax_xent_grad(const DenseTensor& probs, const DenseTensor& labels,
                       const DenseTensor& dloss, DenseTensor& dlogits,
                       conc::ThreadPool& pool, KernelStats& stats);

void reduce(ir::ReduceKind kind, const DenseTensor& in, DenseTensor& out,
            conc::ThreadPool& pool, KernelStats& stats);
void broadcast(const DenseTensor& in, DenseTensor& out, conc::ThreadPool& pool,
               KernelStats& stats);

void batch_norm(const DenseTensor& in, const DenseTensor& scale, const DenseTensor& shift,
                DenseTensor& out, conc::ThreadPool& pool, KernelStats& stats);
void batch_norm_grad(const DenseTensor& in, const DenseTensor& scale,
                     const DenseTensor& dy, DenseTensor& dx, DenseTensor& dscale,
                     DenseTensor& dshift, conc::ThreadPool& pool, KernelStats& stats);

void pool(ir::PoolKind kind, const DenseTensor& in, DenseTensor& out, int window_h,
          int window_w, conc::ThreadPool& pool_, KernelStats& stats);
void pool_grad(ir::PoolKind kind, const DenseTensor& in, const DenseTensor& out,
               const DenseTensor& dy, DenseTensor& dx, int window_h, int window_w,
               conc::ThreadPool& pool_, KernelStats& stats);

void concat(const std::vector<const DenseTensor*>& inputs, std::size_t axis,
            DenseTensor& out, conc::ThreadPool& pool, KernelStats& stats);
void split(const DenseTensor& in, std::size_t axis,
           const std::vector<DenseTensor*>& outs, conc::ThreadPool& pool,
           KernelStats& stats);
void slice(const DenseTensor& in, std::size_t axis, std::int64_t offset, DenseTensor& out,
           conc::ThreadPool& pool, KernelStats& stats);
void reshape_copy(const DenseTensor& in, DenseTensor& out, KernelStats& stats);

/// In-place optimizer update; slots may be empty (SGD) / 1 (momentum) /
/// 2 (Adam). Learning rate is the caller's. Element-wise and disjoint, so
/// the parallel partition cannot change results.
void apply_gradient(ir::Optimizer optimizer, DenseTensor& weight, const DenseTensor& grad,
                    const std::vector<DenseTensor*>& slots, double learning_rate,
                    conc::ThreadPool& pool, KernelStats& stats);

}  // namespace gf::rt
