// Runtime ISA dispatch for the codegen layer.
//
// The fused-pointwise executor and the GEMM micro-kernel are compiled once
// per target ISA (translation units under src/runtime/codegen/, each built
// with that ISA's flags) from one shared body written against GCC/Clang
// vector extensions. This header owns the choice of which one runs:
// active_isa() is the widest ISA the CPU supports unless a test or bench
// pinned another with set_forced_isa. Requesting an ISA the probed CPU
// cannot execute falls back to the widest supported one (never SIGILL);
// resolve_isa() exposes the rule.
//
// Numerics contract (tested in test_codegen, gated in kernel_bench):
//   - The compiled GEMM micro-kernels are bitwise-equal to blocked_gemm's
//     runtime-sized scalar micro-kernel (the test oracle, reached by
//     packing for the seed tile {kGemmMr, kGemmNr}) on every ISA: lanes
//     vectorize the n-dimension, and each output
//     element adds float-rounded products to a float accumulator in
//     ascending-k order with no fused multiply-add, so the per-element
//     operation sequence is unchanged. Against the double-accumulating
//     reference_gemm the result is error-bounded, not bitwise (gemm.h).
//   - Compiled fused-pointwise programs are bitwise-equal to the
//     interpreter for programs built from exact IEEE ops (add, sub, mul,
//     add_n, relu, scale, one_minus, the grads) and epsilon-bounded
//     (polynomial exp) for sigmoid/tanh. Results are independent of
//     thread count on every path: blocks are fixed 4096-element ranges,
//     and the ragged tail runs the same vector code on padded lanes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/concurrency/thread_pool.h"
#include "src/hw/cpu_features.h"
#include "src/runtime/codegen/lowering.h"

namespace gf::rt::codegen {

using hw::SimdIsa;

/// The ISA the compiled kernels run on right now: the set_forced_isa
/// override when one is set, hw::best_simd_isa() otherwise.
SimdIsa active_isa();

/// Test and bench hook: pins the active ISA (or, with nullopt, reverts to
/// best_simd_isa()). The request is resolved through resolve_isa first.
/// Not synchronized: call it between steps, not during one.
void set_forced_isa(std::optional<SimdIsa> isa);

/// Clamps a requested ISA to what the CPU supports: an unsupported ISA
/// becomes best_simd_isa() (which is always executable — kGeneric at
/// worst).
SimdIsa resolve_isa(SimdIsa requested);

/// The GEMM register micro-tile the compiled micro-kernel for `isa` uses —
/// register_tile_rule(resolve_isa(isa)). blocked_gemm dispatches to the ISA
/// micro-kernel only when the tiling it was handed matches this tile; any
/// other (mr, nr) runs the runtime-sized scalar kernel.
hw::RegisterTile gemm_register_tile(SimdIsa isa);

/// Compiled GEMM micro-kernel for one packed (mr x nr) strip pair:
/// acc[i*nr + j] = fl(acc[i*nr + j] + fl(a_strip[p*mr + i] * b_strip[p*nr + j]))
/// for p ascending, in fp32 without FMA — bitwise-equal to the scalar
/// loop. `isa` must be a compiled ISA supported on this CPU and (mr, nr)
/// must equal gemm_register_tile(isa); returns false (computing nothing)
/// otherwise, and the caller falls back.
bool gemm_micro_kernel(SimdIsa isa, const float* a_strip, const float* b_strip,
                       std::int64_t kc, float* acc, std::int64_t mr,
                       std::int64_t nr);

/// True when the vector executors can run this lowered program (the load
/// slot count fits their fixed value array). Callers keep the interpreter
/// when this is false.
bool compilable(const LoweredProgram& program);

/// Executes a lowered fused-pointwise program over `n` output elements on
/// the pool, vectorized for `isa` (a supported ISA, as resolve_isa
/// returns). `src`/`extent` are the op's external input pointers and
/// element counts (modulo addressing contract), `alphas` is indexed by
/// *source-program* instruction (kScale slots). Throws
/// std::invalid_argument when the program is not compilable().
void run_lowered(const LoweredProgram& program, SimdIsa isa,
                 const float* const* src, const std::int64_t* extent,
                 const float* alphas, float* out, std::int64_t n,
                 conc::ThreadPool& pool);

}  // namespace gf::rt::codegen
