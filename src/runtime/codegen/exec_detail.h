// Internal contract between the ISA dispatcher (dispatch.cpp) and the
// per-ISA translation units generated from simd_body.inc. Not installed,
// not for use outside src/runtime/codegen/.
//
// The dispatcher flattens a LoweredProgram into POD arrays once per kernel
// call (FlatProgram), then hands fixed element ranges (PwArgs blocks) to the
// selected run_block_<isa>. Blocks always start on a kSimdBlock boundary —
// a multiple of every supported vector width — so lane grouping, and hence
// every rounded intermediate, is independent of how blocks land on threads.
#pragma once

#include <cstdint>

#include "src/ir/ops.h"

namespace gf::rt::codegen::detail {

/// Fixed block size the pointwise executor parallelizes over. A multiple of
/// 16 (the widest lane count) so block starts are always vector-aligned.
inline constexpr std::int64_t kSimdBlock = 4096;

/// Capacity of the per-block value array: one vector register image per
/// load slot and per surviving instruction. Programs are capped at
/// kMaxInstrs; load slots are deduplicated external inputs, capped here —
/// the dispatcher falls back to the interpreter beyond that (an op with
/// >96 distinct operands is far outside the fusion pass's shapes).
inline constexpr int kMaxLoadSlots = 96;
inline constexpr int kMaxSlots =
    kMaxLoadSlots + static_cast<int>(ir::FusedPointwiseOp::kMaxInstrs);

/// One lowered instruction, flattened: operand slots live in
/// FlatProgram::args[arg_offset .. arg_offset+nargs). `alpha` is the
/// pre-evaluated kScale multiplier already narrowed to float — the
/// interpreter multiplies by static_cast<float>(alpha), so narrowing at
/// flatten time preserves bitwise parity.
struct FlatInstr {
  ir::PointwiseFn fn = ir::PointwiseFn::kIdentity;
  int nargs = 0;
  int arg_offset = 0;
  float alpha = 1.0f;
};

struct FlatProgram {
  int num_loads = 0;
  int num_body = 0;
  int result = 0;
  const int* load_inputs = nullptr;  // [num_loads] external input indices
  const FlatInstr* body = nullptr;   // [num_body]
  const int* args = nullptr;         // flattened operand slot indices
};

/// One block of output elements [i0, i1) out of n. i0 is a multiple of
/// kSimdBlock; i1 is either i0 + kSimdBlock or n (the only block with a
/// ragged tail is the last). src/extent follow the interpreter's modulo
/// addressing contract: input a contributes src[a][i % extent[a]].
struct PwArgs {
  const float* const* src = nullptr;
  const std::int64_t* extent = nullptr;
  float* out = nullptr;
  std::int64_t n = 0;
  std::int64_t i0 = 0;
  std::int64_t i1 = 0;
};

// Per-ISA entry points (simd_body.inc instantiations). gemm_ukr_<isa>
// updates a packed (mr x nr) fp32 accumulator tile with the ISA's
// compile-time register tile — register_tile_rule(isa) by construction,
// asserted in dispatch.cpp.
void run_block_generic(const FlatProgram& fp, const PwArgs& a);
void gemm_ukr_generic(const float* a_strip, const float* b_strip,
                      std::int64_t kc, float* acc);
#if defined(__x86_64__) || defined(__i386__)
void run_block_avx2(const FlatProgram& fp, const PwArgs& a);
void gemm_ukr_avx2(const float* a_strip, const float* b_strip,
                   std::int64_t kc, float* acc);
void run_block_avx512(const FlatProgram& fp, const PwArgs& a);
void gemm_ukr_avx512(const float* a_strip, const float* b_strip,
                     std::int64_t kc, float* acc);
#endif
#if defined(__aarch64__)
void run_block_neon(const FlatProgram& fp, const PwArgs& a);
void gemm_ukr_neon(const float* a_strip, const float* b_strip,
                   std::int64_t kc, float* acc);
#endif

}  // namespace gf::rt::codegen::detail
