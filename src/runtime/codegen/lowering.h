// Lowering of FusedPointwiseOp interpreter programs to an SSA-ish form the
// vectorized executors (src/runtime/codegen/dispatch.h) run as straight-line
// loops — the compile step DeepDSL (arXiv:1701.02284) argues DL graphs
// deserve, applied to our per-element programs.
//
// The interpreter (rt::fused_pointwise) re-decides everything per element:
// every operand reference branches on "input or register?", every external
// read pays a modulo, and dead or identity instructions execute anyway.
// Lowering hoists all of those decisions out of the loop, once per program
// (rt::Executor lowers each fused op when it is built):
//
//   - Dead-code elimination: instructions whose value never reaches the
//     result are dropped (they can only arise via mutable_program tampering,
//     but the validator must not trust the producer).
//   - Identity forwarding: kIdentity instructions vanish; their uses read
//     the source value directly.
//   - Load/compute split: each external input used by the surviving body is
//     read by exactly one load slot. The executor classifies every load
//     once per call — contiguous, scalar broadcast, aligned-periodic, or
//     gather — instead of taking a modulo per element (the "modulo-indexed
//     broadcast loads" of the fusion shape contract become vector loads).
//   - Alpha slots: kScale keeps a reference to its *original* program index
//     so the runtime can pass pre-evaluated multipliers and the verifier
//     can recover the symbolic alpha.
//
// Lowering is itself translation-validated: `lowered_program_semantics`
// re-derives the canonical per-element denotation (src/ir/semantics.h) of
// the lowered form, and the "equiv" verify pass demands it match the fused
// op's rewrite certificate — so a lowering bug is a lint error, not a wrong
// number. This file lives in gf_ir (like runtime/memplan.cpp) precisely so
// the verifier can call it without a dependency cycle.
#pragma once

#include <cstddef>
#include <vector>

#include "src/ir/ops.h"

namespace gf::rt::codegen {

/// One surviving instruction. `args` are SSA slots: values < loads.size()
/// name load results (external reads), the rest name earlier body results
/// (slot - loads.size()). kIdentity never survives lowering.
struct LoweredInstr {
  ir::PointwiseFn fn;
  std::vector<int> args;
  /// For kScale: index of the originating instruction in the *source*
  /// program — the key into the caller's evaluated-alpha array and into
  /// the symbolic alphas for semantics re-derivation. -1 otherwise.
  int alpha_slot = -1;
};

struct LoweredProgram {
  /// Operand count of the source op (load slots index into this space).
  std::size_t num_inputs = 0;
  /// External input index read by each load slot, in first-use order.
  std::vector<int> loads;
  std::vector<LoweredInstr> body;
  /// SSA slot of the output element: usually the last body instruction,
  /// but a pure-identity program lowers to a bare load slot.
  int result = 0;
  /// FLOPs per output element charged for the source program (every
  /// instruction, dropped ones included), so the compiled kernel reports
  /// the same work as the interpreter.
  double flops_per_element = 0;

  std::size_t num_slots() const { return loads.size() + body.size(); }
};

/// Lowers a fused program. Throws std::invalid_argument on the malformed
/// shapes the interpreter would also reject (empty program, too long,
/// operand index out of range, wrong arity).
LoweredProgram lower_program(const std::vector<ir::FusedInstr>& program,
                             std::size_t num_inputs);

/// Canonical per-element denotation of the lowered program over placeholder
/// symbols x0..x{num_inputs-1}, for translation validation against both
/// ir::fused_program_semantics and the fused op's rewrite certificate.
/// `source` must be the program `lowered` was derived from (kScale alphas
/// are recovered through the alpha slots).
sym::Expr lowered_program_semantics(const LoweredProgram& lowered,
                                    const std::vector<ir::FusedInstr>& source);

}  // namespace gf::rt::codegen
