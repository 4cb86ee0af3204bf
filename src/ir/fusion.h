// Graph-level op fusion (paper §4, Fig 9): the dominant cost in the
// paper's RNN domains is low-operational-intensity pointwise ops whose
// intermediates round-trip through memory. This pass rewrites a built
// graph — after gradient construction, so autodiff never sees fused ops —
// to raise FLOPs-per-byte two ways, always both and in this order:
//
//   1. GEMM epilogues: MatMul -> BiasAdd [-> sigmoid|tanh|relu] (or
//      MatMul -> activation) chains whose intermediates have exactly one
//      consumer fold into the MatMul itself; the blocked GEMM applies
//      bias + activation in its per-tile output pass (src/runtime/gemm.h),
//      so the intermediates are never written at all.
//   2. Pointwise chains/trees: single-consumer chains of PointwiseOp /
//      BiasAddOp (plus Broadcast feeders, absorbed as modulo-indexed
//      inputs) collapse into one FusedPointwiseOp program.
//
// Both rewrites conserve FLOPs exactly and shrink bytes_accessed to the
// surviving inputs + outputs, so every symbolic consumer (step_analysis,
// Fig 9, roofline, memplan) sees the intensity gain analytically; the
// executor's fused kernels are bitwise-equal to the unfused path, so the
// gain can also be measured numerically (bench/fusion_bench.cpp).
//
// Structural invariants (checked by the "fusion" verify pass): groups are
// connected, internally single-consumer, shape-compatible, FLOP-conserving
// vs their constituents, and their byte formulas count only surviving
// tensors. Rewritten graphs stay race-free by construction: fusion only
// contracts data edges, never reorders writers (see DESIGN.md).
#pragma once

#include <cstddef>

#include "src/ir/graph.h"

namespace gf::ir {

struct FusionResult {
  /// FusedPointwiseOp nodes created.
  std::size_t pointwise_groups = 0;
  /// MatMul ops that absorbed a bias/activation epilogue.
  std::size_t gemm_epilogues = 0;
  /// Original ops spliced out of the graph (fused ops added are not
  /// subtracted; the net op delta is ops_removed - pointwise_groups).
  std::size_t ops_removed = 0;
  /// Intermediate tensors eliminated from the graph (and hence from every
  /// byte formula, the memory plan, and the executor's transient set).
  std::size_t tensors_removed = 0;
};

/// Rewrites `graph` in place with both rewrites. Idempotent: a second run
/// finds nothing new. Call after gradient construction; run verify_graph()
/// afterwards in doubt (the executor's `verify` option does).
FusionResult fuse_graph(Graph& graph);

}  // namespace gf::ir
