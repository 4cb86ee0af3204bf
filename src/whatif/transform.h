// Hypothetical-optimization transforms over a loaded trace.
//
// Each transform is pure: it maps a Trace to a new Trace with durations,
// byte counts, and (for fusion) the node set itself rewritten to what a
// profiled run of the optimized program would have recorded. Re-simulating
// the transformed trace (src/whatif/resim.h) yields the predicted step
// time — the Daydream recipe (arXiv:2006.03318): estimate the payoff of an
// optimization by editing the profiled dependency graph instead of
// implementing the optimization.
//
// Duration models (see DESIGN.md "What-if trace simulation" for the error
// model and calibration results):
//
//   - scale_kernel_class: divide matching ops' durations by the given
//     speedup — "what if this kernel class ran k× faster".
//   - switch_dtype_traffic: ops below the operational-intensity threshold
//     are treated as bandwidth-bound and their durations scale with the
//     byte ratio (bf16/fp32 = 0.5); high-intensity ops keep their time.
//     Byte counts scale for both (traffic shrinks regardless of what an
//     op's time is bound by).
//   - fuse_groups: each group collapses into one node at its first
//     member's schedule slot. Compute-anchored members (MatMul / Conv2D*)
//     keep their full time — fusion folds epilogue work into their output
//     pass rather than eliminating it. The remaining members' combined
//     time scales as (1 - w) + w * surviving_bytes / member_bytes: the
//     w-weighted share is priced as bandwidth (eliminated intermediate
//     traffic is saved) and the rest as retained per-element compute. The
//     group's FLOPs are conserved and its bytes come from the fused op's
//     symbolic bytes_accessed — the hypothetical kernel is priced off the
//     same byte model the analytic pipeline uses. A remapped edge survives
//     only if it points backward in index and its source's recorded start
//     is no later than its target's; the others are scheduling
//     constraints of the profiled program, and keeping them could make the
//     recorded lane order contradict the edges on replay.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/ir/graph.h"
#include "src/whatif/trace.h"

namespace gf::whatif {

/// "Kernel class c runs speedup× faster" (speedup < 1 models a slowdown).
struct ScaleClass {
  /// ir::op_type_name spelling, a runtime implementation class recorded in
  /// TraceOp::kernel_class (e.g. "pointwise-simd"), or "*"
  /// for all ops. Implementation classes let the simulator price one
  /// kernel where an op-type match would also rescale ops of that type
  /// that another implementation served.
  std::string op_type;
  double speedup = 1.0;  ///< must be > 0
};

/// "Float traffic moves at `byte_ratio` of its fp32 volume" (bf16 = 0.5).
struct DtypeOptions {
  double byte_ratio = 0.5;
  /// FLOP/byte below which a kernel is priced as bandwidth-bound. The
  /// default separates the paper's Fig 9 populations: pointwise/reduction
  /// classes sit well under 1 FLOP/B, GEMM-backed classes well above.
  double intensity_threshold = 4.0;
};

/// One hypothetical fusion: trace ops `members` collapse into one node.
struct FuseGroup {
  std::string name;                 ///< fused node's display name
  std::vector<std::size_t> members; ///< trace op indices, ascending, >= 2
  double fused_flops = 0;           ///< symbolic FLOPs of the fused op
  double fused_bytes = 0;           ///< symbolic bytes of the fused op
};

struct FuseModelOptions {
  /// Bandwidth-bound weight of non-anchor member time (0 = fusing only
  /// removes launches, 1 = member time is pure traffic). See DESIGN.md.
  double memory_weight = 0.5;
};

Trace scale_kernel_class(const Trace& trace, const ScaleClass& scale);
Trace switch_dtype_traffic(const Trace& trace, const DtypeOptions& options = {});
Trace fuse_groups(const Trace& trace, const std::vector<FuseGroup>& groups,
                  const FuseModelOptions& options = {});

/// Plans the fusion groups `ir::fuse_graph` would form on the graph an
/// unfused executor of `graph` runs, as trace indices into `trace` — which
/// must be an unfused profile of `graph`. `graph` is the builder's graph:
/// like the executor, the planner matches the trace against a clone
/// rewritten by ir::stack_weight_gradients (op names are cross-checked;
/// throws std::invalid_argument otherwise) and fuses a clone of that;
/// `graph` itself is never modified. Group FLOPs/bytes are the fused ops'
/// symbolic formulas evaluated under `bind`.
std::vector<FuseGroup> plan_fusion_groups(const ir::Graph& graph,
                                          const sym::Bindings& bind,
                                          const Trace& trace);

}  // namespace gf::whatif
