// Static memory planner: liveness-based buffer reuse for the executor.
//
// The paper's §4.5 minimal-footprint analysis (Fig 10) treats memory as a
// liveness problem over the topological schedule. This module turns that
// estimate into an enforced quantity: it computes a per-tensor live
// interval from the scheduler DAG, then assigns every non-persistent
// tensor a fixed byte offset inside one 64-byte-aligned slab using greedy
// best-fit interval allocation, so a whole training step runs with zero
// per-op heap allocations and the slab high-water mark IS the plan.
//
// Three properties the plan guarantees (and verify's "memplan" pass
// re-checks independently):
//
//  1. Interval safety — two tensors share slab addresses only if their
//     live intervals (producer index .. last-consumer index in the
//     deterministic topological order) are disjoint.
//  2. Alias safety — an op output may alias its first input's storage
//     only for strictly elementwise ops (pointwise, bias_add) where that
//     op is provably the input's sole reader: the same sole-reader fact
//     the race checker uses, so the in-place write can never race.
//  3. Schedule safety — index-disjoint intervals are not enough under the
//     wavefront scheduler (unordered ops run concurrently), so the plan
//     also emits reuse edges: forward DAG edges from every accessor of a
//     slab region's previous occupant to the op that first writes the
//     next occupant. The executor adds them to its dependency DAG, which
//     serializes exactly the reusing pairs and nothing else.
//
// The planner is pure graph analysis (ir + symbolic only); it is compiled
// into gf_ir so the verify pass framework can call it without a layering
// cycle, while the executor consumes the resulting offsets at runtime.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ir/graph.h"
#include "src/runtime/arena.h"
#include "src/symbolic/expr.h"

namespace gf::rt {

/// One planned (non-persistent) tensor: where it lives in the slab and
/// when. Offsets of alias members equal their root's offset.
struct PlannedTensor {
  const ir::Tensor* tensor = nullptr;
  std::size_t offset = 0;         ///< byte offset into the slab
  std::size_t bytes = 0;          ///< runtime storage bytes (fp32/int32 elems)
  std::size_t aligned_bytes = 0;  ///< bytes rounded up to the slab alignment
  /// Live interval in topological-order op indices: [def, last_use].
  /// Producerless tensors (inputs, gradient seeds) have def 0 — they are
  /// filled before the step's first op dispatches.
  std::size_t def = 0;
  std::size_t last_use = 0;
  /// Non-null when this tensor reuses another tensor's storage in place
  /// (elementwise sole-reader aliasing); points at the chain's root.
  const ir::Tensor* alias_root = nullptr;
  /// How many earlier regions occupied (part of) this tensor's slab range
  /// this step: 0 = first occupant, 1 = first reuse, ... Surfaced per op
  /// in the Chrome trace so reuse decisions are visible in gfctl trace.
  std::size_t generation = 0;
};

struct MemoryPlan {
  /// Total slab size; the executor allocates exactly this once.
  std::size_t slab_bytes = 0;
  /// Sum of aligned sizes over all planned tensors — the slab a plan with
  /// no reuse and no aliasing would need. reuse_fraction() compares the
  /// slab against this.
  std::size_t gross_bytes = 0;
  /// Max over topological steps of the aligned bytes live at that step —
  /// the lower bound any packing can reach; slab_bytes exceeds it only by
  /// best-fit fragmentation.
  std::size_t liveness_peak_bytes = 0;
  /// Always-live bytes (weights, weight gradients, optimizer slots),
  /// accounted the same way the executor's arena does, so that
  /// persistent_bytes + slab_bytes is the planned arena peak.
  std::size_t persistent_bytes = 0;
  std::size_t alias_count = 0;

  /// Planned tensors ordered by tensor id (deterministic).
  std::vector<PlannedTensor> tensors;

  /// Extra forward edges (from-op-index, to-op-index) a wavefront
  /// scheduler must add to the op DAG before running under this plan:
  /// `to` first writes a slab range whose previous occupant `from` still
  /// accesses. Deduplicated and sorted.
  std::vector<std::pair<std::size_t, std::size_t>> reuse_edges;

  /// Planned entry for `t`, or nullptr if `t` is not planned (persistent,
  /// excluded, or foreign).
  const PlannedTensor* find(const ir::Tensor* t) const {
    auto it = index_.find(t);
    return it == index_.end() ? nullptr : &tensors[it->second];
  }

  /// Fraction of gross allocation bytes saved by reuse + aliasing.
  double reuse_fraction() const {
    return gross_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(slab_bytes) / static_cast<double>(gross_bytes);
  }

  /// Planned arena peak: persistent state plus the slab.
  std::size_t planned_peak_bytes() const { return persistent_bytes + slab_bytes; }

  void rebuild_index();  ///< called by the planner; public for plan surgery in tests

 private:
  std::unordered_map<const ir::Tensor*, std::size_t> index_;
};

struct MemPlanOptions {
  std::size_t alignment = kTensorAlignment;
  /// In-place aliasing of elementwise sole-reader ops. Off turns the plan
  /// into pure interval reuse (useful to isolate either effect).
  bool enable_aliasing = true;
  /// Tensors to leave out of the slab entirely (the executor passes its
  /// user-pinned inputs, whose storage the user owns).
  std::unordered_set<const ir::Tensor*> exclude;
  /// Tensors whose value must survive to the end of the step (retained
  /// activations): their intervals extend to the last op and they are
  /// never used as alias roots.
  std::unordered_set<const ir::Tensor*> retained;
};

/// Computes the plan for one training step of `graph` under `bindings`.
/// `dag` must be the graph's scheduler DAG (ir::build_op_dag) — intervals
/// and reuse edges are expressed in its topological order. Throws if any
/// tensor dimension is unbound.
MemoryPlan plan_memory(const ir::Graph& graph, const ir::OpDag& dag,
                       const sym::Bindings& bindings, const MemPlanOptions& options = {});

}  // namespace gf::rt
