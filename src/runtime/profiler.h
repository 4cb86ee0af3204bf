// TFprof-style per-op-type execution profile, plus a per-op timeline the
// wavefront scheduler fills in (one event per executed op, with the worker
// that ran it) and a Chrome-trace exporter for chrome://tracing / Perfetto.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/ir/op.h"

namespace gf::rt {

/// Version stamp of the Chrome-trace JSON written by
/// ProfileReport::write_chrome_trace (top-level "gfTraceVersion" key).
/// whatif::load_trace refuses traces whose version it does not know, so
/// format drift breaks loudly instead of silently mis-simulating.
inline constexpr int kGfTraceVersion = 1;

struct OpTypeProfile {
  std::size_t count = 0;
  double flops = 0;
  double bytes = 0;
  double seconds = 0;
};

/// One executed op on the step timeline. Timestamps are seconds relative to
/// the start of the step. `worker` is the pool worker index that ran the
/// op, or -1 for the dispatching (caller) thread — the sequential schedule
/// runs everything at -1.
struct TimelineEvent {
  std::string name;
  ir::OpType type = ir::OpType::kMatMul;
  std::size_t op_index = 0;  ///< position in the graph's topological order
  int worker = -1;
  double start_seconds = 0;
  double end_seconds = 0;
  double flops = 0;
  double bytes = 0;
  /// Implementation class that served the op ("pointwise-simd" for a
  /// compiled fused program); empty for ops with a single implementation.
  /// Exported as an optional trace arg; what-if scaling
  /// (whatif::scale_kernel_class) can target it instead of an op type.
  std::string kernel_class;
  /// Chrome-trace category override for events that are not graph ops —
  /// the data-parallel runner's ring-allreduce phases use "comm". Empty
  /// (the default) keeps ir::op_type_name(type), so op events and existing
  /// traces are unchanged.
  std::string category;
  /// Slab placement of this op's first planned output when the memory
  /// planner is active (-1 otherwise): byte offset into the slab and how
  /// many earlier regions occupied that range this step. Makes reuse
  /// decisions visible in `gfctl trace`.
  std::int64_t slab_offset = -1;
  std::int64_t reuse_generation = -1;
  /// Scheduling predecessors: op_index values of the ops this one waited
  /// on (the executor's DAG edges, including the memory plan's reuse edges
  /// when a plan is active). Sorted ascending; every entry < op_index.
  /// Exported into the trace args so a profile is replayable — the what-if
  /// simulator reconstructs the dependency graph without re-running the
  /// model.
  std::vector<std::size_t> deps;

  /// Achieved compute rate of this op, the metric the paper's Fig. 9 frames
  /// utilization in. Zero-duration or zero-flop events report 0.
  double achieved_gflops() const {
    const double dur = end_seconds - start_seconds;
    return (dur > 0 && flops > 0) ? flops / dur / 1e9 : 0.0;
  }
};

struct ProfileReport {
  std::map<ir::OpType, OpTypeProfile> per_type;
  double total_flops = 0;
  double total_bytes = 0;
  /// Sum of per-op kernel durations (busy time across all workers).
  double total_seconds = 0;
  /// Wall-clock duration of the step; equals total_seconds for the
  /// sequential schedule, less under inter-op parallelism.
  double wall_seconds = 0;
  std::size_t peak_allocated_bytes = 0;
  /// Per-op events in topological order (deterministic across schedules;
  /// only timestamps and worker ids vary between runs).
  std::vector<TimelineEvent> timeline;

  void add(ir::OpType type, double flops, double bytes, double seconds);
  /// Pretty table sorted by FLOPs, one row per op type.
  void print(std::ostream& os) const;
  /// Emits the timeline as Chrome trace-event JSON ("X" duration events,
  /// one row per worker) for chrome://tracing or https://ui.perfetto.dev.
  void write_chrome_trace(std::ostream& os) const;
};

}  // namespace gf::rt
