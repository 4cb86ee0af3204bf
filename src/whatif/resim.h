// Pure schedule re-simulation over a trace: the repo's one
// dependency-graph simulator.
//
// Replays a dependency graph under the wavefront executor's
// dependency-counted semantics, without dispatching a single kernel. The
// graph is either a profiled step (from_report, load_trace) or a §6
// cluster schedule whose lanes are devices and links (src/whatif/
// cluster.h). Two placement policies:
//
//   - kRecorded: every op keeps its recorded lane and the recorded
//     intra-lane order (by start, ties by op index); an op starts when its
//     lane is free AND all its dependencies finished. This is Daydream's
//     replay rule: it preserves the measured schedule's shape, so
//     transformed durations shift the timeline exactly as the real
//     scheduler would have, and shrinking any duration can never lengthen
//     the simulated step. A cluster schedule records every op at t = 0,
//     so each of its lanes runs in creation order.
//   - kGreedy: list scheduling onto W identical lanes (ready ops dispatch
//     in topological order to the lowest-numbered free lane) — the policy
//     for what-ifs that change the worker count itself.
//
// Real steps also pay a per-op scheduling cost the kernel spans do not
// contain (dispatch, output materialization, retirement) — at toy sizes it
// is the dominant fusion win. calibrate_overhead() recovers it from the
// trace itself: the smallest per-op surcharge that makes the identity
// re-simulation reproduce the measured span. Predictions then charge the
// same surcharge to every surviving op, so "fewer kernel launches" is
// priced with a measured, not assumed, constant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/whatif/trace.h"

namespace gf::whatif {

enum class Placement : std::uint8_t {
  kRecorded,  ///< keep recorded lanes + intra-lane order (replay)
  kGreedy,    ///< list-schedule onto `workers` identical lanes
};

struct ResimOptions {
  Placement placement = Placement::kRecorded;
  /// Lane count for kGreedy; 0 means the trace's recorded lane count.
  /// Ignored by kRecorded.
  int workers = 0;
  /// Per-op scheduling surcharge in seconds, added to every op's duration
  /// (see calibrate_overhead).
  double overhead_seconds_per_op = 0;
};

struct SimulatedOp {
  double start_seconds = 0;
  double end_seconds = 0;
  int worker = -1;
};

struct ResimResult {
  /// Simulated schedule length (first start is always 0).
  double makespan_seconds = 0;
  /// Sum of simulated op durations (kernel time + per-op surcharge).
  double busy_seconds = 0;
  /// Longest dependency chain — the step-time floor no worker count beats.
  double critical_path_seconds = 0;
  /// Op indices of one longest chain, source to sink.
  std::vector<std::size_t> critical_path;
  std::vector<SimulatedOp> ops;  ///< indexed like trace.ops
};

/// Re-simulates `trace` under `options`. Pure and deterministic: equal
/// inputs produce bitwise-equal results, and nothing is executed. Throws
/// std::invalid_argument on a structurally invalid trace, or under
/// kRecorded on a lane order that contradicts the dependency edges.
ResimResult resimulate(const Trace& trace, const ResimOptions& options = {});

/// The per-op scheduling surcharge (seconds) that makes the identity
/// re-simulation of `trace` under `placement` reproduce the measured span:
/// solves makespan(overhead) = span_seconds() by bisection (makespan is
/// monotone in the surcharge). Returns 0 for empty traces or when the
/// uncharged simulation already meets or exceeds the span.
double calibrate_overhead(const Trace& trace,
                          Placement placement = Placement::kRecorded);

}  // namespace gf::whatif
