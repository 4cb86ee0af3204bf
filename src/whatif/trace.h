// What-if trace schema: the loadable, versioned form of a profiled step.
//
// A Trace is the dependency graph the executor actually scheduled — one
// node per executed op with its measured duration, FLOP/byte counts, the
// worker lane that ran it, and the op_index values of the ops it waited
// on (data edges plus the memory plan's reuse edges when one was active).
// It is everything Daydream-style estimation (arXiv:2006.03318) needs:
// transform the graph (fuse a group, scale a kernel class, switch dtype
// traffic), re-simulate the schedule (src/whatif/resim.h), and read off
// the predicted step-time delta — without re-running the model.
//
// Traces come from two places:
//   - from_report(): directly from an in-memory rt::ProfileReport, and
//   - load_trace(): from the Chrome-trace JSON written by
//     ProfileReport::write_chrome_trace (gfctl trace). The format carries
//     a top-level "gfTraceVersion"; load_trace rejects missing or unknown
//     versions with a clear error so exporter drift breaks a test instead
//     of silently breaking `gfctl whatif`.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/runtime/profiler.h"

namespace gf::whatif {

/// One executed op of a profiled step.
struct TraceOp {
  std::string name;
  std::string type;  ///< op category (ir::op_type_name spelling)
  int worker = -1;   ///< recorded lane: -1 = caller thread, 0.. = pool worker
  double start_seconds = 0;
  double end_seconds = 0;
  double flops = 0;
  double bytes = 0;
  /// Scheduling predecessors (op_index values, ascending, each < own index).
  std::vector<std::size_t> deps;
  /// Implementation class that served the op (e.g. "pointwise-simd");
  /// empty when the runtime recorded none. Optional in
  /// the JSON form — traces written before the tag default to empty. Last
  /// field so pre-existing aggregate initializers keep their meaning.
  std::string kernel_class;

  double duration() const { return end_seconds - start_seconds; }
};

/// A profiled step as a replayable dependency graph. `ops` is indexed by
/// op_index — the executed graph's deterministic topological order.
struct Trace {
  int version = rt::kGfTraceVersion;
  double wall_seconds = 0;
  std::vector<TraceOp> ops;

  /// Distinct worker lanes recorded in the trace (at least 1).
  int num_workers() const;
  /// Measured schedule length: last op end minus first op start. Unlike
  /// wall_seconds it excludes the step prologue (input refills), so it is
  /// the quantity a re-simulation of the ops can reproduce.
  double span_seconds() const;
  /// Sum of op durations (busy time across all lanes).
  double busy_seconds() const;
  double total_flops() const;
  double total_bytes() const;
};

/// Builds a trace from an in-memory profile. The report must carry
/// dependency edges (any ProfileReport produced by Executor::run_step
/// does); throws std::invalid_argument on a structurally invalid timeline.
Trace from_report(const rt::ProfileReport& report);

/// Parses Chrome-trace JSON as written by ProfileReport::write_chrome_trace.
/// Throws std::runtime_error with a specific message on malformed JSON, a
/// missing or unknown "gfTraceVersion", a tid, op_index or dep that is not
/// an integer in range, or an invalid dependency graph.
Trace load_trace(std::istream& is);
Trace load_trace_file(const std::string& path);

/// Structural validation shared by both constructors: deps in range and
/// strictly forward, finite non-negative durations. Throws
/// std::invalid_argument naming the offending op.
void validate_trace(const Trace& trace);

}  // namespace gf::whatif
