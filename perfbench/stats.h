// The benchmark's own arithmetic: medians, quartiles, the reported tail
// percentile, span self time, and the two timeline folds (step gap and
// exposed communication). Kept apart from the workloads so stats_test.cpp
// checks exactly the code the benchmark runs.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/runtime/datapar.h"
#include "src/runtime/profiler.h"

namespace perfbench {

/// Median (mean of the middle two for an even count). Throws
/// std::invalid_argument on an empty sample.
double median(std::vector<double> values);

/// Python's statistics.quantiles(values, n=4) with its default
/// "exclusive" method: the three cut points q1, median, q3. Needs at least
/// two values (throws std::invalid_argument otherwise).
std::vector<double> quartiles(std::vector<double> values);

/// A percentile reported beside a median.
struct Tail {
  double percentile = 0;  ///< e.g. 90 or 99.9
  double value = 0;
};

/// The highest of p50, p90, p99, p99.9, ... that still has at least ten
/// samples ranked beyond it (nearest-rank definition), or nullopt when even
/// p50 has fewer than ten (under 20 samples).
std::optional<Tail> highest_supported_percentile(std::vector<double> values);

struct Interval {
  double start = 0;
  double end = 0;
};

/// Total length covered by the intervals; overlaps count once and empty or
/// inverted intervals count zero.
double union_length(std::vector<Interval> intervals);

/// A span's self time: its duration minus the part of it its children
/// cover. Children are clipped to the span, and overlapping children (ops
/// running on several workers at once) count once.
double self_time(Interval span, std::vector<Interval> children);

/// Step wall time during which no op of the timeline was running: the
/// dispatch work (and waiting) a faster executor could remove. Events with a
/// category ("comm") are not ops and are ignored.
double step_gap_seconds(const gf::rt::ProfileReport& report);

/// Data-parallel step wall time not covered by the slowest worker's compute
/// plus injected delay: the communication (and synchronisation) the step
/// could not hide. Clamped at zero.
double exposed_comm_seconds(const gf::rt::DataParallelStepResult& result);

}  // namespace perfbench
