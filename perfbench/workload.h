// Shared types of the workloads: the run request, the measured
// outcome, and the session-sampled metric summaries.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "spans.h"
#include "src/serve/json.h"
#include "stats.h"

namespace perfbench {

/// Threads the benchmark lets run at once: the stepping thread plus pool
/// workers. The host this was tuned on has 4.
inline constexpr int kMaxRunnable = 4;

struct RunRequest {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One reported number with the samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  std::optional<Tail> tail;  ///< beside medians only
  /// q1, median, q3 of the samples (medians of two or more samples only).
  std::vector<double> quartiles;
};

/// Median of session-pooled samples, with its tail percentile.
Metric median_metric(const std::vector<double>& samples, const std::string& unit);
/// A rate or ratio computed from `samples` underlying measurements.
Metric total_metric(double value, const std::string& unit, std::size_t samples);

/// The sample set a session feeds: 0 untraced, 1 traced, 2 none. In the
/// traced run the first session only warms the process (its cold start
/// would bias the tracing-overhead comparison); later sessions alternate,
/// untraced ones giving the figures the overhead is measured against.
inline int session_bucket(const RunRequest& req, int session) {
  if (!req.trace) return 0;
  return session == 0 ? 2 : session % 2;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  /// End-to-end metrics from untraced sessions.
  std::map<std::string, Metric> end_to_end;
  /// The same metrics from traced sessions (traced run only).
  std::map<std::string, Metric> traced_end_to_end;
  /// Per-layer metrics from traced sessions (traced run only).
  std::map<std::string, Metric> per_layer;
  /// Workload-specific per-layer metrics printed but not in BENCHMARK.json
  /// (they do not exist on every workload).
  std::map<std::string, Metric> per_layer_extra;
  /// Unattributed remainders (step self time).
  std::map<std::string, Metric> unattributed;
  gf::serve::Json config = gf::serve::Json::object();
  int threads = 0;

  /// Records a correctness gate; a failed gate makes the run incorrect.
  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  bool correct() const { return gate_failures.empty(); }
};

double seconds_since(Clock::time_point t);
/// Process peak resident set size in MiB.
double peak_rss_mb();

Outcome run_train(const RunRequest& req, Spans& spans);

}  // namespace perfbench
