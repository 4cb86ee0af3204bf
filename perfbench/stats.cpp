#include "stats.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<double> quartiles(std::vector<double> values) {
  const std::int64_t ld = static_cast<std::int64_t>(values.size());
  if (ld < 2) throw std::invalid_argument("quartiles need at least two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method="exclusive", n=4, in its exact integer form.
  constexpr std::int64_t n = 4;
  const std::int64_t m = ld + 1;
  std::vector<double> out;
  for (std::int64_t i = 1; i < n; ++i) {
    std::int64_t j = i * m / n;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * n;
    out.push_back((values[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
                   values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

std::optional<Tail> highest_supported_percentile(std::vector<double> values) {
  // p = 1 - 1/den: 50, 90, 99, 99.9, ... in exact integer rank arithmetic.
  std::sort(values.begin(), values.end());
  const std::uint64_t n = values.size();
  std::optional<Tail> best;
  for (std::uint64_t den = 2; den <= 1'000'000; den = den == 2 ? 10 : den * 10) {
    const std::uint64_t num = den - 1;
    const std::uint64_t rank = (n * num + den - 1) / den;  // ceil(n * p)
    if (rank == 0 || n - rank < 10) break;
    best = Tail{100.0 * static_cast<double>(num) / static_cast<double>(den),
                values[static_cast<std::size_t>(rank - 1)]};
  }
  return best;
}

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0;
  bool open = false;
  Interval run;
  for (const Interval& iv : intervals) {
    if (!(iv.end > iv.start)) continue;
    if (open && iv.start <= run.end) {
      run.end = std::max(run.end, iv.end);
      continue;
    }
    if (open) total += run.end - run.start;
    run = iv;
    open = true;
  }
  if (open) total += run.end - run.start;
  return total;
}

double self_time(Interval span, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, span.start);
    c.end = std::min(c.end, span.end);
  }
  return std::max(0.0, span.end - span.start) - union_length(std::move(children));
}

double step_gap_seconds(const gf::rt::ProfileReport& report) {
  std::vector<Interval> ops;
  ops.reserve(report.timeline.size());
  for (const gf::rt::TimelineEvent& ev : report.timeline)
    if (ev.category.empty()) ops.push_back({ev.start_seconds, ev.end_seconds});
  return self_time({0.0, report.wall_seconds}, std::move(ops));
}

double exposed_comm_seconds(const gf::rt::DataParallelStepResult& result) {
  double slowest = 0;
  for (const gf::rt::WorkerStepStats& w : result.workers)
    slowest = std::max(slowest, w.compute_seconds + w.delay_seconds);
  return std::max(0.0, result.wall_seconds - slowest);
}

}  // namespace perfbench
