#include "workload.h"

#include <sys/resource.h>

namespace perfbench {

Metric median_metric(const std::vector<double>& samples, const std::string& unit) {
  Metric m{median(samples), unit, samples.size(), highest_supported_percentile(samples), {}};
  if (samples.size() >= 2) m.quartiles = quartiles(samples);
  return m;
}

Metric total_metric(double value, const std::string& unit, std::size_t samples) {
  return {value, unit, samples, std::nullopt};
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
