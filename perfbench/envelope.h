// The run's output envelope, written through serve::Json: host, build,
// GF_* settings, threads, seed, workload config and every metric with its
// sample count. Also reads BENCHMARK.json, whose declared metrics a run
// must emit exactly.
#pragma once

#include <string>
#include <vector>

#include "src/serve/json.h"
#include "workload.h"

namespace perfbench {

struct DeclaredMetric {
  std::string name;
  std::string unit;
};

struct Declared {
  std::vector<std::string> workloads;
  std::vector<DeclaredMetric> end_to_end;
  std::vector<DeclaredMetric> per_layer;
};

/// Parses BENCHMARK.json; throws std::runtime_error when it is missing or
/// malformed.
Declared load_declared(const std::string& path);

/// Empty when `metrics` holds exactly the declared names with their units;
/// otherwise one message per missing, undeclared or mis-unitized metric.
std::vector<std::string> check_declared(const std::vector<DeclaredMetric>& declared,
                                        const std::map<std::string, Metric>& metrics);

gf::serve::Json envelope(const RunRequest& req, const Outcome& out,
                         const std::string& commit);

}  // namespace perfbench
