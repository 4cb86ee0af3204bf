// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--benchmark BENCHMARK.json] [--commit <id>] [--spans <file>]
//
// Runs one workload as repeated sessions (see NOTES.md) and prints a
// human-readable report, then the output envelope as one JSON line, then
// the result line {"correct", "attempted", "failed", "metrics"} last. With
// --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
// --trace 1 its per_layer list from the traced sessions.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "envelope.h"
#include "src/runtime/executor.h"
#include "workload.h"

namespace {

using perfbench::Metric;
using gf::serve::Json;

std::string format_metric(const std::string& name, const Metric& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-34s %14.6g %-6s n=%-7zu", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  std::string line = buf;
  if (!m.quartiles.empty()) {
    std::snprintf(buf, sizeof buf, " q1..q3=%.6g..%.6g", m.quartiles[0], m.quartiles[2]);
    line += buf;
  }
  if (m.tail) {
    std::snprintf(buf, sizeof buf, " p%g=%.6g", m.tail->percentile, m.tail->value);
    line += buf;
  }
  return line;
}

void print_section(const std::string& title, const std::map<std::string, Metric>& metrics) {
  if (metrics.empty()) return;
  std::cout << title << "\n";
  for (const auto& [name, m] : metrics) std::cout << format_metric(name, m) << "\n";
}

int run(int argc, char** argv) {
  perfbench::RunRequest req;
  std::string benchmark_path = "BENCHMARK.json";
  std::string commit = "unknown";
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      req.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      req.seed = static_cast<unsigned>(std::stoul(value));
    } else if (arg == "--seconds") {
      req.seconds = std::stod(value);
    } else if (arg == "--trace") {
      req.trace = value == "1";
    } else if (arg == "--benchmark") {
      benchmark_path = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || !(req.seconds > 0))
    throw std::invalid_argument("need --workload <name> and --seconds > 0");

  const perfbench::Declared declared = perfbench::load_declared(benchmark_path);
  if (std::find(declared.workloads.begin(), declared.workloads.end(), req.workload) ==
      declared.workloads.end())
    throw std::invalid_argument("workload '" + req.workload + "' is not in " + benchmark_path);
  // The configuration under test comes from the environment defaults (the
  // GEMM's register tile follows GF_SIMD, not ExecutorOptions::simd).
  if (!gf::rt::fuse_env_default() || !gf::rt::simd_env_default() ||
      !gf::rt::memory_plan_env_default())
    throw std::runtime_error("set GF_FUSE=1 GF_SIMD=1 GF_MEMORY_PLAN=1 (run.sh does)");

  perfbench::Spans spans(req.trace);
  perfbench::Outcome out = perfbench::run_train(req, spans);
  const std::size_t sessions =
      static_cast<std::size_t>(out.config.number_or("sessions", 0));
  const Metric rss = perfbench::total_metric(perfbench::peak_rss_mb(), "MB", sessions);
  out.end_to_end["peak_rss_mb"] = rss;
  if (req.trace) out.traced_end_to_end["peak_rss_mb"] = rss;

  std::cout << "perfbench " << req.workload << " seed " << req.seed << ", " << req.seconds
            << " s, " << (req.trace ? "traced (session 0 warms up, then odd sessions traced)" : "untraced") << "\n";
  print_section("end-to-end (untraced sessions; n = samples):", out.end_to_end);
  if (req.trace) {
    print_section("per-layer (traced sessions):", out.per_layer);
    print_section("per-layer, this workload only:", out.per_layer_extra);
    print_section("unattributed remainder (median per step):",
                  out.unattributed);
    std::cout << "tracing overhead (traced - untraced sessions):\n";
    for (const auto& [name, m] : out.end_to_end) {
      const auto t = out.traced_end_to_end.find(name);
      if (t == out.traced_end_to_end.end()) continue;
      std::printf("  %-34s %+14.6g %-6s (%+.2f%%)\n", name.c_str(), t->second.value - m.value,
                  m.unit.c_str(), m.value != 0 ? 100.0 * (t->second.value / m.value - 1) : 0.0);
    }
  }
  for (const std::string& f : out.gate_failures) std::cout << "GATE FAILED: " << f << "\n";
  std::cout << "operations attempted " << out.attempted << ", failed " << out.failed << "\n";

  if (!spans_path.empty() && req.trace) spans.write_jsonl(spans_path);

  const std::map<std::string, Metric>& emitted = req.trace ? out.per_layer : out.end_to_end;
  const auto problems =
      perfbench::check_declared(req.trace ? declared.per_layer : declared.end_to_end, emitted);
  for (const std::string& p : problems) std::cerr << "perfbench: " << p << "\n";
  if (!problems.empty()) return 3;
  Json metrics = Json::object();
  for (const auto& [name, m] : emitted) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric '" << name << "' is not finite\n";
      return 3;
    }
    Json v = Json::object();
    v.set("value", Json(m.value));
    v.set("unit", Json(m.unit));
    metrics.set(name, v);
  }
  std::cout << perfbench::envelope(req, out, commit).dump() << "\n";
  Json result = Json::object();
  result.set("correct", Json(out.correct()));
  result.set("attempted", Json(static_cast<std::size_t>(out.attempted)));
  result.set("failed", Json(static_cast<std::size_t>(out.failed)));
  result.set("metrics", metrics);
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
