#include "envelope.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "src/hw/cpu_features.h"
#include "src/runtime/codegen/dispatch.h"

extern char** environ;

namespace perfbench {
namespace {

using gf::serve::Json;

std::vector<DeclaredMetric> metric_list(const Json& doc, const char* key) {
  const Json* list = doc.find(key);
  if (list == nullptr || !list->is_array())
    throw std::runtime_error(std::string("BENCHMARK.json has no '") + key + "' list");
  std::vector<DeclaredMetric> out;
  for (const Json& m : list->items())
    out.push_back({m.string_or("name", ""), m.string_or("unit", "")});
  return out;
}

/// CPU brand string from CPUID (no file outside the checkout is read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

Json metric_json(const Metric& m) {
  Json j = Json::object();
  j.set("value", Json(m.value));
  j.set("unit", Json(m.unit));
  j.set("samples", Json(m.samples));
  if (m.tail) {
    j.set("tail_percentile", Json(m.tail->percentile));
    j.set("tail_value", Json(m.tail->value));
  }
  if (!m.quartiles.empty()) {
    j.set("q1", Json(m.quartiles[0]));
    j.set("q3", Json(m.quartiles[2]));
  }
  return j;
}

}  // namespace

Declared load_declared(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << is.rdbuf();
  const Json doc = Json::parse(text.str());
  Declared d;
  if (const Json* w = doc.find("workloads"); w != nullptr && w->is_array())
    for (const Json& item : w->items()) d.workloads.push_back(item.string_or("name", ""));
  d.end_to_end = metric_list(doc, "end_to_end");
  d.per_layer = metric_list(doc, "per_layer");
  return d;
}

std::vector<std::string> check_declared(const std::vector<DeclaredMetric>& declared,
                                        const std::map<std::string, Metric>& metrics) {
  std::vector<std::string> problems;
  std::map<std::string, std::string> units;
  for (const DeclaredMetric& m : declared) units[m.name] = m.unit;
  for (const auto& [name, unit] : units) {
    const auto it = metrics.find(name);
    if (it == metrics.end())
      problems.push_back("declared metric '" + name + "' was not measured");
    else if (it->second.unit != unit)
      problems.push_back("metric '" + name + "' measured in " + it->second.unit +
                         ", declared in " + unit);
  }
  for (const auto& [name, metric] : metrics)
    if (!units.contains(name))
      problems.push_back("metric '" + name + "' is not declared in BENCHMARK.json");
  return problems;
}

Json envelope(const RunRequest& req, const Outcome& out, const std::string& commit) {
  Json host = Json::object();
  host.set("nproc", Json(static_cast<std::size_t>(std::thread::hardware_concurrency())));
  host.set("cpu_model", Json(cpu_model()));
  host.set("best_isa", Json(gf::hw::simd_isa_name(gf::hw::best_simd_isa())));
  host.set("active_isa", Json(gf::hw::simd_isa_name(gf::rt::codegen::active_isa())));

  // The settings under test: GF_* executor defaults and any malloc knobs.
  std::map<std::string, std::string> settings;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("GF_", 0) != 0 && entry.rfind("MALLOC_", 0) != 0) continue;
    const auto eq = entry.find('=');
    settings[entry.substr(0, eq)] = eq == std::string::npos ? "" : entry.substr(eq + 1);
  }
  Json environment = Json::object();
  for (const auto& [name, value] : settings) environment.set(name, Json(value));
  Json build = Json::object();
  build.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  build.set("commit", Json(commit));
  build.set("environment", environment);

  Json run = Json::object();
  run.set("workload", Json(req.workload));
  run.set("seed", Json(static_cast<std::size_t>(req.seed)));
  run.set("seconds", Json(req.seconds));
  run.set("trace", Json(req.trace));
  run.set("max_runnable_threads", Json(out.threads));
  run.set("config", out.config);

  const auto section = [](const std::map<std::string, Metric>& metrics) {
    Json j = Json::object();
    for (const auto& [name, m] : metrics) j.set(name, metric_json(m));
    return j;
  };
  Json results = Json::object();
  results.set("end_to_end", section(out.end_to_end));
  if (req.trace) {
    results.set("traced_end_to_end", section(out.traced_end_to_end));
    results.set("per_layer", section(out.per_layer));
    results.set("per_layer_extra", section(out.per_layer_extra));
    results.set("unattributed", section(out.unattributed));
  }

  Json gates = Json::object();
  gates.set("correct", Json(out.correct()));
  Json failures = Json::array();
  for (const std::string& f : out.gate_failures) failures.push_back(Json(f));
  gates.set("failures", failures);
  gates.set("attempted", Json(static_cast<std::size_t>(out.attempted)));
  gates.set("failed", Json(static_cast<std::size_t>(out.failed)));

  Json env = Json::object();
  env.set("envelope", Json("perfbench/1"));
  env.set("host", host);
  env.set("build", build);
  env.set("run", run);
  env.set("results", results);
  env.set("gates", gates);
  return env;
}

}  // namespace perfbench
