#include "probes.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/analysis/stages.h"
#include "src/ir/fusion.h"
#include "src/ir/hash.h"
#include "src/ir/serialize.h"
#include "src/runtime/memplan.h"
#include "src/serve/json.h"
#include "src/verify/pass.h"
#include "src/whatif/resim.h"
#include "src/whatif/trace.h"

namespace perfbench {
namespace {

using gf::ir::OpType;

/// Op types whose busy time every workload's steps have, so they are
/// declared per-layer metrics; other types are printed as extras.
const std::set<OpType>& declared_op_types() {
  static const std::set<OpType> types{
      OpType::kMatMul,      OpType::kPointwise,      OpType::kFusedPointwise,
      OpType::kReduce,      OpType::kSoftmaxXent,    OpType::kSoftmaxXentGrad,
      OpType::kEmbeddingLookup, OpType::kEmbeddingGrad, OpType::kReshape};
  return types;
}

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0) * 1e3;
}

/// Each registered verify pass on its own (lint runs all of them).
void probe_verify(const gf::ir::Graph& graph, LayerSamples& layers) {
  for (const auto& pass : gf::verify::PassRegistry::instance().passes()) {
    const std::string name = pass->name();
    gf::verify::VerifyOptions options;
    options.passes = {name};
    layers.add("verify.pass." + name + "_ms",
               time_ms([&] { gf::verify::verify_graph(graph, options); }));
  }
}

}  // namespace

void LayerSamples::max(const std::string& name, double value) {
  auto [it, inserted] = open_.emplace(name, value);
  if (!inserted) it->second = std::max(it->second, value);
}

void LayerSamples::close_session() {
  for (const auto& [name, value] : open_) samples_[name].push_back(value);
  open_.clear();
}

void LayerSamples::summarize(std::map<std::string, Metric>& declared,
                             std::map<std::string, Metric>& extra) const {
  static const std::string kExtra = "extra.";
  for (const auto& [name, values] : samples_) {
    if (values.empty()) continue;
    if (name.starts_with(kExtra)) {
      const std::string bare = name.substr(kExtra.size());
      extra[bare] = median_metric(values, unit_for(bare));
    } else {
      declared[name] = median_metric(values, unit_for(name));
    }
  }
}

std::string unit_for(const std::string& name) {
  const auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us")) return "us";
  if (ends("_mb")) return "MB";
  if (ends("gflops")) return "GF/s";
  if (ends("gbps")) return "GB/s";
  if (ends("share") || ends("concurrency") || ends("rate")) return "ratio";
  return "count";
}

void probe_graph(const gf::ir::Graph& graph, LayerSamples& layers) {
  probe_verify(graph, layers);
  layers.add("ir.fuse_graph_ms", time_ms([&] {
    auto clone = gf::ir::clone_graph(graph);
    gf::ir::fuse_graph(*clone);
  }));
  layers.add("analysis.count_stage_ms",
             time_ms([&] { gf::analysis::stages::count_stage(graph); }));
  const std::string text = gf::ir::serialize(graph);
  layers.add("ir.deserialize_ms",
             time_ms([&] { gf::ir::deserialize(text, /*validate=*/false); }));
  layers.add("ir.canonical_hash_ms",
             time_ms([&] { gf::ir::canonical_hash(graph); }));
}

void probe_plan(const gf::ir::Graph& graph, const gf::sym::Bindings& bindings,
                LayerSamples& layers) {
  gf::rt::MemoryPlan plan;
  layers.add("runtime.plan_memory_ms", time_ms([&] {
    const gf::ir::OpDag dag = gf::ir::build_op_dag(graph);
    plan = gf::rt::plan_memory(graph, dag, bindings);
  }));
  layers.add("runtime.plan_reuse_edges", static_cast<double>(plan.reuse_edges.size()));
  layers.max("extra.runtime.planned_peak_mb",
             static_cast<double>(plan.planned_peak_bytes()) / (1024.0 * 1024.0));
}

void probe_trace(const std::string& trace_text, LayerSamples& layers) {
  gf::whatif::Trace trace;
  layers.add("whatif.load_trace_ms", time_ms([&] {
    std::istringstream is(trace_text);
    trace = gf::whatif::load_trace(is);
  }));
  double overhead = 0;
  layers.add("whatif.calibrate_ms",
             time_ms([&] { overhead = gf::whatif::calibrate_overhead(trace); }));
  gf::whatif::ResimOptions options;
  options.overhead_seconds_per_op = overhead;
  layers.add("whatif.resimulate_ms",
             time_ms([&] { gf::whatif::resimulate(trace, options); }));
}

void probe_json(const std::string& text, LayerSamples& layers) {
  gf::serve::Json doc;
  layers.add("serve.json_parse_us",
             1e3 * time_ms([&] { doc = gf::serve::Json::parse(text); }));
  layers.add("serve.json_dump_us", 1e3 * time_ms([&] { doc.dump(); }));
}

void fold_step_layers(const gf::rt::ProfileReport& report, LayerSamples& layers) {
  std::size_t ops = 0;
  std::size_t fused = 0;
  std::size_t simd = 0;
  for (const gf::rt::TimelineEvent& ev : report.timeline) {
    if (!ev.category.empty()) continue;
    ++ops;
    if (ev.type == OpType::kFusedPointwise) {
      ++fused;
      if (ev.kernel_class == "pointwise-simd") ++simd;
    }
  }
  layers.sample("runtime.ops_per_step", static_cast<double>(ops));
  layers.sample("runtime.fused_ops_per_step", static_cast<double>(fused));
  layers.sample("runtime.pointwise_simd_share",
                fused > 0 ? static_cast<double>(simd) / static_cast<double>(fused) : 0.0);
  layers.sample("runtime.step_gap_ms", step_gap_seconds(report) * 1e3);
  layers.sample("runtime.op_concurrency",
                report.wall_seconds > 0 ? report.total_seconds / report.wall_seconds : 0.0);
  layers.sample("runtime.arena_peak_mb",
                static_cast<double>(report.peak_allocated_bytes) / (1024.0 * 1024.0));
  for (const auto& [type, profile] : report.per_type) {
    const std::string name = std::string("runtime.op.") + gf::ir::op_type_name(type) + "_ms";
    layers.sample(declared_op_types().contains(type) ? name : "extra." + name,
                  profile.seconds * 1e3);
  }
  if (const auto mm = report.per_type.find(OpType::kMatMul);
      mm != report.per_type.end() && mm->second.seconds > 0)
    layers.sample("runtime.matmul_gflops", mm->second.flops / mm->second.seconds / 1e9);
}

std::string chrome_trace_text(const gf::rt::ProfileReport& report) {
  std::ostringstream os;
  report.write_chrome_trace(os);
  return os.str();
}

}  // namespace perfbench
