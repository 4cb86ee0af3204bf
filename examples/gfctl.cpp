// gfctl — command-line front end over the full analysis pipeline, in the
// spirit of the Catamount artifact's test scripts: every paper analysis
// reachable from a shell.
//
//   gfctl characterize <domain> [--params P] [--batch B]
//   gfctl project      <domain>
//   gfctl fit          <domain>
//   gfctl subbatch     <domain> [--params P]
//   gfctl sweep        <domain> [--from P] [--to P] [--points N] [--batch B]
//   gfctl export       <domain> <file> [--fuse]
//   gfctl trace        <domain> <file> [--hidden H] [--batch B] [--threads N]
//                      [--steps S] [--schedule wavefront|sequential] [--fuse]
//   gfctl lint         <domain>|all [--json] [--passes a,b,...] [--fuse]
//   gfctl lint         --file <graph.txt> [--json] [--passes a,b,...]
//   gfctl memplan      <domain>|all [--hidden H] [--batch B] [--fuse]
//   gfctl memplan      --file <graph.txt> [--hidden H] [--batch B]
//   gfctl fuse         <domain>|all [--hidden H] [--batch B]
//   gfctl whatif       <trace.json> [--scale TYPE --speedup K] [--bf16]
//                      [--fuse --model <domain> [--hidden H] [--batch B]
//                       [--memory-weight W]] [--workers N]
//                      [--overhead SECONDS] [--json]
//   gfctl datapar      [<domain>] [--hidden H] [--batch B] [--shards S]
//                      [--bucket-kb K] [--steps N] [--threads T]
//                      [--straggler SIGMA] [--trace PREFIX]
//   gfctl serve        [--threads N] [--max-in-flight M] [--file graph.txt]
//   gfctl domains
//   gfctl cpu
//
// <domain> is one of: wordlm charlm nmt speech image transformer
//
// cpu prints the probed SIMD capabilities of the executing machine, the
// compiled ISA the runtime runs, and the GEMM register micro-tile each ISA
// gets from hw::register_tile_rule.
//
// whatif re-simulates a profiled trace (written by `gfctl trace`) under a
// hypothetical optimization — Daydream-style: transform the measured
// dependency graph and replay the schedule, instead of implementing the
// optimization. With no transform flags it reports the identity
// re-simulation (the calibration check). Transforms compose in the order
// scale, bf16, fuse; --workers re-places the result onto N greedy lanes.
//
// serve turns the pipeline into a long-running multi-tenant service:
// line-delimited JSON requests (characterize / sweep / lint / memplan /
// whatif-scale / stats) on stdin, one response line each on stdout in
// request order, dispatched concurrently onto a thread pool with a
// content-addressed stage cache (src/serve/; schema in README "Serving").
//
// File inputs share one failure contract: an unreadable or unparseable
// --file / trace path prints "gfctl: <path>: <reason>" and exits 2 —
// identically across lint, memplan, whatif, and serve.
//
// --fuse runs the graph-level fusion rewrite (src/ir/fusion.h) on the
// built graph first: export writes the fused graph (so `lint --file`
// exercises fused serialization), trace executes it, lint verifies it,
// memplan plans it. `gfctl fuse` reports what the rewrite found and what
// it buys analytically; it exits 1 if a fused graph fails verification.
//
// lint exit codes: 0 = clean (notes allowed), 1 = warning-severity
// findings only, 2 = error-severity findings or an unreadable /
// unreconstructable input file. CI and the seeded-defect corpus tests
// key off these: a defective graph must exit 2 no matter how it is
// broken.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/gradient_frontier.h"
#include "src/hw/cpu_features.h"
#include "src/ir/serialize.h"
#include "src/runtime/datapar.h"

namespace {

using namespace gf;

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  double number(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }

  /// A count flag: a whole decimal number of at least `min`. Anything else
  /// throws, so main() exits 1 naming the flag before any model or pool is
  /// built.
  int count(const std::string& key, int fallback, int min) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    int value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size() || value < min)
      throw std::invalid_argument("--" + key + " must be a whole number >= " +
                                  std::to_string(min) + ", got '" + text + "'");
    return value;
  }
};

/// An unreadable or unparseable input file. Every subcommand that takes a
/// --file / trace path throws this, and main() turns it into the one
/// consistent contract: "gfctl: <path>: <reason>" on stderr, exit 2.
struct FileError : std::runtime_error {
  FileError(const std::string& path, const std::string& reason)
      : std::runtime_error(path + ": " + reason) {}
};

/// Whole-file read; FileError on an unreadable path.
std::string read_file_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw FileError(path, "cannot open");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Deserialized graph from a saved file; FileError on unreadable or
/// unreconstructable content (the subcommands that need a *working* graph
/// — memplan, serve preload — cannot degrade to diagnostics like lint).
std::unique_ptr<ir::Graph> load_graph_or_throw(const std::string& path) {
  const std::string text = read_file_or_throw(path);
  try {
    return ir::deserialize(text, /*validate=*/false);
  } catch (const std::exception& e) {
    throw FileError(path, e.what());
  }
}

/// Loaded what-if trace; FileError on unreadable or malformed JSON.
whatif::Trace load_trace_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw FileError(path, "cannot open");
  try {
    return whatif::load_trace(in);
  } catch (const std::exception& e) {
    throw FileError(path, e.what());
  }
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      if (key == "json" || key == "fuse" || key == "bf16") {  // boolean flags
        args.flags[key] = "1";
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument("flag " + a + " needs a value");
      args.flags[key] = argv[++i];
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

models::ModelSpec build_named(const std::string& name) {
  if (name == "wordlm") return models::build_word_lm();
  if (name == "charlm") return models::build_char_lm();
  if (name == "nmt") return models::build_nmt();
  if (name == "speech") return models::build_speech();
  if (name == "image") return models::build_resnet();
  if (name == "transformer") return models::build_transformer_lm();
  throw std::invalid_argument("unknown domain '" + name +
                              "' (wordlm|charlm|nmt|speech|image|transformer)");
}

int cmd_domains() {
  util::Table table({"domain", "metric", "current SOTA", "desired"});
  for (const auto& d : scaling::domain_table())
    table.add_row({models::domain_name(d.domain), d.metric,
                   util::format_sig(d.current_sota_error),
                   util::format_sig(d.desired_sota_error)});
  table.print(std::cout);
  std::cout << "plus the extension model: transformer (word-LM task)\n";
  return 0;
}

int cmd_cpu() {
  const hw::CpuFeatures& f = hw::cpu_features();
  std::cout << "detected features: avx2=" << (f.avx2 ? "yes" : "no")
            << " avx512f=" << (f.avx512f ? "yes" : "no")
            << " neon=" << (f.neon ? "yes" : "no")
            << " max-vector-width=" << f.max_vector_width_floats << " floats\n";
  std::cout << "best compiled isa: " << hw::simd_isa_name(hw::best_simd_isa())
            << "\n\n";
  util::Table table(
      {"isa", "supported", "width (f32)", "vector regs", "gemm tile mr x nr"});
  for (const hw::SimdIsa isa : {hw::SimdIsa::kGeneric, hw::SimdIsa::kAvx2,
                                hw::SimdIsa::kAvx512, hw::SimdIsa::kNeon}) {
    const hw::RegisterTile tile = hw::register_tile_rule(isa);
    table.add_row({hw::simd_isa_name(isa),
                   hw::isa_supported(isa) ? "yes" : "no",
                   std::to_string(hw::simd_width_floats(isa)),
                   std::to_string(hw::simd_register_count(isa)),
                   std::to_string(tile.mr) + " x " + std::to_string(tile.nr)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_characterize(const Args& args) {
  const auto spec = build_named(args.positional.at(1));
  const double params = args.number("params", 1e9);
  const double batch = args.number("batch", 32);

  const analysis::ModelAnalyzer analyzer(spec);
  const auto counts = analyzer.at_params(params, batch);
  const auto accel = hw::AcceleratorConfig::v100_like();
  const auto t = hw::roofline_step_time(accel, counts.flops, counts.bytes);
  const auto bind = spec.bind(spec.hidden_for_params(params), batch);
  const auto ca = hw::cache_aware_step_time(*spec.graph, bind, accel);

  util::Table table({"quantity", "value"});
  table.add_row({"model", spec.name});
  table.add_row({"graph ops", std::to_string(spec.graph->num_ops())});
  table.add_row({"parameters", util::format_si(counts.params)});
  table.add_row({"hidden (solved)", util::format_sig(counts.hidden, 4)});
  table.add_row({"FLOPs/step", util::format_si(counts.flops)});
  table.add_row({"bytes/step", util::format_bytes(counts.bytes)});
  table.add_row({"algorithmic IO/step",
                 util::format_bytes(spec.graph->algorithmic_io().eval(bind))});
  table.add_row(
      {"op intensity", util::format_sig(counts.operational_intensity(), 4) + " FLOP/B"});
  table.add_row({"min footprint", util::format_bytes(counts.footprint_bytes)});
  table.add_row({"  persistent", util::format_bytes(counts.persistent_bytes)});
  table.add_row({"Roofline step", util::format_duration(t.seconds(), 3)});
  table.add_row({"  bound", t.compute_bound ? "compute" : "memory"});
  table.add_row({"  FLOP utilization", util::format_percent(t.flop_utilization)});
  table.add_row({"cache-aware step", util::format_duration(ca.step_seconds, 3)});
  table.add_row({"  FLOP utilization", util::format_percent(ca.flop_utilization)});
  table.print(std::cout);
  return 0;
}

int cmd_project(const Args& args) {
  const auto spec = build_named(args.positional.at(1));
  const auto& d = scaling::domain_scaling(spec.domain);
  const auto p = scaling::project_frontier(d);
  util::Table table({"quantity", "value", "paper"});
  table.add_row({"data scale", util::format_scale(p.data_scale),
                 util::format_scale(d.paper_data_scale)});
  table.add_row({"model scale", util::format_scale(p.model_scale),
                 util::format_scale(d.paper_model_scale)});
  table.add_row({"target dataset",
                 util::format_si(p.target_samples) + " " + d.sample_unit,
                 util::format_si(d.paper_target_samples)});
  table.add_row({"target params", util::format_si(p.target_params),
                 util::format_si(d.paper_target_params)});
  table.print(std::cout);
  return 0;
}

int cmd_fit(const Args& args) {
  const auto spec = build_named(args.positional.at(1));
  const analysis::ModelAnalyzer analyzer(spec);
  analysis::FitOptions opt = spec.domain == models::Domain::kWordLM && spec.name ==
                                     "transformer_lm"
                                 ? analysis::FitOptions{}
                                 : analysis::recommended_fit_options(spec.domain);
  const auto fit = analysis::fit_first_order(analyzer, opt);
  const auto paper = analysis::paper_first_order(spec.domain);
  util::Table table({"constant", "fitted", "paper (Table 2)"});
  table.add_row({"gamma (FLOPs/param/sample)", util::format_sig(fit.gamma, 4),
                 util::format_sig(paper.gamma)});
  table.add_row({"lambda (bytes/param)", util::format_sig(fit.lambda, 4),
                 util::format_sig(paper.lambda)});
  table.add_row({"mu (bytes/sample/sqrt(p))", util::format_sig(fit.mu, 4),
                 util::format_sig(paper.mu)});
  table.add_row({"delta (footprint B/param)", util::format_sig(fit.delta, 4),
                 util::format_sig(paper.delta)});
  table.add_row({"r^2 (flops / bytes)", util::format_fixed(fit.r2_flops, 4) + " / " +
                                            util::format_fixed(fit.r2_bytes, 4),
                 ""});
  table.print(std::cout);
  return 0;
}

int cmd_subbatch(const Args& args) {
  const auto spec = build_named(args.positional.at(1));
  const auto& d = scaling::domain_scaling(spec.domain);
  const double params = args.number("params", d.paper_target_params);
  const auto model = analysis::paper_first_order(spec.domain);
  const auto accel = hw::AcceleratorConfig::v100_like();
  const auto choice = hw::choose_subbatch(model, params, accel);
  util::Table table({"marker", "subbatch"});
  table.add_row({"ridge match", util::format_sig(choice.ridge, 4)});
  table.add_row({"min per-sample time (recommended)", util::format_sig(choice.best, 4)});
  table.add_row({"intensity saturation", util::format_sig(choice.saturation, 4)});
  table.print(std::cout);
  return 0;
}

int cmd_sweep(const Args& args) {
  const double lo = args.number("from", 3e7);
  const double hi = args.number("to", 6e8);
  const int points = args.count("points", 8, 2);
  const double batch = args.number("batch", 32);
  const auto spec = build_named(args.positional.at(1));

  const analysis::ModelAnalyzer analyzer(spec);
  const auto targets = analysis::log_spaced(lo, hi, points);
  const auto counts = analysis::sweep_model_sizes(analyzer, targets, batch);
  std::cout << "params,flops_per_step,bytes_per_step,op_intensity,footprint_bytes\n";
  for (const auto& c : counts)
    std::cout << c.params << ',' << c.flops << ',' << c.bytes << ','
              << c.operational_intensity() << ',' << c.footprint_bytes << "\n";
  return 0;
}

int cmd_export(const Args& args) {
  const auto spec = build_named(args.positional.at(1));
  const std::string path = args.positional.at(2);
  if (args.flags.count("fuse") != 0) ir::fuse_graph(*spec.graph);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  ir::serialize(*spec.graph, out);
  std::cout << "wrote " << spec.graph->num_ops() << " ops to " << path << "\n";
  return 0;
}

// Numerically executes a few training steps of a (small) bound model under
// the wavefront scheduler and writes the last step's per-op timeline as
// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev).
int cmd_trace(const Args& args) {
  const std::string path = args.positional.at(2);
  const double hidden = args.number("hidden", 32);
  const double batch = args.number("batch", 4);
  const auto threads = static_cast<std::size_t>(args.count("threads", 0, 0));
  const int steps = args.count("steps", 1, 1);
  const auto spec = build_named(args.positional.at(1));
  const auto schedule_it = args.flags.find("schedule");
  const std::string schedule_name =
      schedule_it == args.flags.end() ? "wavefront" : schedule_it->second;
  rt::ExecutorOptions opt;
  opt.fuse = args.flags.count("fuse") != 0;
  if (schedule_name == "sequential") {
    opt.schedule = rt::Schedule::kSequential;
  } else if (schedule_name != "wavefront") {
    throw std::invalid_argument("--schedule must be wavefront or sequential");
  }

  conc::ThreadPool pool(threads);
  opt.pool = &pool;
  rt::Executor ex(*spec.graph, spec.bind(hidden, batch), opt);
  rt::ProfileReport report;
  for (int s = 0; s < steps; ++s) report = ex.run_step();

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  report.write_chrome_trace(out);
  report.print(std::cout);
  std::cout << "wrote " << report.timeline.size() << " timeline events ("
            << schedule_name << ", " << pool.thread_count() << " workers) to "
            << path << "\n";
  return 0;
}

// Static memory plan for built-in models: how far liveness-based slab
// reuse + in-place aliasing compress the step's transient footprint,
// against the paper's Fig 10 sequential minimal footprint.
int cmd_memplan(const Args& args) {
  const double hidden = args.number("hidden", 32);
  const double batch = args.number("batch", 4);

  util::Table table({"model", "ops", "tensors", "aliases", "gross", "live peak",
                     "slab", "fig10 transient", "reuse"});
  bool all_within_footprint = true;

  // Saved-graph mode mirrors lint --file: plan a serialized graph under
  // the standard two bindings instead of building a domain model.
  std::vector<models::ModelSpec> specs;
  if (auto it = args.flags.find("file"); it != args.flags.end()) {
    models::ModelSpec spec;
    spec.graph = load_graph_or_throw(it->second);
    spec.name = spec.graph->name();
    specs.push_back(std::move(spec));
  } else {
    const std::string target = args.positional.size() > 1 ? args.positional[1] : "all";
    std::vector<std::string> names;
    if (target == "all")
      names = {"wordlm", "charlm", "nmt", "speech", "image", "transformer"};
    else
      names = {target};
    for (const std::string& n : names) specs.push_back(build_named(n));
  }
  for (auto& spec : specs) {
    if (args.flags.count("fuse") != 0) ir::fuse_graph(*spec.graph);
    const auto bind = spec.bind(hidden, batch);
    const auto dag = ir::build_op_dag(*spec.graph);
    const auto plan = rt::plan_memory(*spec.graph, dag, bind);
    const auto fp = ir::minimal_footprint(*spec.graph, bind);
    // The acceptance bar: the packed slab must not need more than the
    // sequential schedule's analytic transient peak (alignment padding is
    // the only excuse, and these sizes are big enough that it never is).
    if (static_cast<double>(plan.slab_bytes) >
        fp.peak_transient_bytes + static_cast<double>(rt::kTensorAlignment) *
                                      static_cast<double>(plan.tensors.size()))
      all_within_footprint = false;
    table.add_row({spec.name, std::to_string(spec.graph->num_ops()),
                   std::to_string(plan.tensors.size()), std::to_string(plan.alias_count),
                   util::format_bytes(static_cast<double>(plan.gross_bytes)),
                   util::format_bytes(static_cast<double>(plan.liveness_peak_bytes)),
                   util::format_bytes(static_cast<double>(plan.slab_bytes)),
                   util::format_bytes(fp.peak_transient_bytes),
                   util::format_percent(plan.reuse_fraction())});
  }
  table.print(std::cout);
  std::cout << "(hidden " << hidden << ", batch " << batch
            << "; gross = sum of planned tensors, slab = planned arena, reuse = saved "
               "fraction)\n";
  if (!all_within_footprint) {
    std::cerr << "gfctl: a planned slab exceeds the sequential minimal footprint\n";
    return 1;
  }
  return 0;
}

// Fusion rewrite report: what the pass finds on each built-in model and
// what it buys analytically. The executor takes the same rewrite at run
// time via --fuse here or ExecutorOptions::fuse (on by default).
int cmd_fuse(const Args& args) {
  const double hidden = args.number("hidden", 32);
  const double batch = args.number("batch", 4);
  const std::string target = args.positional.size() > 1 ? args.positional[1] : "all";
  std::vector<std::string> names;
  if (target == "all")
    names = {"wordlm", "charlm", "nmt", "speech", "image", "transformer"};
  else
    names = {target};

  util::Table table({"model", "ops", "fused ops", "groups", "epilogues",
                     "tensors gone", "bytes/step", "fused bytes", "FLOP/B"});
  bool all_clean = true;
  for (const std::string& n : names) {
    const auto spec = build_named(n);
    const auto bind = spec.bind(hidden, batch);
    const std::size_t ops_before = spec.graph->num_ops();
    const double flops = spec.graph->total_flops().eval(bind);
    const double bytes_before = spec.graph->total_bytes_accessed().eval(bind);
    const auto r = ir::fuse_graph(*spec.graph);
    const double bytes_after = spec.graph->total_bytes_accessed().eval(bind);
    if (verify::verify_graph(*spec.graph).has_errors()) all_clean = false;
    table.add_row({spec.name, std::to_string(ops_before),
                   std::to_string(spec.graph->num_ops()),
                   std::to_string(r.pointwise_groups),
                   std::to_string(r.gemm_epilogues),
                   std::to_string(r.tensors_removed),
                   util::format_bytes(bytes_before), util::format_bytes(bytes_after),
                   util::format_sig(flops / bytes_before, 4) + " -> " +
                       util::format_sig(flops / bytes_after, 4)});
  }
  table.print(std::cout);
  std::cout << "(hidden " << hidden << ", batch " << batch
            << "; FLOPs are conserved by the rewrite, so the FLOP/B gain is "
               "exactly the byte reduction)\n";
  if (!all_clean) {
    std::cerr << "gfctl: a fused graph failed verification\n";
    return 1;
  }
  return 0;
}

// Daydream-style what-if estimator over a profiled trace: load the
// dependency-annotated Chrome trace, calibrate the per-op scheduling
// surcharge against the measured span, apply the requested transforms, and
// re-simulate. Nothing is executed; the prediction is pure arithmetic over
// the measured durations.
int cmd_whatif(const Args& args) {
  if (args.positional.size() < 2)
    throw std::invalid_argument("whatif needs a trace file: gfctl whatif <trace.json>");
  const whatif::Trace trace = load_trace_or_throw(args.positional[1]);
  const bool json = args.flags.count("json") != 0;
  const int workers = args.count("workers", 0, 0);

  whatif::ResimOptions opt;
  if (auto it = args.flags.find("overhead"); it != args.flags.end())
    opt.overhead_seconds_per_op = args.number("overhead", 0);
  else
    opt.overhead_seconds_per_op = whatif::calibrate_overhead(trace);
  const whatif::ResimResult baseline = whatif::resimulate(trace, opt);

  // Transforms compose in a fixed order: kernel-class scaling, dtype
  // traffic, fusion. Each maps trace -> trace, so the order only matters
  // for readability of the transform description.
  whatif::Trace t = trace;
  std::vector<std::string> transforms;
  if (auto it = args.flags.find("scale"); it != args.flags.end()) {
    whatif::ScaleClass scale;
    scale.op_type = it->second;
    scale.speedup = args.number("speedup", 2.0);
    t = whatif::scale_kernel_class(t, scale);
    transforms.push_back("scale " + scale.op_type + " by " +
                         util::format_sig(scale.speedup, 3) + "x");
  }
  if (args.flags.count("bf16") != 0) {
    t = whatif::switch_dtype_traffic(t);
    transforms.push_back("bf16 traffic");
  }
  if (args.flags.count("fuse") != 0) {
    const auto model_it = args.flags.find("model");
    if (model_it == args.flags.end())
      throw std::invalid_argument(
          "whatif --fuse needs --model <domain> (plus the --hidden/--batch "
          "the trace was profiled with) to plan the fusion groups");
    const auto spec = build_named(model_it->second);
    const auto bind =
        spec.bind(args.number("hidden", 32), args.number("batch", 4));
    const auto groups = whatif::plan_fusion_groups(*spec.graph, bind, t);
    whatif::FuseModelOptions fuse_opt;
    fuse_opt.memory_weight = args.number("memory-weight", fuse_opt.memory_weight);
    t = whatif::fuse_groups(t, groups, fuse_opt);
    transforms.push_back("fuse " + std::to_string(groups.size()) + " groups (" +
                         model_it->second + ")");
  }
  if (workers > 0) {
    opt.placement = whatif::Placement::kGreedy;
    opt.workers = workers;
    transforms.push_back("replace onto " + std::to_string(workers) + " workers");
  }
  const whatif::ResimResult predicted = whatif::resimulate(t, opt);

  std::string transform_desc;
  for (const std::string& s : transforms)
    transform_desc += (transform_desc.empty() ? "" : ", ") + s;
  if (transform_desc.empty()) transform_desc = "identity";
  const double identity_error =
      trace.span_seconds() > 0
          ? std::abs(baseline.makespan_seconds - trace.span_seconds()) /
                trace.span_seconds()
          : 0;
  const double speedup = predicted.makespan_seconds > 0
                             ? baseline.makespan_seconds / predicted.makespan_seconds
                             : 0;

  auto path_names = [&](const whatif::ResimResult& r, const whatif::Trace& src) {
    std::vector<std::string> names;
    names.reserve(r.critical_path.size());
    for (std::size_t i : r.critical_path) names.push_back(src.ops[i].name);
    return names;
  };

  if (json) {
    util::Json critical_path = util::Json::array();
    for (const std::string& name : path_names(predicted, t))
      critical_path.push_back(name);
    const util::Json out = util::Json::object(
        {{"trace", util::Json::object({{"ops", trace.ops.size()},
                                       {"workers", trace.num_workers()},
                                       {"spanSeconds", trace.span_seconds()},
                                       {"busySeconds", trace.busy_seconds()}})},
         {"calibration",
          util::Json::object({{"overheadSecondsPerOp", opt.overhead_seconds_per_op},
                              {"identityMakespanSeconds", baseline.makespan_seconds},
                              {"identityRelativeError", identity_error}})},
         {"whatif",
          util::Json::object({{"transform", transform_desc},
                              {"ops", t.ops.size()},
                              {"predictedMakespanSeconds", predicted.makespan_seconds},
                              {"predictedSpeedup", speedup},
                              {"criticalPathSeconds", predicted.critical_path_seconds},
                              {"criticalPath", critical_path}})}});
    std::cout << out.dump() << "\n";
    return 0;
  }

  util::Table table({"quantity", "value"});
  table.add_row({"trace ops", std::to_string(trace.ops.size())});
  table.add_row({"trace workers", std::to_string(trace.num_workers())});
  table.add_row({"measured span", util::format_duration(trace.span_seconds(), 3)});
  table.add_row({"measured busy", util::format_duration(trace.busy_seconds(), 3)});
  table.add_row({"calibrated overhead/op",
                 util::format_duration(opt.overhead_seconds_per_op, 3)});
  table.add_row({"identity re-sim", util::format_duration(baseline.makespan_seconds, 3) +
                                        " (err " +
                                        util::format_percent(identity_error) + ")"});
  table.add_row({"transform", transform_desc});
  table.add_row({"predicted ops", std::to_string(t.ops.size())});
  table.add_row({"predicted step", util::format_duration(predicted.makespan_seconds, 3)});
  table.add_row({"predicted speedup", util::format_sig(speedup, 4) + "x"});
  table.add_row(
      {"predicted critical path", util::format_duration(predicted.critical_path_seconds, 3)});
  table.print(std::cout);
  const auto names = path_names(predicted, t);
  std::cout << "critical path (" << names.size() << " ops):";
  const std::size_t shown = std::min<std::size_t>(names.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) std::cout << ' ' << names[i];
  if (shown < names.size()) std::cout << " ... " << names.back();
  std::cout << "\n";
  return 0;
}

// Static analysis over built-in models or a serialized graph file.
// Exit codes: 0 clean (notes allowed), 1 warning-severity findings only,
// 2 error-severity findings or a file that is unreadable / not
// reconstructable.
int cmd_lint(const Args& args) {
  const bool json = args.flags.count("json") != 0;
  verify::VerifyOptions vopts;
  if (auto it = args.flags.find("passes"); it != args.flags.end()) {
    std::string names = it->second;
    std::size_t start = 0;
    while (start <= names.size()) {
      const std::size_t comma = names.find(',', start);
      const std::string name = names.substr(
          start, comma == std::string::npos ? std::string::npos : comma - start);
      if (!name.empty()) vopts.passes.push_back(name);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  std::vector<verify::VerifyResult> results;
  int status = 0;
  auto absorb = [&](verify::VerifyResult r) {
    if (r.has_errors())
      status = 2;  // covers the "load" pseudo-pass's unreconstructable case
    else if (r.count(verify::Severity::kWarning) > 0 && status < 1)
      status = 1;
    results.push_back(std::move(r));
  };

  if (auto it = args.flags.find("file"); it != args.flags.end()) {
    std::ifstream in(it->second);
    if (!in) throw FileError(it->second, "cannot open");
    // Unparseable content stays a structured "load" diagnostic (also exit
    // 2) rather than a FileError: lint's whole point is reporting.
    absorb(verify::verify_serialized(in, vopts));
  } else {
    const std::string target = args.positional.size() > 1 ? args.positional[1] : "all";
    std::vector<std::string> names;
    if (target == "all")
      names = {"wordlm", "charlm", "nmt", "speech", "image", "transformer"};
    else
      names = {target};
    for (const std::string& n : names) {
      const auto spec = build_named(n);
      if (args.flags.count("fuse") != 0) ir::fuse_graph(*spec.graph);
      absorb(verify::verify_graph(*spec.graph, vopts));
    }
  }

  if (json) {
    util::Json reports = util::Json::array();
    for (const auto& r : results) reports.push_back(r.to_json());
    std::cout << reports.dump() << "\n";
  } else {
    for (const auto& r : results) r.print_text(std::cout);
  }
  return status;
}

// Executable data parallelism: run the model's training step under the
// shared-memory ring-allreduce runner (src/runtime/datapar.h) at several
// worker counts, verify the bitwise worker-count-independence contract,
// and put the measured ring time next to the §6 Patarasuk–Yuan α-β
// prediction (α = measured barrier crossing, β = measured copy bandwidth
// derated by min(N, cores)/N for the shared-memory "links"). Exits 1 if
// any worker count changes the loss bits of any step.
int cmd_datapar(const Args& args) {
  const std::string domain = args.positional.size() > 1 ? args.positional[1] : "wordlm";
  const int shards = args.count("shards", 8, 1);
  const double hidden = args.number("hidden", 32);
  const double batch = args.number("batch", 2.0 * shards);
  const auto threads = static_cast<std::size_t>(args.count("threads", 1, 0));
  const int steps = args.count("steps", 3, 1);
  const double bucket_kb = args.number("bucket-kb", 64);
  if (!(bucket_kb > 0)) throw std::invalid_argument("--bucket-kb must be positive");
  const auto spec = build_named(domain);
  const double sigma = args.number("straggler", 0);
  const auto bind = spec.bind(hidden, batch);

  const double copy_bw = rt::measure_copy_bandwidth();
  const double cores = std::max(1u, std::thread::hardware_concurrency());

  auto bits_of = [](float f) {
    std::uint32_t u = 0;
    std::memcpy(&u, &f, sizeof(u));
    return u;
  };
  auto pow2 = [](int v) { return v > 0 && (v & (v - 1)) == 0; };

  struct Row {
    int workers = 0;
    double step_seconds = 0, comm_seconds = 0, predicted_seconds = 0;
    std::size_t gradient_bytes = 0;
    std::vector<std::uint32_t> loss_bits;
  };
  std::vector<Row> rows;
  for (int n : {1, 2, 4, 8}) {
    if (n > shards || shards % n != 0 || !pow2(shards / n)) continue;
    rt::DataParallelOptions opt;
    opt.workers = n;
    opt.grad_shards = shards;
    opt.bucket_bytes = static_cast<std::size_t>(bucket_kb * 1024);
    opt.threads_per_worker = threads;
    opt.straggler_sigma = sigma;
    rt::DataParallelRunner runner(*spec.graph, spec.loss, bind, opt);

    Row row;
    row.workers = n;
    row.gradient_bytes = runner.total_gradient_bytes();
    row.step_seconds = 1e300;
    std::vector<double> best_bucket;
    rt::DataParallelStepResult last;
    for (int s = 0; s < 1 + steps; ++s) {  // step 0 primes, untimed
      last = runner.step();
      row.loss_bits.push_back(bits_of(last.loss));
      if (s == 0) continue;
      row.step_seconds = std::min(row.step_seconds, last.wall_seconds);
      if (best_bucket.empty()) best_bucket.resize(last.buckets.size(), 1e300);
      for (std::size_t b = 0; b < last.buckets.size(); ++b)
        best_bucket[b] = std::min(best_bucket[b], last.buckets[b].ring_seconds());
    }
    for (double t : best_bucket) row.comm_seconds += t;
    if (n > 1) {
      plan::AllReduceModel model;
      model.hop_latency = rt::measure_barrier_seconds(n);
      model.link_bandwidth = copy_bw * std::min<double>(n, cores) / n;
      for (const rt::BucketStats& b : last.buckets)
        row.predicted_seconds +=
            plan::ring_allreduce_cost(model, static_cast<double>(b.payload_bytes), n)
                .seconds();
    }
    if (auto it = args.flags.find("trace"); it != args.flags.end()) {
      std::ofstream out(it->second + "." + std::to_string(n) + "w.json");
      if (!out) throw std::runtime_error("cannot open trace output " + it->second);
      last.timeline.write_chrome_trace(out);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) throw std::invalid_argument("--shards admits no worker count in {1,2,4,8}");

  bool bits_ok = true;
  util::Table table({"workers", "step s", "comm s", "PY predicted s", "ratio",
                     "speedup", "loss bits"});
  for (const Row& r : rows) {
    const bool same = r.loss_bits == rows.front().loss_bits;
    bits_ok = bits_ok && same;
    table.add_row({std::to_string(r.workers), util::format_duration(r.step_seconds, 3),
                   util::format_duration(r.comm_seconds, 3),
                   r.workers > 1 ? util::format_duration(r.predicted_seconds, 3)
                                 : std::string("-"),
                   r.predicted_seconds > 0
                       ? util::format_sig(r.comm_seconds / r.predicted_seconds, 3)
                       : std::string("-"),
                   util::format_sig(rows.front().step_seconds / r.step_seconds, 3),
                   same ? "match" : "DIFFER"});
  }
  table.print(std::cout);
  std::cout << "(" << domain << ": hidden " << hidden << ", global batch " << batch
            << ", S=" << shards << " micro-shards, "
            << util::format_bytes(static_cast<double>(rows.front().gradient_bytes))
            << " gradients; every worker count must reproduce the same loss bits)\n";
  if (!bits_ok) {
    std::cerr << "gfctl: loss bits differ across worker counts\n";
    return 1;
  }
  return 0;
}

// Long-running analysis service: line-delimited JSON requests on stdin,
// one JSON response per line on stdout, dispatched concurrently onto a
// thread pool with a content-addressed stage cache (src/serve/). Pipe or
// socat a request stream in; responses come back in request order
// regardless of worker count. --file preloads a serialized graph so the
// first request over that model is already warm.
int cmd_serve(const Args& args) {
  const auto threads = static_cast<std::size_t>(args.count("threads", 0, 0));
  const auto max_in_flight = static_cast<std::size_t>(args.count("max-in-flight", 64, 1));

  conc::ThreadPool pool(threads);
  serve::AnalysisService service(pool);
  if (auto it = args.flags.find("file"); it != args.flags.end()) {
    const std::string text = read_file_or_throw(it->second);
    try {
      const std::uint64_t hash = service.preload_graph(text);
      std::cerr << "gfctl serve: preloaded " << it->second << " (graph hash 0x"
                << std::hex << hash << std::dec << ")\n";
    } catch (const std::exception& e) {
      throw FileError(it->second, e.what());
    }
  }

  serve::ServerOptions options;
  options.max_in_flight = max_in_flight;
  const std::size_t served = serve::run_server(std::cin, std::cout, service, pool, options);
  std::cerr << "gfctl serve: " << served << " requests served, "
            << service.cache_stats().hits << " cache hits\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.positional.empty()) {
      std::cerr << "usage: gfctl "
                   "<domains|cpu|characterize|project|fit|subbatch|sweep|export|trace|"
                   "lint|memplan|fuse|whatif|datapar|serve> ...\n";
      return 1;
    }
    const std::string& cmd = args.positional[0];
    if (cmd == "domains") return cmd_domains();
    if (cmd == "cpu") return cmd_cpu();
    if (cmd == "characterize") return cmd_characterize(args);
    if (cmd == "project") return cmd_project(args);
    if (cmd == "fit") return cmd_fit(args);
    if (cmd == "subbatch") return cmd_subbatch(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "export") return cmd_export(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "memplan") return cmd_memplan(args);
    if (cmd == "fuse") return cmd_fuse(args);
    if (cmd == "whatif") return cmd_whatif(args);
    if (cmd == "datapar") return cmd_datapar(args);
    if (cmd == "serve") return cmd_serve(args);
    std::cerr << "unknown command '" << cmd << "'\n";
    return 1;
  } catch (const FileError& e) {
    // One contract for every subcommand that reads a file: print the
    // path, exit 2 (matching lint's unreadable-input convention).
    std::cerr << "gfctl: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "gfctl: " << e.what() << "\n";
    return 1;
  }
}
