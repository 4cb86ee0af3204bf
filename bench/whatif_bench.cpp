// What-if estimator accuracy bench: can the Daydream-style re-simulation
// (src/whatif/) predict the measured fusion win from an UNFUSED profile?
//
// For each model the bench profiles one unfused training step, calibrates
// the per-op scheduling surcharge against the measured span, plans the
// fusion groups ir::fuse_graph would form, rewrites the trace with the
// fuse-group duration model, and re-simulates — all without executing the
// fused program. It then runs the real fused step and compares.
//
// Console table + BENCH_whatif.json per model:
//   - ops unfused / predicted fused / measured fused (the predicted node
//     count must match the real rewrite exactly — it comes from the same
//     pass on a clone)
//   - measured unfused span, calibrated overhead/op
//   - predicted vs measured fused span, relative error
//
// Hard failures (nonzero exit): predicted fused op count differing from
// the measured fused graph, identity re-simulation off the measured span
// by more than 1%, or — the headline calibration gate — relative
// step-time error above 15% on the word_lm case (the PR that introduced
// the fusion rewrite measured its win on word_lm; the estimator must
// reproduce that number from the unfused profile alone). Other models'
// errors are reported for the trajectory but not gated: their toy-size
// fused steps are GEMM-dominated, so the gate would mostly measure GEMM
// wall noise, not the estimator.
//
// Steps run on the sequential schedule: the gate compares one measured
// number against one predicted number, and the sequential span is the
// most repeatable of the executor's schedules at these sizes.
//
// Flags: --smoke (2 models, fewer reps — CI), --threads N (pool for the
// executor; the schedule stays sequential), --out PATH.
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/concurrency/thread_pool.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"
#include "src/util/format.h"
#include "src/util/json.h"
#include "src/util/table.h"
#include "src/whatif/resim.h"
#include "src/whatif/trace.h"
#include "src/whatif/transform.h"

namespace {

using namespace gf;

constexpr double kGateThreshold = 0.15;       // fusion-case relative error
constexpr double kIdentityThreshold = 0.01;   // identity re-sim vs span

std::string ratio_str(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", r);
  return buf;
}

struct ModelCase {
  std::string name;
  models::ModelSpec spec;
  double hidden;
  double batch;
  bool gated;  // the calibration-gate case
};

std::vector<ModelCase> bench_models(bool smoke) {
  std::vector<ModelCase> cases;
  {
    models::WordLmConfig cfg;
    cfg.vocab = 60;
    cfg.seq_length = 6;
    cfg.layers = 2;
    cases.push_back({"word_lm", models::build_word_lm(cfg), smoke ? 8.0 : 24.0,
                     smoke ? 2.0 : 4.0, true});
  }
  {
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.image_size = 32;
    cfg.classes = 10;
    cases.push_back({"resnet", models::build_resnet(cfg), 8, 2, false});
  }
  if (smoke) return cases;
  {
    models::TransformerLmConfig cfg;
    cfg.vocab = 60;
    cfg.layers = 2;
    cfg.seq_length = 8;
    cases.push_back({"transformer_lm", models::build_transformer_lm(cfg), 24, 4, false});
  }
  {
    models::NmtConfig cfg;
    cfg.vocab_src = 40;
    cfg.vocab_tgt = 40;
    cfg.src_length = 5;
    cfg.tgt_length = 4;
    cfg.decoder_layers = 2;
    cases.push_back({"nmt", models::build_nmt(cfg), 24, 4, false});
  }
  return cases;
}

/// Profiles `reps` steady-state steps of the unfused AND fused executors,
/// INTERLEAVED, and returns each path's best-of-reps report. Interleaving
/// matters more than rep count here: machine-load drift between two
/// separate measurement phases shows up directly as prediction "error",
/// while alternating steps expose both paths to the same environment.
std::pair<rt::ProfileReport, rt::ProfileReport> profile_both(
    const models::ModelSpec& spec, const sym::Bindings& bind, conc::ThreadPool& pool,
    int reps) {
  rt::ExecutorOptions opt;
  opt.pool = &pool;
  opt.fuse = false;
  // Plan memory as fusion_bench does: with the slab the step pays no
  // per-op allocation, so the calibrated surcharge prices dispatch alone
  // and the measured fusion win is the one the rewrite was PR'd with.
  opt.memory_plan = true;
  opt.schedule = rt::Schedule::kSequential;
  rt::ExecutorOptions fused_opt = opt;
  fused_opt.fuse = true;
  rt::Executor unfused(*spec.graph, bind, opt);
  rt::Executor fused(*spec.graph, bind, fused_opt);
  // Steady state for both: weight grads + slab + GEMM scratch warm.
  unfused.run_step();
  unfused.run_step();
  fused.run_step();
  fused.run_step();
  rt::ProfileReport best_u = unfused.run_step();
  rt::ProfileReport best_f = fused.run_step();
  for (int r = 1; r < reps; ++r) {
    rt::ProfileReport u = unfused.run_step();
    if (u.wall_seconds < best_u.wall_seconds) best_u = u;
    rt::ProfileReport f = fused.run_step();
    if (f.wall_seconds < best_f.wall_seconds) best_f = f;
  }
  return {std::move(best_u), std::move(best_f)};
}

struct CaseResult {
  std::string name;
  bool gated = false;
  std::size_t ops_unfused = 0;
  std::size_t ops_predicted = 0;
  std::size_t ops_measured = 0;
  std::size_t groups = 0;
  double unfused_span = 0;
  double overhead_per_op = 0;
  double identity_error = 0;
  double predicted_span = 0;
  double measured_span = 0;

  double relative_error() const {
    return measured_span > 0 ? std::fabs(predicted_span - measured_span) / measured_span
                             : 0;
  }
  bool ops_match() const { return ops_predicted == ops_measured; }
  bool identity_ok() const { return identity_error <= kIdentityThreshold; }
  bool gate_ok() const { return !gated || relative_error() <= kGateThreshold; }
  bool ok() const { return ops_match() && identity_ok() && gate_ok(); }
};

void write_json(const std::string& path, std::size_t threads,
                const std::vector<CaseResult>& results) {
  util::Json models = util::Json::array();
  for (const CaseResult& r : results)
    models.push_back(util::Json::object(
        {{"name", r.name}, {"gated", r.gated}, {"ops_unfused", r.ops_unfused},
         {"ops_predicted", r.ops_predicted}, {"ops_measured", r.ops_measured},
         {"fuse_groups", r.groups}, {"unfused_span_seconds", r.unfused_span},
         {"overhead_seconds_per_op", r.overhead_per_op},
         {"identity_relative_error", r.identity_error},
         {"predicted_fused_span_seconds", r.predicted_span},
         {"measured_fused_span_seconds", r.measured_span},
         {"relative_error", r.relative_error()},
         {"predicted_speedup",
          r.predicted_span > 0 ? r.unfused_span / r.predicted_span : 0.0},
         {"measured_speedup",
          r.measured_span > 0 ? r.unfused_span / r.measured_span : 0.0},
         {"pass", r.ok()}}));
  const util::Json doc =
      util::Json::object({{"threads", threads}, {"gate_threshold", kGateThreshold},
                          {"models", models}});
  std::ofstream(path) << doc.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = 2;
  std::string out_path = "BENCH_whatif.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: whatif_bench [--smoke] [--threads N] [--out PATH]\n";
      return 2;
    }
  }

  conc::ThreadPool pool(threads);
  const int reps = smoke ? 5 : 7;

  std::vector<CaseResult> results;
  util::Table table({"model", "ops", "pred ops", "meas ops", "groups", "overhead/op",
                     "pred step", "meas step", "err", "pred x", "meas x", "checks"});
  bool ok = true;
  for (ModelCase& c : bench_models(smoke)) {
    const sym::Bindings bind = c.spec.bind(c.hidden, c.batch);
    CaseResult r;
    r.name = c.name;
    r.gated = c.gated;

    // 1. Profile unfused + fused steps interleaved; lift the unfused one
    // into a whatif trace. The fused report is only consulted in step 4.
    const auto [unfused, fused] = profile_both(c.spec, bind, pool, reps);
    const whatif::Trace trace = whatif::from_report(unfused);
    r.ops_unfused = trace.ops.size();
    r.unfused_span = trace.span_seconds();

    // 2. Calibrate the per-op surcharge and check the identity property.
    r.overhead_per_op = whatif::calibrate_overhead(trace);
    whatif::ResimOptions opt;
    opt.overhead_seconds_per_op = r.overhead_per_op;
    const double identity = whatif::resimulate(trace, opt).makespan_seconds;
    r.identity_error = r.unfused_span > 0
                           ? std::fabs(identity - r.unfused_span) / r.unfused_span
                           : 0;

    // 3. Predict the fused step without executing it.
    const auto groups = whatif::plan_fusion_groups(*c.spec.graph, bind, trace);
    r.groups = groups.size();
    const whatif::Trace fused_trace = whatif::fuse_groups(trace, groups);
    r.ops_predicted = fused_trace.ops.size();
    r.predicted_span = whatif::resimulate(fused_trace, opt).makespan_seconds;

    // 4. Compare against the real fused step (span, like the prediction:
    // first op start to last op end, excluding step setup/teardown).
    r.ops_measured = fused.timeline.size();
    r.measured_span = whatif::from_report(fused).span_seconds();

    ok = ok && r.ok();
    table.add_row({r.name, std::to_string(r.ops_unfused),
                   std::to_string(r.ops_predicted), std::to_string(r.ops_measured),
                   std::to_string(r.groups),
                   util::format_duration(r.overhead_per_op, 3),
                   util::format_duration(r.predicted_span, 3),
                   util::format_duration(r.measured_span, 3),
                   util::format_percent(r.relative_error()),
                   ratio_str(r.predicted_span > 0 ? r.unfused_span / r.predicted_span : 0),
                   ratio_str(r.measured_span > 0 ? r.unfused_span / r.measured_span : 0),
                   r.ok() ? (r.gated ? "ok (gated)" : "ok") : "FAIL"});
    results.push_back(r);
  }

  std::cout << "== what-if fusion prediction vs measurement (sequential, threads="
            << threads << ") ==\n";
  table.print(std::cout);

  write_json(out_path, threads, results);
  std::cout << "wrote " << out_path << "\n";
  if (!ok) {
    std::cerr << "whatif_bench: op-count / identity / " << kGateThreshold * 100
              << "% calibration gate FAILED\n";
    return 1;
  }
  return 0;
}
