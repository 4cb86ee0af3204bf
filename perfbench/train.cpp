// Training workloads: train_lstm, train_transformer, train_lstm_dp2.
//
// Each session builds the model, constructs the executor (or the
// data-parallel runner), runs one priming step and a few warm-up steps,
// then times steps until its share of the run is used. Fusion, SIMD and
// the memory plan come from the GF_FUSE / GF_SIMD / GF_MEMORY_PLAN
// environment defaults, never from ExecutorOptions fields (NOTES.md).
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "probes.h"
#include "src/ir/serialize.h"
#include "src/models/models.h"
#include "src/runtime/datapar.h"
#include "src/runtime/executor.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace rt = gf::rt;
using gf::serve::Json;

struct TrainConfig {
  bool transformer = false;
  int vocab = 1000;
  int layers = 2;
  int seq = 20;
  int hidden = 128;
  int batch = 16;
  int dp_workers = 0;  ///< 0: one Executor; N: DataParallelRunner with N workers
  int sessions = 10;
  int warmup_steps = 2;  ///< untimed steps after priming (lazy set-up, caches)
  int min_steps = 10;    ///< timed steps per session even past its time share
};

TrainConfig config_for(const std::string& workload) {
  TrainConfig c;
  if (workload == "train_lstm") return c;
  if (workload == "train_lstm_dp2") {
    c.dp_workers = 2;
    c.sessions = 5;
    c.min_steps = 5;
    return c;
  }
  if (workload == "train_transformer") {
    c.transformer = true;
    c.seq = 32;
    c.hidden = 256;
    c.sessions = 6;
    c.min_steps = 5;
    return c;
  }
  throw std::invalid_argument("unknown training workload '" + workload + "'");
}

gf::models::ModelSpec build_model(const TrainConfig& c) {
  if (c.transformer) {
    gf::models::TransformerLmConfig t;
    t.vocab = c.vocab;
    t.layers = c.layers;
    t.seq_length = c.seq;
    return gf::models::build_transformer_lm(t);
  }
  gf::models::WordLmConfig w;
  w.vocab = c.vocab;
  w.layers = c.layers;
  w.seq_length = c.seq;
  return gf::models::build_word_lm(w);
}

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// One session's trainer: a single executor on its own pool, or the
/// data-parallel runner (which owns per-worker pools).
class Trainer {
 public:
  Trainer(const TrainConfig& c, const gf::models::ModelSpec& spec, unsigned seed)
      : spec_(spec), bind_(spec.bind(c.hidden, c.batch)) {
    rt::ExecutorOptions exec;
    exec.seed = seed;
    if (c.dp_workers == 0) {
      pool_ = std::make_unique<gf::conc::ThreadPool>(kMaxRunnable - 1);
      exec.pool = pool_.get();
      executor_ = std::make_unique<rt::Executor>(*spec.graph, bind_, exec);
      executor_->retain(spec.loss);
      expected_flops_ = executor_->executing_graph().total_flops().eval(bind_);
    } else {
      rt::DataParallelOptions dp;
      dp.workers = c.dp_workers;
      dp.threads_per_worker = 1;
      dp.executor = exec;
      runner_ = std::make_unique<rt::DataParallelRunner>(*spec.graph, spec.loss, bind_, dp);
      // Worker executors skip ApplyGradient (the runner applies the averaged
      // gradients itself), so a step executes S micro-steps minus updates.
      gf::sym::Bindings micro = bind_;
      micro[gf::models::kBatchSymbol] = c.batch / runner_->grad_shards();
      const gf::ir::Graph& g = runner_->worker_executor(0).executing_graph();
      double update_flops = 0;
      for (const auto& op : g.ops())
        if (op->type() == gf::ir::OpType::kApplyGradient) update_flops += op->flops().eval(micro);
      expected_flops_ = runner_->grad_shards() * (g.total_flops().eval(micro) - update_flops);
    }
  }

  /// Runs one step; `report` receives the step's timeline (the runner's
  /// merged one, comm events included).
  float step(rt::ProfileReport& report) {
    if (executor_) {
      report = executor_->run_step();
      return executor_->value(spec_.loss).f(0);
    }
    dp_ = runner_->step();
    report = std::move(dp_.timeline);
    return dp_.loss;
  }

  bool flops_match(const rt::ProfileReport& report) const {
    return std::abs(report.total_flops - expected_flops_) <= 1e-6 * expected_flops_;
  }
  const rt::DataParallelStepResult* last_dp() const { return runner_ ? &dp_ : nullptr; }
  const rt::DataParallelRunner* runner() const { return runner_.get(); }
  const gf::ir::Graph& executing_graph() {
    return executor_ ? executor_->executing_graph()
                     : runner_->worker_executor(0).executing_graph();
  }
  gf::sym::Bindings plan_bindings() const {
    if (executor_) return bind_;
    gf::sym::Bindings micro = bind_;
    micro[gf::models::kBatchSymbol] =
        bind_.at(gf::models::kBatchSymbol) / runner_->grad_shards();
    return micro;
  }

 private:
  const gf::models::ModelSpec& spec_;
  gf::sym::Bindings bind_;
  std::unique_ptr<gf::conc::ThreadPool> pool_;
  std::unique_ptr<rt::Executor> executor_;
  std::unique_ptr<rt::DataParallelRunner> runner_;
  rt::DataParallelStepResult dp_;
  double expected_flops_ = 0;
};

void fold_datapar(const rt::DataParallelStepResult& r, const rt::DataParallelRunner& runner,
                  LayerSamples& layers) {
  double compute = 0;
  for (const rt::WorkerStepStats& w : r.workers) compute = std::max(compute, w.compute_seconds);
  double ring = 0;
  double moved = 0;
  const double n = runner.workers();
  for (const rt::BucketStats& b : r.buckets) {
    ring += b.ring_seconds();
    moved += 2.0 * (n - 1) / n * static_cast<double>(b.payload_bytes);
  }
  layers.sample("extra.datapar.compute_ms", compute * 1e3);
  layers.sample("extra.datapar.exposed_comm_ms", exposed_comm_seconds(r) * 1e3);
  layers.sample("extra.datapar.ring_ms", ring * 1e3);
  if (ring > 0) layers.sample("extra.datapar.ring_gbps", moved / ring / 1e9);
  layers.sample("extra.datapar.bytes_per_step", runner.total_gradient_bytes());
  layers.sample("extra.datapar.buckets", static_cast<double>(runner.buckets().size()));
}

}  // namespace

Outcome run_train(const RunRequest& req, Spans& spans) {
  const TrainConfig c = config_for(req.workload);
  Outcome out;
  out.threads = c.dp_workers == 0 ? kMaxRunnable : 2 * c.dp_workers;
  out.config.set("model", Json(c.transformer ? "transformer_lm" : "word_lm"));
  out.config.set("vocab", Json(c.vocab));
  out.config.set("layers", Json(c.layers));
  out.config.set("seq", Json(c.seq));
  out.config.set("hidden", Json(c.hidden));
  out.config.set("batch", Json(c.batch));
  out.config.set("data_parallel_workers", Json(c.dp_workers));
  out.config.set("executor_pool_threads", Json(c.dp_workers == 0 ? kMaxRunnable - 1 : 1));
  out.config.set("sessions", Json(c.sessions));
  out.config.set("warmup_steps", Json(c.warmup_steps));
  out.config.set("min_timed_steps", Json(c.min_steps));

  Spans off(false);
  LayerSamples layers;
  ServeProbe serve_probe;
  // Indexed by session_bucket(), so the traced run can report overhead.
  std::vector<double> setup[3], step_s[3];
  std::vector<std::uint32_t> reference_trajectory;
  std::size_t flop_mismatches = 0;
  const double tokens_per_step = static_cast<double>(c.batch) * c.seq;
  const auto run_start = Clock::now();

  for (int s = 0; s < c.sessions; ++s) {
    const int bucket = session_bucket(req, s);
    const bool traced = bucket == 1;
    Spans& rec = traced ? spans : off;
    const auto session_id = static_cast<std::uint32_t>(s);
    ScopedSpan session_span(rec, "session", -1, session_id);

    const auto t0 = Clock::now();
    ScopedSpan build_span(rec, "models.build", session_span.id(), session_id);
    const gf::models::ModelSpec spec = build_model(c);
    build_span.close();
    ScopedSpan init_span(rec, "runtime.executor_init", session_span.id(), session_id);
    Trainer trainer(c, spec, req.seed);
    init_span.close();

    std::vector<std::uint32_t> trajectory;
    rt::ProfileReport report;
    float first_loss = 0;
    float loss = 0;
    std::uint64_t step_index = 0;
    const auto run_step = [&](bool timed) {
      ++out.attempted;
      const int parent = session_span.id();
      ScopedSpan step_span(rec, timed ? "run_step" : "run_step.untimed", parent, session_id,
                           step_index++);
      const double span_start = rec.now();
      const auto st = Clock::now();
      try {
        loss = trainer.step(report);
      } catch (const std::exception& e) {
        ++out.failed;
        out.gate(false, std::string("training step threw: ") + e.what());
        return -1.0;
      }
      const double elapsed = seconds_since(st);
      step_span.close();
      if (!trainer.flops_match(report)) ++flop_mismatches;
      if (rec.enabled() && timed) {
        rec.fold_timeline(report, step_span.id(), span_start);
        layers.sample("runtime.step_prologue_ms", (elapsed - report.wall_seconds) * 1e3);
        layers.sample("runtime.step_unattributed_ms", rec.self_seconds(step_span.id()) * 1e3);
        fold_step_layers(report, layers);
        if (const auto* dp = trainer.last_dp()) fold_datapar(*dp, *trainer.runner(), layers);
      }
      return elapsed;
    };

    const double first_step = run_step(false);
    if (first_step < 0) continue;
    first_loss = loss;
    trajectory.push_back(bits_of(loss));
    setup[bucket].push_back(seconds_since(t0));
    if (traced) {
      layers.add("models.build_ms", rec.duration(build_span.id()) * 1e3);
      layers.add("runtime.executor_init_ms", rec.duration(init_span.id()) * 1e3);
      layers.add("runtime.first_step_ms", first_step * 1e3);
    }
    for (int w = 0; w < c.warmup_steps; ++w) {
      if (run_step(false) < 0) break;
      trajectory.push_back(bits_of(loss));
    }

    const auto deadline =
        run_start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                        req.seconds * (s + 1) / c.sessions));
    for (int n = 0; n < c.min_steps || Clock::now() < deadline; ++n) {
      const double elapsed = run_step(true);
      if (elapsed < 0) break;
      step_s[bucket].push_back(elapsed);
    }

    out.gate(std::isfinite(loss) && loss < first_loss,
             "session " + std::to_string(s) + ": final loss " + std::to_string(loss) +
                 " is not a finite value below the priming loss " +
                 std::to_string(first_loss));
    if (reference_trajectory.empty()) reference_trajectory = trajectory;
    out.gate(trajectory == reference_trajectory,
             "session " + std::to_string(s) +
                 ": priming and warm-up losses differ bitwise from session 0");

    if (traced) {
      ScopedSpan probes(rec, "probes", session_span.id(), session_id);
      probe_graph(*spec.graph, layers);
      probe_plan(trainer.executing_graph(), trainer.plan_bindings(), layers);
      const std::string trace = chrome_trace_text(report);
      probe_trace(trace, layers);
      probe_json(trace, layers);
      serve_probe.run(gf::ir::serialize(*spec.graph), trace, c.hidden, c.batch, layers);
      layers.close_session();
    }
  }
  serve_probe.finish(out);
  out.gate(flop_mismatches == 0, std::to_string(flop_mismatches) +
                                     " steps executed FLOPs differing from the symbolic "
                                     "total by more than 1e-6");

  const auto fill = [&](std::map<std::string, Metric>& m, int bucket) {
    if (setup[bucket].empty() || step_s[bucket].empty()) return;
    m["setup_s"] = median_metric(setup[bucket], "s");
    std::vector<double> ms;
    double total = 0;
    for (const double v : step_s[bucket]) {
      ms.push_back(v * 1e3);
      total += v;
    }
    m["latency_p50_ms"] = median_metric(ms, "ms");
    m["throughput_per_s"] =
        total_metric(tokens_per_step * static_cast<double>(ms.size()) / total, "1/s", ms.size());
  };
  fill(out.end_to_end, 0);
  if (req.trace) {
    fill(out.traced_end_to_end, 1);
    layers.summarize(out.per_layer, out.per_layer_extra);
    // The step's self time is the remainder no op or span explains.
    if (const auto it = out.per_layer.find("runtime.step_unattributed_ms");
        it != out.per_layer.end()) {
      out.unattributed["run_step"] = it->second;
      out.per_layer.erase(it);
    }
  }
  return out;
}

}  // namespace perfbench
