// Verification harness: every analytic parallelism quantity used by
// Tables 3/5 and Figures 11/12 is re-derived by replaying the explicit
// cluster schedule (src/whatif/cluster.h, devices and links as lanes)
// with whatif::resimulate, and printed side by side. Where the analytic
// form is exact (ring allreduce, fused pipeline, homogeneous sync-SGD),
// the columns must agree to float precision — this bench is the evidence,
// and it exits 1 when any row's relative error exceeds 1e-12.
#include <algorithm>

#include "bench/bench_common.h"
#include "src/plan/case_study.h"
#include "src/whatif/cluster.h"
#include "src/whatif/resim.h"

int main() {
  using namespace gf;
  bench::banner("Verification", "discrete-event simulation vs analytic models");

  constexpr double kMaxRelError = 1e-12;
  double worst = 0;
  util::Table table({"scenario", "analytic (s)", "simulated (s)", "rel. error"});
  auto row = [&](const std::string& name, double analytic, double simulated) {
    const double err = analytic > 0 ? std::abs(simulated - analytic) / analytic : 0;
    worst = std::max(worst, err);
    table.add_row({name, util::format_sig(analytic, 6), util::format_sig(simulated, 6),
                   util::format_sig(err, 2)});
  };
  auto makespan = [](const whatif::Trace& schedule) {
    return whatif::resimulate(schedule).makespan_seconds;
  };

  // 1. Ring allreduce at Table 5 scale.
  const double grad_bytes = 4.0 * 23.8e9;
  for (int n : {16, 512, 1024}) {
    plan::AllReduceModel net;
    net.hop_latency = 0;
    row("ring allreduce, " + std::to_string(n) + " workers (95 GB)",
        plan::ring_allreduce_seconds(net, grad_bytes, n),
        makespan(whatif::ring_allreduce_trace(n, grad_bytes, net.link_bandwidth)));
  }

  // 2. Synchronous data-parallel step (cache-aware compute + allreduce).
  {
    const auto inputs = plan::paper_calibrated_case_study();
    plan::AllReduceModel net;
    net.hop_latency = 0;
    for (int n : {512, 1024}) {
      whatif::DataParallelSchedule cfg;
      cfg.worker_compute_seconds.assign(static_cast<std::size_t>(n),
                                        inputs.cache_step_seconds);
      cfg.gradient_bytes = grad_bytes;
      cfg.link_bandwidth = net.link_bandwidth;
      row("sync-SGD step, " + std::to_string(n) + " workers",
          inputs.cache_step_seconds +
              plan::ring_allreduce_seconds(net, grad_bytes, n),
          makespan(whatif::data_parallel_step_trace(cfg)));
    }
  }

  // 3. Pipeline layer parallelism (Table 5's 4-stage, 2-microbatch plan).
  for (int u : {1, 2, 8}) {
    plan::PipelineModel analytic;
    analytic.stages = 4;
    analytic.microbatches = u;
    const auto lp = plan::layer_parallel_step(
        17.2, analytic,
        {{"a", 1, false}, {"b", 1, false}, {"c", 1, false}, {"d", 1, false}});
    whatif::PipelineSchedule cfg;
    cfg.stage_seconds.assign(4, 17.2 / 4);
    cfg.microbatches = u;
    row("pipeline 4 stages, " + std::to_string(u) + " microbatches",
        lp.step_seconds, makespan(whatif::pipeline_trace(cfg)));
  }

  // 4. Separate fwd/bwd waves vs the fused abstraction (balanced stages).
  {
    whatif::PipelineSchedule cfg;
    cfg.stage_seconds.assign(4, 17.2 / 4);
    cfg.microbatches = 2;
    const double fused = makespan(whatif::pipeline_trace(cfg));
    cfg.separate_backward = true;
    row("pipeline: separate fwd/bwd waves (vs fused)", fused,
        makespan(whatif::pipeline_trace(cfg)));
  }

  bench::print_with_csv(table);
  std::cout << "\nEvery relative error should print as 0 (exact agreement):\n"
               "the closed forms the reproduction relies on are not\n"
               "approximations of these schedules — they are their critical\n"
               "paths, and the event-driven execution confirms it.\n";
  if (worst > kMaxRelError) {
    std::cerr << "FAIL: a simulated makespan misses its closed form by "
              << util::format_sig(worst, 2) << " relative (gate "
              << util::format_sig(kMaxRelError, 2) << ")\n";
    return 1;
  }
  return 0;
}
