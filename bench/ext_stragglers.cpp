// Extension study: synchronous-SGD straggler sensitivity, by replaying the
// explicit sync-SGD cluster schedule (src/whatif/cluster.h) with
// whatif::resimulate. The paper's §6 data-parallel numbers assume
// identical workers; real clusters jitter, and synchronous SGD pays
// E[max over N] of the per-worker time — a scaling tax that grows with the
// worker count and that the closed-form models cannot express. Exits 1
// when a jitter-free row's mean step misses the analytic step by more than
// 1e-12 relative.
#include <cmath>
#include <random>
#include <vector>

#include "bench/bench_common.h"
#include "src/plan/case_study.h"
#include "src/whatif/cluster.h"
#include "src/whatif/resim.h"

int main() {
  using namespace gf;
  bench::banner("Extension", "synchronous-SGD straggler sensitivity (word LM)");

  const auto inputs = plan::paper_calibrated_case_study();
  const double compute = inputs.cache_step_seconds;  // 17.2 s cache-aware step
  const double grad_bytes = 4.0 * inputs.params;

  util::Table table(
      {"compute jitter (lognormal sigma)", "workers", "mean step (sim, s)",
       "vs jitter-free", "epoch days", "effective util"});

  // One schedule per worker count; each trial only rewrites the compute
  // durations, which are ops [0, workers) of the trace.
  const std::vector<int> worker_counts{64, 256, 1024};
  std::vector<whatif::Trace> schedules;
  for (int workers : worker_counts) {
    whatif::DataParallelSchedule cfg;
    cfg.worker_compute_seconds.assign(static_cast<std::size_t>(workers), compute);
    cfg.gradient_bytes = grad_bytes;
    cfg.link_bandwidth = 56e9;
    schedules.push_back(whatif::data_parallel_step_trace(cfg));
  }

  constexpr double kMaxRelError = 1e-12;
  bool exact = true;
  const auto accel = hw::AcceleratorConfig::v100_like();
  for (double sigma : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    for (std::size_t c = 0; c < worker_counts.size(); ++c) {
      const int workers = worker_counts[c];
      whatif::Trace& schedule = schedules[c];
      std::mt19937 rng(1234);  // fixed seed: deterministic bench output
      std::lognormal_distribution<double> jitter(-sigma * sigma / 2.0, sigma);

      double total = 0;
      const int trials = 3;
      for (int trial = 0; trial < trials; ++trial) {
        for (int i = 0; i < workers; ++i)
          schedule.ops[static_cast<std::size_t>(i)].end_seconds =
              compute * (sigma > 0 ? jitter(rng) : 1.0);
        total += whatif::resimulate(schedule).makespan_seconds;
      }
      const double step = total / trials;

      plan::AllReduceModel net;
      net.hop_latency = 0;
      const double ideal = compute + plan::ring_allreduce_seconds(net, grad_bytes, workers);
      if (sigma == 0 && std::abs(step - ideal) > kMaxRelError * ideal) exact = false;
      const double steps_per_epoch =
          inputs.samples_per_epoch / (inputs.subbatch * workers);
      table.add_row({util::format_sig(sigma, 2), std::to_string(workers),
                     util::format_sig(step, 4),
                     util::format_sig(step / ideal, 4) + "x",
                     util::format_sig(steps_per_epoch * step / 86400.0, 3),
                     util::format_percent(inputs.flops_per_step /
                                          (step * accel.peak_flops))});
    }
    table.add_separator();
  }
  bench::print_with_csv(table);

  std::cout << "\nReading: at sigma = 0.1 (10% per-step compute jitter), 1024\n"
               "synchronous workers run ~1.3-1.4x slower than the analytic\n"
               "model predicts — a tax the paper's asynchronous-SGD citations\n"
               "(Hogwild et al.) exist to dodge. The jitter-free rows confirm\n"
               "the simulator reproduces the analytic step times exactly.\n";
  if (!exact) {
    std::cerr << "FAIL: a jitter-free mean step misses the analytic step by more "
                 "than 1e-12 relative\n";
    return 1;
  }
  return 0;
}
