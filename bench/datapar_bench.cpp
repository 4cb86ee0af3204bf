// Data-parallel execution benchmark: the shared-memory ring allreduce
// (src/runtime/datapar.h) measured against the §6 analytic model
// (src/plan/allreduce.h) on the toy word LM.
//
// Three hard gates (nonzero exit on failure):
//
//   1. Bitwise worker-count independence: the step-loss bit pattern of
//      every step must be identical for N ∈ {1, 2, 4, 8} (smoke: {1, 2, 4})
//      — the runner's fixed-tree reduction contract, end to end.
//   2. Analytic cross-check: total measured ring time must lie within
//      kCommTolerance of the Patarasuk–Yuan prediction summed per bucket,
//      with α calibrated from a measured N-thread barrier crossing and β
//      from a measured large-copy bandwidth, derated by min(N, cores)/N:
//      a shared-memory ring on C cores can only move min(N, C) chunks
//      concurrently, so on an oversubscribed box the copies serialize and
//      the effective per-link bandwidth drops accordingly. Payloads are
//      sized MB-scale so this β term dominates and scheduler noise in the
//      barrier waits (tens of µs per crossing when workers oversubscribe
//      cores) stays second-order. The tolerance is wide but two-sided: it
//      catches both a broken ring that stops moving bytes and pathological
//      serialization beyond what core count explains.
//   3. Stragglers degrade no worse than the analytic bound: with seeded
//      lognormal delays injected, step time must stay within
//      kStragglerSlack of (clean step + max over workers of its summed
//      delays) — synchronous SGD pays the max, not the mean (§6.3).
//
// Also reported (not gated — wall-clock scaling flakes on shared CI
// boxes): per-bucket achieved ring bandwidth and the measured-vs-predicted
// ratio per worker count in BENCH_datapar.json.
//
// Flags: --smoke (smaller model, fewer reps — CI), --threads N (pool
// threads per worker), --out PATH.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/models/models.h"
#include "src/plan/allreduce.h"
#include "src/runtime/datapar.h"
#include "src/util/format.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace {

using namespace gf;

constexpr int kGradShards = 8;
constexpr double kCommTolerance = 8.0;   // measured/predicted must be in [1/8, 8]
constexpr double kStragglerSlack = 1.6;  // measured <= slack * (clean + bound) + 25ms

std::uint32_t bits_of(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

struct BucketRow {
  std::size_t payload_bytes = 0;
  double ring_seconds = 0;
  double bandwidth = 0;
};

struct RunResult {
  int workers = 0;
  double step_seconds = 0;  // best-of-reps wall time
  double comm_seconds = 0;  // per-bucket ring time summed, at the best step
  double predicted_comm_seconds = 0;
  double barrier_seconds = 0;
  std::vector<std::uint32_t> loss_bits;  // one per step, priming included
  std::vector<BucketRow> buckets;
};

RunResult run_config(const models::ModelSpec& spec, const sym::Bindings& bind,
                     int workers, std::size_t threads, std::size_t bucket_bytes,
                     int reps, double straggler_sigma,
                     double straggler_scale,
                     double* predicted_delay_bound = nullptr) {
  rt::DataParallelOptions opt;
  opt.workers = workers;
  opt.grad_shards = kGradShards;
  opt.bucket_bytes = bucket_bytes;
  opt.threads_per_worker = threads;
  opt.straggler_sigma = straggler_sigma;
  opt.straggler_scale_seconds = straggler_scale;
  rt::DataParallelRunner runner(*spec.graph, spec.loss, bind, opt);

  if (predicted_delay_bound != nullptr) {
    double bound = 0;
    for (int w = 0; w < workers; ++w) {
      double sum = 0;
      for (int m = 0; m < runner.micro_steps(); ++m) sum += runner.straggler_delay(w, m);
      bound = std::max(bound, sum);
    }
    *predicted_delay_bound = bound;
  }

  RunResult res;
  res.workers = workers;
  res.step_seconds = 1e300;
  for (int s = 0; s < 1 + reps; ++s) {
    const rt::DataParallelStepResult step = runner.step();
    res.loss_bits.push_back(bits_of(step.loss));
    if (s == 0) continue;  // priming step: cold arenas — not timed
    res.step_seconds = std::min(res.step_seconds, step.wall_seconds);
    // Per-bucket best across steps: the ring does identical work every
    // step, so the minimum is the cleanest observation of its data
    // movement and the standard way to shed scheduler noise.
    if (res.buckets.empty()) res.buckets.resize(step.buckets.size());
    for (std::size_t b = 0; b < step.buckets.size(); ++b) {
      const rt::BucketStats& bs = step.buckets[b];
      BucketRow& row = res.buckets[b];
      if (row.payload_bytes == 0 || bs.ring_seconds() < row.ring_seconds)
        row = {bs.payload_bytes, bs.ring_seconds(), bs.bandwidth(workers)};
    }
  }
  for (const BucketRow& b : res.buckets) res.comm_seconds += b.ring_seconds;
  return res;
}

void write_json(const std::string& path, std::size_t threads, double copy_bandwidth,
                const std::vector<RunResult>& runs, bool bits_ok, bool comm_ok,
                double straggler_clean, double straggler_bound, double straggler_measured,
                bool straggler_ok) {
  util::Json workers = util::Json::array();
  for (const RunResult& r : runs) {
    util::Json buckets = util::Json::array();
    for (const BucketRow& b : r.buckets)
      buckets.push_back(util::Json::object({{"payload_bytes", b.payload_bytes},
                                            {"ring_seconds", b.ring_seconds},
                                            {"bandwidth_bytes_per_s", b.bandwidth}}));
    workers.push_back(util::Json::object(
        {{"workers", r.workers}, {"step_seconds", r.step_seconds},
         {"comm_seconds", r.comm_seconds},
         {"predicted_comm_seconds", r.predicted_comm_seconds},
         {"comm_ratio", r.predicted_comm_seconds > 0
                            ? r.comm_seconds / r.predicted_comm_seconds
                            : 0.0},
         {"barrier_seconds", r.barrier_seconds}, {"buckets", buckets}}));
  }
  const util::Json straggler = util::Json::object(
      {{"clean_step_seconds", straggler_clean},
       {"predicted_extra_seconds", straggler_bound},
       {"measured_step_seconds", straggler_measured}, {"slack", kStragglerSlack},
       {"within_bound", straggler_ok}});
  const util::Json doc = util::Json::object(
      {{"threads_per_worker", threads}, {"grad_shards", kGradShards},
       {"copy_bandwidth_bytes_per_s", copy_bandwidth}, {"comm_tolerance", kCommTolerance},
       {"loss_bitwise_match", bits_ok}, {"comm_within_tolerance", comm_ok},
       {"workers", workers}, {"straggler", straggler}});
  std::ofstream(path) << doc.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = 2;
  std::string out_path = "BENCH_datapar.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: datapar_bench [--smoke] [--threads N] [--out PATH]\n";
      return 2;
    }
  }

  // MB-scale gradients on purpose: the comm gate compares measured ring time
  // to an α-β prediction, and the bytes-moved β term is only trustworthy when
  // it dominates the per-crossing scheduler noise absorbed by the barriers.
  models::WordLmConfig cfg;
  cfg.vocab = smoke ? 2000 : 4000;
  cfg.seq_length = smoke ? 6 : 10;
  cfg.layers = 2;
  const models::ModelSpec spec = models::build_word_lm(cfg);
  const double hidden = smoke ? 128.0 : 256.0;
  const double global_batch = smoke ? 16.0 : 32.0;  // kGradShards | batch
  const sym::Bindings bind = spec.bind(hidden, global_batch);
  const std::size_t bucket_bytes = std::size_t{smoke ? 2u : 4u} << 20;
  const int reps = smoke ? 2 : 4;
  const std::vector<int> worker_counts = smoke ? std::vector<int>{1, 2, 4}
                                               : std::vector<int>{1, 2, 4, 8};

  std::cout << "== shared-memory ring allreduce vs the analytic model (word_lm, "
            << "S=" << kGradShards << ", threads/worker=" << threads << ") ==\n";
  const double copy_bw = rt::measure_copy_bandwidth();
  std::cout << "calibrated copy bandwidth: "
            << util::format_bytes(copy_bw) << "/s\n\n";

  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<RunResult> runs;
  for (int n : worker_counts) {
    RunResult r = run_config(spec, bind, n, threads, bucket_bytes, reps, 0, 0);
    if (n > 1) {
      r.barrier_seconds = rt::measure_barrier_seconds(n);
      // The runner's ring: α is one barrier crossing (its stand-in for hop
      // latency), β the measured copy bandwidth derated by min(N, cores)/N —
      // a shared-memory ring has min(N, cores) links that can actually move
      // bytes at once, so with workers oversubscribing cores the per-step
      // chunk copies serialize and each logical link runs N/min(N, cores)
      // times slower.
      plan::AllReduceModel model;
      const double links = std::min<double>(n, hw_cores);
      model.link_bandwidth = copy_bw * links / n;
      model.hop_latency = r.barrier_seconds;
      for (const BucketRow& b : r.buckets)
        r.predicted_comm_seconds +=
            plan::ring_allreduce_cost(model, static_cast<double>(b.payload_bytes), n)
                .seconds();
    }
    runs.push_back(std::move(r));
  }

  // Gate 1: every worker count produced the same loss bits at every step.
  bool bits_ok = true;
  for (const RunResult& r : runs)
    if (r.loss_bits != runs.front().loss_bits) bits_ok = false;

  // Gate 2: measured ring time within tolerance of the calibrated model.
  bool comm_ok = true;
  for (const RunResult& r : runs) {
    if (r.workers == 1 || r.predicted_comm_seconds <= 0) continue;
    const double ratio = r.comm_seconds / r.predicted_comm_seconds;
    if (ratio > kCommTolerance || ratio < 1.0 / kCommTolerance) comm_ok = false;
  }

  // Gate 3: stragglers cost at most the analytic max-over-workers bound
  // (with slack): run the largest worker count with seeded jitter.
  const int max_n = worker_counts.back();
  double delay_bound = 0;
  const double straggler_scale = smoke ? 5e-3 : 1e-2;
  const RunResult jittered =
      run_config(spec, bind, max_n, threads, bucket_bytes, reps, /*straggler_sigma=*/0.2,
                 straggler_scale, &delay_bound);
  const double clean_step = runs.back().step_seconds;
  const bool straggler_ok =
      jittered.step_seconds <= kStragglerSlack * (clean_step + delay_bound) + 0.025;
  const bool straggler_bits_ok = jittered.loss_bits == runs.front().loss_bits;

  util::Table table({"workers", "step s", "comm s", "PY predicted s", "ratio", "ring GB/s",
                     "speedup"});
  for (const RunResult& r : runs) {
    double bw = 0;
    for (const BucketRow& b : r.buckets) bw = std::max(bw, b.bandwidth);
    table.add_row({std::to_string(r.workers), util::format_duration(r.step_seconds, 3),
                   util::format_duration(r.comm_seconds, 3),
                   r.workers > 1 ? util::format_duration(r.predicted_comm_seconds, 3)
                                 : std::string("-"),
                   r.predicted_comm_seconds > 0
                       ? util::format_sig(r.comm_seconds / r.predicted_comm_seconds, 3)
                       : std::string("-"),
                   util::format_sig(bw / 1e9, 3),
                   util::format_sig(runs.front().step_seconds / r.step_seconds, 3)});
  }
  table.print(std::cout);
  std::cout << "\nstraggler run (N=" << max_n << ", sigma=0.2): clean "
            << util::format_duration(clean_step, 3) << " + bound "
            << util::format_duration(delay_bound, 3) << " -> measured "
            << util::format_duration(jittered.step_seconds, 3)
            << (straggler_ok ? " (within bound)" : " (EXCEEDS bound)") << "\n";

  write_json(out_path, threads, copy_bw, runs, bits_ok && straggler_bits_ok, comm_ok,
             clean_step, delay_bound, jittered.step_seconds, straggler_ok);
  std::cout << "wrote " << out_path << "\n";

  if (!bits_ok || !straggler_bits_ok) {
    std::cerr << "datapar_bench: loss bits differ across worker counts FAILED\n";
    return 1;
  }
  if (!comm_ok) {
    std::cerr << "datapar_bench: measured ring time outside " << kCommTolerance
              << "x of the calibrated Patarasuk-Yuan prediction FAILED\n";
    return 1;
  }
  if (!straggler_ok) {
    std::cerr << "datapar_bench: straggler degradation exceeds the analytic bound FAILED\n";
    return 1;
  }
  return 0;
}
