// Cluster schedule tests: the §6 schedules (src/whatif/cluster.h) replayed
// by whatif::resimulate agree exactly with the analytic parallelism
// models, the independent verification layer for the §6 results. The
// replay engine itself is covered by test_whatif.cpp.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/plan/allreduce.h"
#include "src/plan/layer_parallel.h"
#include "src/whatif/cluster.h"
#include "src/whatif/resim.h"

namespace gf::whatif {
namespace {

double makespan(const Trace& schedule) { return resimulate(schedule).makespan_seconds; }

TEST(RingAllreduceSim, MatchesAnalyticExactly) {
  for (int n : {2, 4, 8, 64}) {
    const double bytes = 95.2e9;
    const double result = makespan(ring_allreduce_trace(n, bytes, 56e9));
    plan::AllReduceModel m;
    m.hop_latency = 0;
    EXPECT_NEAR(result, plan::ring_allreduce_seconds(m, bytes, n), 1e-9 * result) << n;
  }
}

TEST(RingAllreduceSim, LatencyTermMatches) {
  const double result = makespan(ring_allreduce_trace(8, 1e9, 56e9, 1e-4));
  plan::AllReduceModel m;
  m.hop_latency = 1e-4;
  EXPECT_NEAR(result, plan::ring_allreduce_seconds(m, 1e9, 8), 1e-12);
}

TEST(DataParallelSim, HomogeneousWorkersMatchAnalyticStep) {
  DataParallelSchedule cfg;
  cfg.worker_compute_seconds.assign(16, 17.2);
  cfg.gradient_bytes = 95.2e9;
  cfg.link_bandwidth = 56e9;
  const double result = makespan(data_parallel_step_trace(cfg));
  plan::AllReduceModel m;
  m.hop_latency = 0;
  const double analytic = 17.2 + plan::ring_allreduce_seconds(m, cfg.gradient_bytes, 16);
  EXPECT_NEAR(result, analytic, 1e-9 * analytic);
}

TEST(DataParallelSim, OneStragglerDelaysTheWholeStep) {
  DataParallelSchedule cfg;
  cfg.worker_compute_seconds.assign(32, 10.0);
  cfg.worker_compute_seconds[7] = 14.0;  // 40% slow worker
  cfg.gradient_bytes = 8e9;
  const double slow = makespan(data_parallel_step_trace(cfg));
  cfg.worker_compute_seconds[7] = 10.0;
  const double fast = makespan(data_parallel_step_trace(cfg));
  // Synchronous SGD pays (nearly) the full straggler delay.
  EXPECT_GT(slow - fast, 3.5);
}

TEST(DataParallelSim, ComputeOpsLeadInWorkerOrder) {
  // Callers rewrite ops [0, N) to redraw per-worker compute times, and the
  // op types match what from_report gives a measured data-parallel step.
  DataParallelSchedule cfg;
  cfg.worker_compute_seconds = {1.0, 2.0, 3.0};
  cfg.gradient_bytes = 3e9;
  Trace trace = data_parallel_step_trace(cfg);
  ASSERT_EQ(trace.ops.size(), 3u + 2u * 2u * 3u);
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    EXPECT_EQ(trace.ops[i].type, i < 3 ? "compute" : "comm") << i;
    EXPECT_EQ(trace.ops[i].start_seconds, 0) << i;
  }
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(trace.ops[i].duration(), cfg.worker_compute_seconds[i]) << i;
  const double before = makespan(trace);
  trace.ops[0].end_seconds = 7.0;  // worker 0 now straggles past worker 2
  EXPECT_DOUBLE_EQ(makespan(trace), before + 4.0);
}

TEST(ClusterSchedule, RejectsBadConfigs) {
  EXPECT_THROW(ring_allreduce_trace(0, 1e9, 56e9), std::invalid_argument);
  EXPECT_THROW(ring_allreduce_trace(4, -1.0, 56e9), std::invalid_argument);
  EXPECT_THROW(ring_allreduce_trace(4, 1e9, 0.0), std::invalid_argument);
  EXPECT_THROW(ring_allreduce_trace(4, 1e9, 56e9, -1.0), std::invalid_argument);
  EXPECT_TRUE(ring_allreduce_trace(1, 1e9, 56e9).ops.empty());

  DataParallelSchedule dp;
  EXPECT_THROW(data_parallel_step_trace(dp), std::invalid_argument);
  dp.worker_compute_seconds = {1.0, -1.0};
  EXPECT_THROW(data_parallel_step_trace(dp), std::invalid_argument);

  PipelineSchedule pipe;
  EXPECT_THROW(pipeline_trace(pipe), std::invalid_argument);
  pipe.stage_seconds = {1.0, 1.0};
  pipe.microbatches = 0;
  EXPECT_THROW(pipeline_trace(pipe), std::invalid_argument);
}

TEST(PipelineSim, FusedModeMatchesAnalyticBubbleFormula) {
  for (int u : {1, 2, 4, 16}) {
    PipelineSchedule cfg;
    cfg.stage_seconds.assign(4, 5.0);  // 20s single-device step, 4 stages
    cfg.microbatches = u;
    const double result = makespan(pipeline_trace(cfg));
    plan::PipelineModel analytic;
    analytic.stages = 4;
    analytic.microbatches = u;
    const auto expected = plan::layer_parallel_step(
        20.0, analytic, {{"a", 1, false}, {"b", 1, false}, {"c", 1, false},
                         {"d", 1, false}});
    EXPECT_NEAR(result, expected.step_seconds, 1e-9) << u;
  }
}

TEST(PipelineSim, SeparateBackwardWaveMatchesFusedAbstraction) {
  // A non-obvious result the simulation establishes: with balanced stages,
  // scheduling forward (1/3) and backward (2/3) waves separately yields
  // the SAME makespan as the fused (u+k-1)/(k*u) abstraction — the
  // backward fill bubble abuts the forward drain bubble exactly, so the
  // analytic model used by the Table 5 plan is tight, not optimistic.
  PipelineSchedule cfg;
  cfg.stage_seconds.assign(4, 5.0);
  cfg.microbatches = 2;
  const double fused = makespan(pipeline_trace(cfg));
  cfg.separate_backward = true;
  const double separate = makespan(pipeline_trace(cfg));
  EXPECT_NEAR(separate, fused, 1e-9);
  // With many microbatches both approach the ideal 5s + epsilon.
  cfg.microbatches = 64;
  EXPECT_LT(makespan(pipeline_trace(cfg)), 6.0);
}

TEST(PipelineSim, SeparateBackwardRunsGPipeOrder) {
  // Each stage runs all its forwards, then all its backwards, in
  // microbatch order. Behind the slow stage 1, stages 2 and 3 receive a
  // forward only every 1/3 s, and between two arrivals an earlier
  // microbatch's backward is ready. Replay keeps that backward waiting
  // until the stage's last forward has run: 8.75 s. A scheduler that lets
  // any ready task run, lowest id first (the discrete-event engine this
  // replay replaced), runs it in the gap and finishes in 8.25 s.
  PipelineSchedule cfg;
  cfg.stage_seconds = {2.0, 8.0, 2.0, 2.0};
  cfg.microbatches = 8;
  cfg.separate_backward = true;
  const Trace trace = pipeline_trace(cfg);
  EXPECT_NEAR(makespan(trace), 8.75, 1e-12);
  // Stage 0's lane holds f:s0:m0..m7, then b:s0:m0..m7, in creation order.
  std::vector<std::string> stage0;
  for (const TraceOp& op : trace.ops)
    if (op.worker == 0) stage0.push_back(op.name);
  ASSERT_EQ(stage0.size(), 16u);
  EXPECT_EQ(stage0[7], "f:s0:m7");
  EXPECT_EQ(stage0[8], "b:s0:m0");
}

TEST(PipelineSim, ImbalancedStagesGateThroughput) {
  PipelineSchedule cfg;
  cfg.stage_seconds = {2.0, 8.0, 2.0, 2.0};  // stage 1 dominates
  cfg.microbatches = 32;
  const double result = makespan(pipeline_trace(cfg));
  // Throughput converges to the slowest stage's per-microbatch time.
  EXPECT_GT(result, 8.0 * 0.95);
  EXPECT_LT(result, 8.0 * 1.3);
}

TEST(PipelineSim, BoundaryTransfersAddLatency) {
  PipelineSchedule cfg;
  cfg.stage_seconds.assign(4, 4.0);
  cfg.microbatches = 2;
  const double dry = makespan(pipeline_trace(cfg));
  cfg.boundary_bytes = 5.6e9;  // 0.1 s per hop at 56 GB/s
  const double wet = makespan(pipeline_trace(cfg));
  EXPECT_GT(wet, dry + 0.2);
}

TEST(StragglerSweep, SlowdownGrowsWithWorkerCountUnderJitter) {
  // E[max of N] grows with N: the synchronous-SGD scaling tax.
  std::mt19937 rng(11);
  auto step_with_jitter = [&](int n) {
    std::lognormal_distribution<double> dist(0.0, 0.1);
    DataParallelSchedule cfg;
    cfg.gradient_bytes = 0;  // isolate the compute synchronization effect
    cfg.link_bandwidth = 56e9;
    for (int i = 0; i < n; ++i) cfg.worker_compute_seconds.push_back(10.0 * dist(rng));
    return makespan(data_parallel_step_trace(cfg));
  };
  const double t8 = step_with_jitter(8);
  const double t512 = step_with_jitter(512);
  EXPECT_GT(t512, t8);
}

}  // namespace
}  // namespace gf::whatif
