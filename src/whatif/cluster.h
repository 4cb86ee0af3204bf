// Cluster schedules as what-if traces: the paper's §6 parallelism patterns
// built as explicit task graphs that whatif::resimulate replays.
//
// The §6 step times (ring allreduce, synchronous data-parallel SGD,
// pipelined layer parallelism) are closed forms. These builders are their
// independent check: each task becomes one TraceOp whose lane (`worker`)
// is the device or link it occupies. Device tasks have type "compute";
// link tasks have type "comm", the type from_report gives the
// data-parallel runner's ring events, so measured and modelled traces
// share one vocabulary. Replaying a schedule with the default
// (kRecorded) placement yields its makespan, which must match the
// analytic model exactly where that model is exact; the same replay then
// answers what the closed forms cannot (stragglers, jitter, skewed
// stages).
//
// Lane rule: every op is recorded at t = 0 (start_seconds = 0,
// end_seconds = its duration), so recorded replay runs each lane's ops in
// creation order, and an op starts once its lane is free and all its
// dependencies have finished. Creation order is therefore part of each
// schedule's meaning. Deps are listed in ascending order. Every builder
// throws std::invalid_argument on a task whose duration would be negative
// or undefined.
#pragma once

#include <vector>

#include "src/whatif/trace.h"

namespace gf::whatif {

/// Bandwidth-optimal ring allreduce: N unidirectional links; 2(N-1)
/// phases each moving bytes/N per link. The replayed makespan equals the
/// analytic 2(N-1)/N * bytes/bw + 2(N-1)*latency exactly, PROVIDED every
/// device's payload is ready at time zero. One worker gives an empty
/// trace. Throws std::invalid_argument on workers < 1, negative bytes or
/// non-positive bandwidth.
Trace ring_allreduce_trace(int workers, double bytes, double link_bandwidth,
                           double hop_latency = 0.0);

/// One synchronous-SGD data-parallel step: per-worker compute (possibly
/// heterogeneous: the straggler knob the closed forms cannot express),
/// then ring allreduce of the gradients. The makespan is the step time.
struct DataParallelSchedule {
  std::vector<double> worker_compute_seconds;  ///< one entry per worker
  double gradient_bytes = 0;
  double link_bandwidth = 56e9;
  double hop_latency = 0.0;
};
/// Ops [0, N) are the workers' compute tasks, in worker order, so a caller
/// may overwrite their durations and replay again. Throws
/// std::invalid_argument when there is no worker.
Trace data_parallel_step_trace(const DataParallelSchedule& config);

/// Microbatched pipeline over k stages (layer parallelism, §6.2.2).
/// Fused mode runs one fwd+bwd task per microbatch per stage: the
/// abstraction behind the analytic (u+k-1)/(k*u) model, matched exactly.
/// `separate_backward` schedules forward (1/3 of the time) and backward
/// (2/3) waves individually, backward flowing in reverse, which exposes
/// the larger bubble real pipelines pay. Each stage runs all its forwards,
/// then all its backwards, in microbatch order: GPipe's order. On unequal
/// stages no backward overtakes a forward that is still waiting.
struct PipelineSchedule {
  std::vector<double> stage_seconds;  ///< full-batch fwd+bwd time per stage
  int microbatches = 2;
  bool separate_backward = false;
  double boundary_bytes = 0.0;  ///< activation transfer per microbatch
  double link_bandwidth = 56e9;
};
/// Throws std::invalid_argument on no stages or fewer than 1 microbatch.
Trace pipeline_trace(const PipelineSchedule& config);

}  // namespace gf::whatif
