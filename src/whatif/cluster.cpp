#include "src/whatif/cluster.h"

#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace gf::whatif {
namespace {

constexpr const char* kCompute = "compute";
constexpr const char* kComm = "comm";

/// Appends one task on `lane`, recorded at t = 0; returns its op index.
/// `deps` must be ascending.
std::size_t add_task(Trace& trace, std::string name, const char* type, int lane,
                     double seconds, std::vector<std::size_t> deps = {}) {
  if (!(seconds >= 0))
    throw std::invalid_argument("cluster schedule: task '" + name +
                                "' has a negative or undefined duration");
  TraceOp op;
  op.name = std::move(name);
  op.type = type;
  op.worker = lane;
  op.end_seconds = seconds;
  op.deps = std::move(deps);
  trace.ops.push_back(std::move(op));
  return trace.ops.size() - 1;
}

/// The 2(n-1) phases of a ring over links [first_link, first_link + n)
/// (reduce-scatter then allgather). In phase p, link i forwards the chunk
/// it received in phase p-1 on link i-1; `local[i]`, when given, is the
/// task that makes device i's own gradient ready.
void add_ring_phases(Trace& trace, int n, int first_link, double chunk_seconds,
                     const std::string& prefix, std::span<const std::size_t> local) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  trace.ops.reserve(trace.ops.size() + 2 * static_cast<std::size_t>(n - 1) * n);
  std::vector<std::size_t> previous(static_cast<std::size_t>(n), kNone);
  for (int phase = 0; phase < 2 * (n - 1); ++phase) {
    std::vector<std::size_t> current(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      std::vector<std::size_t> deps;
      if (!local.empty()) deps.push_back(local[static_cast<std::size_t>(i)]);
      const std::size_t upstream = previous[static_cast<std::size_t>((i + n - 1) % n)];
      if (upstream != kNone) deps.push_back(upstream);
      current[static_cast<std::size_t>(i)] =
          add_task(trace, prefix + "p" + std::to_string(phase) + ":l" + std::to_string(i),
                   kComm, first_link + i, chunk_seconds, std::move(deps));
    }
    previous = std::move(current);
  }
}

}  // namespace

Trace ring_allreduce_trace(int workers, double bytes, double link_bandwidth,
                           double hop_latency) {
  if (workers < 1) throw std::invalid_argument("workers must be >= 1");
  if (bytes < 0 || link_bandwidth <= 0)
    throw std::invalid_argument("bad payload or bandwidth");
  Trace trace;
  if (workers == 1) return trace;
  const double chunk_seconds = (bytes / workers) / link_bandwidth + hop_latency;
  add_ring_phases(trace, workers, 0, chunk_seconds, "", {});
  return trace;
}

Trace data_parallel_step_trace(const DataParallelSchedule& config) {
  const int n = static_cast<int>(config.worker_compute_seconds.size());
  if (n < 1) throw std::invalid_argument("need at least one worker");
  // Lanes: device i is lane i, link i is lane n + i.
  Trace trace;
  std::vector<std::size_t> compute(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    compute[static_cast<std::size_t>(i)] =
        add_task(trace, "compute" + std::to_string(i), kCompute, i,
                 config.worker_compute_seconds[static_cast<std::size_t>(i)]);
  if (n == 1) return trace;

  // A chunk leaving device i requires i's local gradient (compute done)
  // and, after the first phase, the chunk received from upstream.
  const double chunk_seconds =
      (config.gradient_bytes / n) / config.link_bandwidth + config.hop_latency;
  add_ring_phases(trace, n, n, chunk_seconds, "ar:", compute);
  return trace;
}

Trace pipeline_trace(const PipelineSchedule& config) {
  const int k = static_cast<int>(config.stage_seconds.size());
  if (k < 1) throw std::invalid_argument("need at least one stage");
  if (config.microbatches < 1) throw std::invalid_argument("need >= 1 microbatch");
  const int u = config.microbatches;
  const auto stage_seconds = [&](int s) {
    return config.stage_seconds[static_cast<std::size_t>(s)];
  };
  const auto tag = [](const char* what, int s, int m) {
    return what + std::to_string(s) + ":m" + std::to_string(m);
  };

  // Lanes: stage s is lane s, the link from stage s to s+1 is lane k + s.
  Trace trace;
  if (!config.separate_backward) {
    // Fused fwd+bwd microbatch tasks flowing forward: the analytic model.
    const double xfer =
        config.boundary_bytes > 0 ? config.boundary_bytes / config.link_bandwidth : 0.0;
    std::vector<std::size_t> prev_stage_done(static_cast<std::size_t>(u));
    for (int s = 0; s < k; ++s) {
      const double dur = stage_seconds(s) / u;
      for (int m = 0; m < u; ++m) {
        std::size_t& prev = prev_stage_done[static_cast<std::size_t>(m)];
        std::vector<std::size_t> deps;
        if (s > 0) {
          deps.push_back(xfer > 0 ? add_task(trace, tag("x:s", s - 1, m), kComm,
                                             k + s - 1, xfer, {prev})
                                  : prev);
        }
        prev = add_task(trace, tag("s", s, m), kCompute, s, dur, std::move(deps));
      }
    }
    return trace;
  }

  // Separate waves: forward (1/3 of the fused time) ripples down, backward
  // (2/3) ripples back up; backward for microbatch m at stage s needs the
  // forward at s and the backward from s+1. Every forward is created
  // before every backward, so each stage replays GPipe's order.
  std::vector<std::vector<std::size_t>> fwd(
      static_cast<std::size_t>(k), std::vector<std::size_t>(static_cast<std::size_t>(u)));
  for (int s = 0; s < k; ++s) {
    const double dur = stage_seconds(s) / (3.0 * u);
    for (int m = 0; m < u; ++m) {
      std::vector<std::size_t> deps;
      if (s > 0) deps.push_back(fwd[static_cast<std::size_t>(s - 1)][static_cast<std::size_t>(m)]);
      fwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
          add_task(trace, tag("f:s", s, m), kCompute, s, dur, std::move(deps));
    }
  }
  std::vector<std::size_t> bwd_above(static_cast<std::size_t>(u));
  for (int s = k - 1; s >= 0; --s) {
    const double dur = 2.0 * stage_seconds(s) / (3.0 * u);
    for (int m = 0; m < u; ++m) {
      std::size_t& above = bwd_above[static_cast<std::size_t>(m)];
      std::vector<std::size_t> deps{fwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)]};
      if (s + 1 < k) deps.push_back(above);
      above = add_task(trace, tag("b:s", s, m), kCompute, s, dur, std::move(deps));
    }
  }
  return trace;
}

}  // namespace gf::whatif
