#include "src/whatif/resim.h"

#include <algorithm>
#include <map>
#include <queue>
#include <stdexcept>
#include <utility>

namespace gf::whatif {
namespace {

/// Forward adjacency (successor lists) from the trace's dep lists.
std::vector<std::vector<std::size_t>> successors_of(const Trace& trace) {
  std::vector<std::vector<std::size_t>> succ(trace.ops.size());
  for (std::size_t i = 0; i < trace.ops.size(); ++i)
    for (std::size_t d : trace.ops[i].deps) succ[d].push_back(i);
  return succ;
}

/// Longest dependency chain by simulated duration; fills result.critical_*.
void compute_critical_path(const Trace& trace, const std::vector<double>& durations,
                           ResimResult& result) {
  const std::size_t n = trace.ops.size();
  std::vector<double> longest(n, 0);
  std::vector<std::size_t> via(n, n);  // n = chain starts here
  std::size_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double through = 0;
    for (std::size_t d : trace.ops[i].deps) {
      if (longest[d] > through) {
        through = longest[d];
        via[i] = d;
      }
    }
    longest[i] = through + durations[i];
    if (longest[i] > longest[best]) best = i;
  }
  if (n == 0) return;
  result.critical_path_seconds = longest[best];
  for (std::size_t i = best; i != n; i = via[i]) result.critical_path.push_back(i);
  std::reverse(result.critical_path.begin(), result.critical_path.end());
}

/// Replay with recorded lanes and recorded intra-lane order. An op runs
/// when it reaches the head of its lane's queue and all deps finished.
/// Linear in ops + edges.
void simulate_recorded(const Trace& trace, const std::vector<double>& durations,
                       ResimResult& result) {
  const std::size_t n = trace.ops.size();
  const auto succ = successors_of(trace);

  // Lane queues ordered by recorded start (ties by op index, which is the
  // dispatch order the executor used).
  std::map<int, std::vector<std::size_t>> lanes;
  for (std::size_t i = 0; i < n; ++i) lanes[trace.ops[i].worker].push_back(i);
  for (auto& [worker, queue] : lanes)
    std::sort(queue.begin(), queue.end(), [&](std::size_t a, std::size_t b) {
      if (trace.ops[a].start_seconds != trace.ops[b].start_seconds)
        return trace.ops[a].start_seconds < trace.ops[b].start_seconds;
      return a < b;
    });

  std::vector<std::size_t> lane_of(n), pos_in_lane(n);
  std::vector<std::size_t> heads(lanes.size(), 0);
  std::vector<double> lane_free(lanes.size(), 0);
  std::vector<std::vector<std::size_t>*> queues;
  queues.reserve(lanes.size());
  for (auto& [worker, queue] : lanes) {
    for (std::size_t p = 0; p < queue.size(); ++p) {
      lane_of[queue[p]] = queues.size();
      pos_in_lane[queue[p]] = p;
    }
    queues.push_back(&queue);
  }

  std::vector<std::size_t> pending(n);
  std::vector<double> ready_at(n, 0);
  std::vector<char> scheduled(n, 0);
  for (std::size_t i = 0; i < n; ++i) pending[i] = trace.ops[i].deps.size();

  std::vector<std::size_t> runnable;  // deps done AND at lane head
  auto consider = [&](std::size_t i) {
    if (scheduled[i] == 0 && pending[i] == 0 &&
        heads[lane_of[i]] == pos_in_lane[i])
      runnable.push_back(i);
  };
  for (std::size_t l = 0; l < queues.size(); ++l)
    if (!queues[l]->empty()) consider(queues[l]->front());

  std::size_t done = 0;
  while (!runnable.empty()) {
    const std::size_t i = runnable.back();
    runnable.pop_back();
    const std::size_t l = lane_of[i];
    const double start = std::max(lane_free[l], ready_at[i]);
    const double end = start + durations[i];
    result.ops[i] = {start, end, trace.ops[i].worker};
    scheduled[i] = 1;
    ++done;
    lane_free[l] = end;
    ++heads[l];
    if (heads[l] < queues[l]->size()) consider((*queues[l])[heads[l]]);
    for (std::size_t s : succ[i]) {
      ready_at[s] = std::max(ready_at[s], end);
      if (--pending[s] == 0) consider(s);
    }
  }
  if (done != n)
    throw std::invalid_argument(
        "whatif resim: recorded lane order contradicts the dependency edges "
        "(trace was not produced by one profiled step)");
}

/// List scheduling onto `workers` identical lanes: whenever a lane is
/// free, the ready op with the lowest index starts on the lowest-numbered
/// free lane — the wavefront executor's dispatch policy.
void simulate_greedy(const Trace& trace, const std::vector<double>& durations,
                     int workers, ResimResult& result) {
  const std::size_t n = trace.ops.size();
  const auto succ = successors_of(trace);
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = trace.ops[i].deps.size();

  // Ready ops by ascending index; finish events by ascending time.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> ready;
  using Finish = std::pair<double, std::size_t>;  // (end time, op)
  std::priority_queue<Finish, std::vector<Finish>, std::greater<>> running;
  std::priority_queue<int, std::vector<int>, std::greater<>> idle;
  for (int w = 0; w < workers; ++w) idle.push(w);
  for (std::size_t i = 0; i < n; ++i)
    if (pending[i] == 0) ready.push(i);

  double now = 0;
  while (!ready.empty() || !running.empty()) {
    while (!ready.empty() && !idle.empty()) {
      const std::size_t i = ready.top();
      ready.pop();
      const int w = idle.top();
      idle.pop();
      const double end = now + durations[i];
      result.ops[i] = {now, end, w};
      running.emplace(end, i);
    }
    if (running.empty())
      throw std::invalid_argument("whatif resim: greedy simulation stalled");
    // Retire every op finishing at the next event time before dispatching
    // again, so the ready set is complete when lanes are handed out.
    now = running.top().first;
    while (!running.empty() && running.top().first == now) {
      const std::size_t i = running.top().second;
      running.pop();
      idle.push(result.ops[i].worker);
      for (std::size_t s : succ[i])
        if (--pending[s] == 0) ready.push(s);
    }
  }
}

}  // namespace

ResimResult resimulate(const Trace& trace, const ResimOptions& options) {
  validate_trace(trace);
  if (options.overhead_seconds_per_op < 0)
    throw std::invalid_argument("whatif resim: negative per-op overhead");

  const std::size_t n = trace.ops.size();
  ResimResult result;
  result.ops.resize(n);
  std::vector<double> durations(n);
  for (std::size_t i = 0; i < n; ++i) {
    durations[i] = trace.ops[i].duration() + options.overhead_seconds_per_op;
    result.busy_seconds += durations[i];
  }
  compute_critical_path(trace, durations, result);
  if (n == 0) return result;

  if (options.placement == Placement::kRecorded) {
    simulate_recorded(trace, durations, result);
  } else {
    const int workers = options.workers > 0 ? options.workers : trace.num_workers();
    simulate_greedy(trace, durations, workers, result);
  }
  for (const SimulatedOp& op : result.ops)
    result.makespan_seconds = std::max(result.makespan_seconds, op.end_seconds);
  return result;
}

double calibrate_overhead(const Trace& trace, Placement placement) {
  if (trace.ops.empty()) return 0;
  const double span = trace.span_seconds();
  ResimOptions options;
  options.placement = placement;
  const double base = resimulate(trace, options).makespan_seconds;
  if (base >= span) return 0;

  // makespan(overhead) is monotone nondecreasing: every duration grows by
  // the surcharge, so no finish time can move earlier. At overhead = span
  // the single longest chain alone exceeds span; bisect inside [0, span].
  double lo = 0;
  double hi = span;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    options.overhead_seconds_per_op = mid;
    if (resimulate(trace, options).makespan_seconds < span)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace gf::whatif
