#include "src/whatif/resim.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace gf::whatif {
namespace {

/// Successor lists in CSR form: op i's successors are of(i), ascending.
struct Successors {
  std::vector<std::size_t> offsets;  ///< n + 1 entries
  std::vector<std::size_t> targets;

  std::span<const std::size_t> of(std::size_t i) const {
    return {targets.data() + offsets[i], targets.data() + offsets[i + 1]};
  }
};

Successors successors_of(const Trace& trace) {
  const std::size_t n = trace.ops.size();
  Successors succ;
  // Count each op's successors, turn the counts into range ends, then
  // fill every range back to front: visiting ops in descending index
  // leaves each range ascending and each offset at its range's start.
  succ.offsets.assign(n + 1, 0);
  for (const TraceOp& op : trace.ops)
    for (std::size_t d : op.deps) ++succ.offsets[d];
  for (std::size_t i = 1; i <= n; ++i) succ.offsets[i] += succ.offsets[i - 1];
  succ.targets.resize(succ.offsets[n]);
  for (std::size_t i = n; i-- > 0;)
    for (std::size_t d : trace.ops[i].deps) succ.targets[--succ.offsets[d]] = i;
  return succ;
}

/// Recorded lanes with dense ids, numbered in order of first appearance
/// (replay does not depend on lane order): lane l holds
/// ops[begin[l] .. begin[l + 1]) in recorded order, by start with ties by
/// op index (the executor's dispatch order).
struct Lanes {
  std::vector<std::size_t> begin;  ///< lane count + 1 entries
  std::vector<std::size_t> ops;
  std::vector<std::size_t> lane_of;  ///< indexed by op
};

Lanes lanes_of(const Trace& trace) {
  const std::size_t n = trace.ops.size();
  Lanes lanes;
  lanes.lane_of.resize(n);
  std::unordered_map<int, std::size_t> lane_id;
  for (std::size_t i = 0; i < n; ++i)
    lanes.lane_of[i] = lane_id.try_emplace(trace.ops[i].worker, lane_id.size()).first->second;

  // A stable counting sort groups the ops by lane in index order, noting
  // which lanes are out of start order on the way.
  const std::size_t num_lanes = lane_id.size();
  lanes.begin.assign(num_lanes + 1, 0);
  for (std::size_t l : lanes.lane_of) ++lanes.begin[l + 1];
  for (std::size_t l = 0; l < num_lanes; ++l) lanes.begin[l + 1] += lanes.begin[l];
  std::vector<std::size_t> next(lanes.begin.begin(), lanes.begin.end() - 1);
  std::vector<double> last_start(num_lanes, -std::numeric_limits<double>::infinity());
  std::vector<char> unsorted(num_lanes, 0);
  lanes.ops.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t l = lanes.lane_of[i];
    const double start = trace.ops[i].start_seconds;
    if (start < last_start[l]) unsorted[l] = 1;
    last_start[l] = start;
    lanes.ops[next[l]++] = i;
  }
  for (std::size_t l = 0; l < num_lanes; ++l) {
    if (unsorted[l] == 0) continue;
    std::stable_sort(lanes.ops.begin() + static_cast<std::ptrdiff_t>(lanes.begin[l]),
                     lanes.ops.begin() + static_cast<std::ptrdiff_t>(lanes.begin[l + 1]),
                     [&](std::size_t a, std::size_t b) {
                       return trace.ops[a].start_seconds < trace.ops[b].start_seconds;
                     });
  }
  return lanes;
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
  const Successors succ = successors_of(trace);
  const Lanes lanes = lanes_of(trace);
  const std::size_t num_lanes = lanes.begin.size() - 1;

  // head[l]: position in lanes.ops of lane l's next op to run.
  std::vector<std::size_t> head(lanes.begin.begin(), lanes.begin.end() - 1);
  std::vector<double> lane_free(num_lanes, 0);
  std::vector<std::size_t> pending(n);
  std::vector<double> ready_at(n, 0);
  for (std::size_t i = 0; i < n; ++i) pending[i] = trace.ops[i].deps.size();

  std::vector<std::size_t> runnable;  // deps done AND at lane head
  auto consider = [&](std::size_t i) {
    const std::size_t l = lanes.lane_of[i];
    if (pending[i] == 0 && head[l] < lanes.begin[l + 1] && lanes.ops[head[l]] == i)
      runnable.push_back(i);
  };
  for (std::size_t l = 0; l < num_lanes; ++l) consider(lanes.ops[head[l]]);

  std::size_t done = 0;
  while (!runnable.empty()) {
    const std::size_t i = runnable.back();
    runnable.pop_back();
    const std::size_t l = lanes.lane_of[i];
    const double start = std::max(lane_free[l], ready_at[i]);
    const double end = start + durations[i];
    result.ops[i] = {start, end, trace.ops[i].worker};
    ++done;
    lane_free[l] = end;
    if (++head[l] < lanes.begin[l + 1]) consider(lanes.ops[head[l]]);
    for (std::size_t s : succ.of(i)) {
      ready_at[s] = std::max(ready_at[s], end);
      if (--pending[s] == 0) consider(s);
    }
  }
  if (done != n)
    throw std::invalid_argument(
        "whatif resim: recorded lane order contradicts the dependency edges "
        "(neither one profiled step nor a cluster schedule built in lane order "
        "records that)");
}

/// List scheduling onto `workers` identical lanes: whenever a lane is
/// free, the ready op with the lowest index starts on the lowest-numbered
/// free lane — the wavefront executor's dispatch policy.
void simulate_greedy(const Trace& trace, const std::vector<double>& durations,
                     int workers, ResimResult& result) {
  const std::size_t n = trace.ops.size();
  const Successors succ = successors_of(trace);
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
      for (std::size_t s : succ.of(i))
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
