#include "src/whatif/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/util/json.h"

namespace gf::whatif {
namespace {

using util::Json;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("whatif trace: " + what);
}

/// The numeric field `key` of `obj`; throws naming `context` if absent.
const Json& number_field(const Json& obj, const char* key, const std::string& context) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_number())
    fail(context + " is missing numeric field '" + key + "'");
  return *v;
}

/// `v`, the `field` of `context`, as an integer in [lo, hi]. Fractions,
/// non-finite and out-of-range values are rejected because converting them
/// would be undefined.
double integer_in(const Json& v, double lo, double hi, const std::string& context,
                  const char* field) {
  const double x = v.is_number() ? v.as_number() : std::nan("");
  if (!(x >= lo && x <= hi && x == std::floor(x)))
    fail(context + " " + field + " must be an integer in [" + Json(lo).dump() + ", " +
         Json(hi).dump() + "], got " + v.dump());
  return x;
}

/// Op indices are exact in a double up to 2^53; no real trace comes close.
constexpr double kMaxIndex = 9007199254740992.0;

}  // namespace

int Trace::num_workers() const {
  int max_worker = 0;
  for (const TraceOp& op : ops) max_worker = std::max(max_worker, op.worker + 1);
  return std::max(1, max_worker);
}

double Trace::span_seconds() const {
  if (ops.empty()) return 0;
  double lo = ops.front().start_seconds;
  double hi = ops.front().end_seconds;
  for (const TraceOp& op : ops) {
    lo = std::min(lo, op.start_seconds);
    hi = std::max(hi, op.end_seconds);
  }
  return hi - lo;
}

double Trace::busy_seconds() const {
  double sum = 0;
  for (const TraceOp& op : ops) sum += op.duration();
  return sum;
}

double Trace::total_flops() const {
  double sum = 0;
  for (const TraceOp& op : ops) sum += op.flops;
  return sum;
}

double Trace::total_bytes() const {
  double sum = 0;
  for (const TraceOp& op : ops) sum += op.bytes;
  return sum;
}

void validate_trace(const Trace& trace) {
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    const TraceOp& op = trace.ops[i];
    if (!std::isfinite(op.start_seconds) || !std::isfinite(op.end_seconds) ||
        op.duration() < 0)
      throw std::invalid_argument("whatif trace: op " + std::to_string(i) + " ('" +
                                  op.name + "') has an invalid time span");
    for (std::size_t d : op.deps)
      if (d >= i)
        throw std::invalid_argument(
            "whatif trace: op " + std::to_string(i) + " ('" + op.name +
            "') depends on op " + std::to_string(d) +
            ", which is not earlier in topological order");
  }
}

Trace from_report(const rt::ProfileReport& report) {
  Trace trace;
  trace.wall_seconds = report.wall_seconds;
  trace.ops.reserve(report.timeline.size());
  for (const rt::TimelineEvent& e : report.timeline) {
    if (e.op_index != trace.ops.size())
      throw std::invalid_argument(
          "whatif trace: timeline is not in topological order (event " +
          std::to_string(trace.ops.size()) + " has op_index " +
          std::to_string(e.op_index) + ")");
    TraceOp op;
    op.name = e.name;
    op.type = e.category.empty() ? ir::op_type_name(e.type) : e.category;
    op.worker = e.worker;
    op.start_seconds = e.start_seconds;
    op.end_seconds = e.end_seconds;
    op.flops = e.flops;
    op.bytes = e.bytes;
    op.kernel_class = e.kernel_class;
    op.deps = e.deps;
    trace.ops.push_back(std::move(op));
  }
  validate_trace(trace);
  return trace;
}

Trace load_trace(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  Json root;
  try {
    root = Json::parse(buffer.str());
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (!root.is_object()) fail("top level is not a JSON object");

  const Json* version = root.find("gfTraceVersion");
  if (version == nullptr || !version->is_number())
    fail("missing \"gfTraceVersion\" — this file predates the replayable trace format "
         "(re-export with gfctl trace)");
  if (version->as_number() != rt::kGfTraceVersion)
    fail("unknown gfTraceVersion " + version->dump() + " (this build reads version " +
         std::to_string(rt::kGfTraceVersion) + ")");

  const Json* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) fail("missing \"traceEvents\" array");

  Trace trace;
  trace.wall_seconds = root.number_or("wallSeconds", 0);

  // Events may arrive in any order; op_index in args fixes the position.
  std::vector<std::pair<std::size_t, TraceOp>> indexed;
  indexed.reserve(events->items().size());
  for (const Json& e : events->items()) {
    if (!e.is_object()) fail("traceEvents entry is not an object");
    // Skip non-span events (metadata rows other tools may add).
    if (e.string_or("ph", "X") != "X") continue;
    const Json* args = e.find("args");
    if (args == nullptr || !args->is_object())
      fail("event is missing its \"args\" object");

    TraceOp op;
    op.name = e.string_or("name", "");
    op.type = e.string_or("cat", "");
    const std::string context = "event '" + op.name + "'";
    // tid 0 is the caller thread (worker -1); the bounds keep tid - 1 an int.
    const double tid = integer_in(number_field(e, "tid", context),
                                  std::numeric_limits<int>::min() + 1.0,
                                  std::numeric_limits<int>::max(), context, "tid");
    op.worker = static_cast<int>(tid) - 1;
    const double ts = number_field(e, "ts", context).as_number();
    const double dur = number_field(e, "dur", context).as_number();
    op.start_seconds = ts / 1e6;
    op.end_seconds = (ts + dur) / 1e6;
    op.flops = number_field(*args, "flops", context).as_number();
    op.bytes = number_field(*args, "bytes", context).as_number();
    // Optional: absent in traces written before the runtime tagged classes.
    op.kernel_class = args->string_or("kernel_class", "");
    const double index = integer_in(number_field(*args, "op_index", context), 0, kMaxIndex,
                                    context, "op_index");

    const Json* deps = args->find("deps");
    if (deps == nullptr || !deps->is_array())
      fail(context + " has no \"deps\" list — the trace is not replayable");
    for (const Json& d : deps->items())
      op.deps.push_back(
          static_cast<std::size_t>(integer_in(d, 0, kMaxIndex, context, "dep")));
    indexed.emplace_back(static_cast<std::size_t>(index), std::move(op));
  }

  std::sort(indexed.begin(), indexed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  trace.ops.reserve(indexed.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    if (indexed[i].first != i)
      fail("op_index values are not the dense range 0.." +
           std::to_string(indexed.size() - 1));
    trace.ops.push_back(std::move(indexed[i].second));
  }
  validate_trace(trace);
  return trace;
}

Trace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("whatif trace: cannot open " + path);
  return load_trace(in);
}

}  // namespace gf::whatif
