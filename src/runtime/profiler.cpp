#include "src/runtime/profiler.h"

#include <algorithm>
#include <ostream>
#include <vector>

#include "src/util/format.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace gf::rt {

void ProfileReport::add(ir::OpType type, double flops, double bytes, double seconds) {
  OpTypeProfile& p = per_type[type];
  ++p.count;
  p.flops += flops;
  p.bytes += bytes;
  p.seconds += seconds;
  total_flops += flops;
  total_bytes += bytes;
  total_seconds += seconds;
}

void ProfileReport::print(std::ostream& os) const {
  std::vector<std::pair<ir::OpType, OpTypeProfile>> rows(per_type.begin(),
                                                         per_type.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.flops > b.second.flops; });
  util::Table table({"op type", "count", "FLOPs", "bytes", "time", "GFLOP/s"});
  auto rate = [](double flops, double seconds) {
    return (seconds > 0 && flops > 0) ? util::format_sig(flops / seconds / 1e9, 3)
                                      : std::string("-");
  };
  for (const auto& [type, p] : rows)
    table.add_row({ir::op_type_name(type), std::to_string(p.count),
                   util::format_si(p.flops), util::format_bytes(p.bytes),
                   util::format_duration(p.seconds, 2), rate(p.flops, p.seconds)});
  table.add_separator();
  table.add_row({"total", "", util::format_si(total_flops), util::format_bytes(total_bytes),
                 util::format_duration(total_seconds, 2),
                 rate(total_flops, total_seconds)});
  table.print(os);
  os << "peak allocated: " << util::format_bytes(static_cast<double>(peak_allocated_bytes))
     << "\n";
  if (wall_seconds > 0)
    os << "wall clock: " << util::format_duration(wall_seconds, 2) << " ("
       << util::format_sig(wall_seconds > 0 ? total_seconds / wall_seconds : 1.0, 3)
       << "x op-time overlap)\n";
}

void ProfileReport::write_chrome_trace(std::ostream& os) const {
  // Timestamps and byte/FLOP counts must survive a write -> load round trip
  // (whatif::load_trace re-simulates from them); util::Json prints every
  // double at full precision.
  util::Json events = util::Json::array();
  for (const TimelineEvent& e : timeline) {
    util::Json deps = util::Json::array();
    for (const std::size_t d : e.deps) deps.push_back(d);
    util::Json args = util::Json::object({{"op_index", e.op_index}, {"flops", e.flops},
                                          {"bytes", e.bytes},
                                          {"gflops", e.achieved_gflops()},
                                          {"deps", deps}});
    // Optional args keep gfTraceVersion stable: old traces simply lack them
    // and the loader defaults the field.
    if (!e.kernel_class.empty()) args.set("kernel_class", e.kernel_class);
    if (e.slab_offset >= 0) {
      args.set("slab_offset", e.slab_offset);
      args.set("reuse_generation", e.reuse_generation);
    }
    // tid 0 = dispatcher/caller thread, 1..N = pool workers.
    util::Json event = util::Json::object(
        {{"name", e.name},
         {"cat", e.category.empty() ? ir::op_type_name(e.type) : e.category},
         {"ph", "X"}, {"pid", 0}, {"tid", e.worker + 1}, {"ts", e.start_seconds * 1e6},
         {"dur", (e.end_seconds - e.start_seconds) * 1e6}});
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  util::Json doc =
      util::Json::object({{"displayTimeUnit", "ms"}, {"gfTraceVersion", kGfTraceVersion},
                          {"wallSeconds", wall_seconds}});
  doc.set("traceEvents", std::move(events));
  os << doc.dump() << "\n";
}

}  // namespace gf::rt
