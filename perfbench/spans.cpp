#include "spans.h"

#include <fstream>
#include <stdexcept>

#include "src/serve/json.h"

namespace perfbench {

Spans::Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Spans::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::uint32_t Spans::intern(const std::string& name) {
  const auto [it, inserted] =
      name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

int Spans::add(const std::string& name, int parent, std::uint32_t session,
               std::uint64_t request, double start, double end) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({intern(name), parent, session, request, start, end});
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<std::size_t>(parent)].push_back(id);
  return id;
}

int Spans::begin(const std::string& name, int parent, std::uint32_t session,
                 std::uint64_t request) {
  if (!enabled_) return -1;
  const double t = now();
  return add(name, parent, session, request, t, t);
}

void Spans::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now();
}

void Spans::fold_timeline(const gf::rt::ProfileReport& report, int parent, double origin) {
  if (!enabled_ || parent < 0) return;
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  const std::uint32_t session = p.session;
  const std::uint64_t request = p.request;
  for (const gf::rt::TimelineEvent& ev : report.timeline) {
    const std::string& kind =
        ev.category.empty() ? std::string(gf::ir::op_type_name(ev.type)) : ev.category;
    add(kind, parent, session, request, origin + ev.start_seconds, origin + ev.end_seconds);
  }
}

double Spans::duration(int id) const {
  if (id < 0) return 0;
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end - s.start;
}

double Spans::self_seconds(int id) const {
  if (id < 0) return 0;
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<Interval> kids;
  for (const int c : children_[static_cast<std::size_t>(id)]) {
    const Span& k = spans_[static_cast<std::size_t>(c)];
    kids.push_back({k.start, k.end});
  }
  return self_time({s.start, s.end}, std::move(kids));
}

void Spans::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    gf::serve::Json line = gf::serve::Json::object();
    line.set("name", gf::serve::Json(names_[s.name]));
    line.set("id", gf::serve::Json(i));
    line.set("parent", gf::serve::Json(s.parent));
    line.set("session", gf::serve::Json(static_cast<std::size_t>(s.session)));
    line.set("request", gf::serve::Json(static_cast<double>(s.request)));
    line.set("start_us", gf::serve::Json(s.start * 1e6));
    line.set("end_us", gf::serve::Json(s.end * 1e6));
    line.set("self_us", gf::serve::Json(self_seconds(static_cast<int>(i)) * 1e6));
    os << line.dump() << '\n';
  }
}

}  // namespace perfbench
