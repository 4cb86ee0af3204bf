// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around each session, build, constructor and step; a
// step's ProfileReport timeline is folded in as child spans. Nothing is
// written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/profiler.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Spans {
 public:
  /// A disabled recorder accepts every call and records nothing, so the
  /// untraced run pays no span cost.
  explicit Spans(bool enabled);

  bool enabled() const { return enabled_; }
  /// Seconds since the recorder was created.
  double now() const;

  /// Opens a span; returns its id (or -1 when disabled).
  int begin(const std::string& name, int parent, std::uint32_t session,
            std::uint64_t request = 0);
  void end(int id);

  /// Adds one child span per timeline event under `parent`. Event times are
  /// relative to the step start, which happened `origin` seconds after the
  /// recorder's creation.
  void fold_timeline(const gf::rt::ProfileReport& report, int parent, double origin);

  double duration(int id) const;
  /// Duration minus the union of the span's children.
  double self_seconds(int id) const;

  /// Writes every span as one JSON object per line (name, id, parent,
  /// session, request, start_us, end_us, self_us).
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    int parent = -1;
    std::uint32_t session = 0;
    std::uint64_t request = 0;
    double start = 0;
    double end = 0;
  };
  std::uint32_t intern(const std::string& name);
  /// Records a finished span with explicit times (seconds since creation).
  int add(const std::string& name, int parent, std::uint32_t session,
          std::uint64_t request, double start, double end);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
};

/// RAII span: begins at construction, ends at destruction or close().
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& name, int parent, std::uint32_t session,
             std::uint64_t request = 0)
      : spans_(spans), id_(spans.begin(name, parent, session, request)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void close() {
    if (!closed_) spans_.end(id_);
    closed_ = true;
  }

 private:
  Spans& spans_;
  int id_;
  bool closed_ = false;
};

}  // namespace perfbench
