// The serve layer, probed from traced training sessions: the session's
// model graph and step trace go to a fresh AnalysisService as cold
// requests, are replayed warm, and are then sent as interactive round
// trips through serve::run_server.
#include <algorithm>
#include <condition_variable>
#include <istream>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <thread>

#include "probes.h"
#include "src/models/common.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

namespace perfbench {
namespace {

using gf::serve::Json;

/// Warm replays of each cold line.
constexpr int kWarmRounds = 50;
/// How long a round-trip reply may take before it counts as late.
constexpr double kReplyDeadlineSeconds = 0.1;

/// Input side of the run_server probe: a byte pipe whose reader blocks
/// until the writer adds data or closes it.
class PipeIn : public std::streambuf {
 public:
  void write(const std::string& s) {
    std::lock_guard lock(mutex_);
    data_ += s;
    ready_.notify_all();
  }
  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    ready_.notify_all();
  }

 protected:
  int_type underflow() override {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return pos_ < data_.size() || closed_; });
    if (pos_ >= data_.size()) return traits_type::eof();
    chunk_ = data_.substr(pos_);
    pos_ = data_.size();
    setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
    return traits_type::to_int_type(chunk_[0]);
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string data_;
  std::size_t pos_ = 0;
  bool closed_ = false;
  std::string chunk_;  ///< current get area (reader thread only)
};

/// Output side: collects bytes and wakes a waiter per completed line.
class LineSink : public std::streambuf {
 public:
  /// Waits until at least `n` lines arrived or the deadline passed.
  bool wait_lines(std::size_t n, double seconds) {
    std::unique_lock lock(mutex_);
    return ready_.wait_for(lock, std::chrono::duration<double>(seconds),
                           [&] { return lines_ >= n; });
  }
  std::vector<std::string> lines() {
    std::lock_guard lock(mutex_);
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i < buffer_.size(); ++i)
      if (buffer_[i] == '\n') {
        out.push_back(buffer_.substr(start, i - start));
        start = i + 1;
      }
    return out;
  }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard lock(mutex_);
    buffer_.append(s, static_cast<std::size_t>(n));
    lines_ += static_cast<std::size_t>(std::count(s, s + n, '\n'));
    ready_.notify_all();
    return n;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string buffer_;
  std::size_t lines_ = 0;
};

std::string request(const std::string& kind, const char* payload_key,
                    const std::string& payload, const Json& extra) {
  Json req = Json::object();
  req.set("kind", Json(kind));
  req.set(payload_key, Json(payload));
  for (const auto& [key, value] : extra.members()) req.set(key, value);
  return req.dump();
}

}  // namespace

void ServeProbe::check(const std::string& line, const std::string& response) {
  ++requests_;
  const auto [it, inserted] = first_.emplace(line, response);
  if (inserted) {
    if (response.rfind("{\"ok\":true", 0) != 0) ++not_ok_;  // no id sent: "ok" leads
  } else if (it->second != response) {
    ++mismatched_;
  }
}

void ServeProbe::run(const std::string& graph_text, const std::string& trace_text,
                     double hidden, double batch, LayerSamples& layers) {
  gf::conc::ThreadPool pool(1);
  gf::serve::AnalysisService service(pool);
  Json binding = Json::object();
  binding.set("hidden", Json(hidden));
  binding.set("batch", Json(batch));
  Json scale = Json::object();
  scale.set("op_type", Json("MatMul"));
  scale.set("speedup", Json(2.0));
  const std::pair<std::string, std::string> cold[] = {
      {"characterize", request("characterize", "graph", graph_text, binding)},
      {"memplan", request("memplan", "graph", graph_text, binding)},
      {"lint", request("lint", "graph", graph_text, Json::object())},
      {"whatif", request("whatif-scale", "trace", trace_text, scale)}};
  for (const auto& [kind, line] : cold) {
    const auto t0 = Clock::now();
    const std::string response = service.handle(line);
    layers.add("extra.serve.cold_" + kind + "_ms", seconds_since(t0) * 1e3);
    check(line, response);
  }

  // Warm replay: every request is a cache hit and no stage may execute.
  const gf::serve::StageCacheStats before = service.cache_stats();
  for (int round = 0; round < kWarmRounds; ++round)
    for (const auto& [kind, line] : cold) {
      const auto t0 = Clock::now();
      const std::string response = service.handle(line);
      layers.sample("extra.serve.warm_handle_us", seconds_since(t0) * 1e6);
      check(line, response);
    }
  const gf::serve::StageCacheStats after = service.cache_stats();
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t runs = after.executions - before.executions;
  warm_executions_ += runs;
  if (hits + runs > 0)
    layers.add("extra.serve.warm_cache_hit_rate",
               static_cast<double>(hits) / static_cast<double>(hits + runs));
  for (const auto& st : after.stages) {
    layers.add("extra.serve.stage." + st.stage + ".executions",
               static_cast<double>(st.executions));
    layers.add("extra.serve.stage." + st.stage + ".hits", static_cast<double>(st.hits));
  }

  // Interactive round trips: write one request, wait a short deadline for
  // its reply, then write the next. Each one-pass lint computes for a few
  // milliseconds, as an interactive client's request would; a reply that
  // only computes for microseconds can win the race against the reader's
  // post-submit flush and would hide a held reply.
  std::vector<std::string> lines;
  for (const char* pass : {"structure", "shapes", "gradients"}) {
    Json passes = Json::array();
    passes.push_back(Json(pass));
    Json extra = Json::object();
    extra.set("passes", passes);
    lines.push_back(request("lint", "graph", graph_text, extra));
  }
  PipeIn pipe_in;
  LineSink sink;
  std::istream is(&pipe_in);
  std::ostream os(&sink);
  std::exception_ptr error;
  std::thread server([&] {
    try {
      gf::serve::run_server(is, os, service, pool);
    } catch (...) {
      error = std::current_exception();
    }
  });
  for (std::size_t k = 0; k < lines.size(); ++k) {
    pipe_in.write(lines[k] + "\n");
    ++round_trips_;
    if (!sink.wait_lines(k + 1, kReplyDeadlineSeconds)) ++late_replies_;
  }
  pipe_in.close();
  server.join();
  if (error) std::rethrow_exception(error);
  const std::vector<std::string> replies = sink.lines();
  if (replies.size() != lines.size()) missing_replies_ += lines.size() - replies.size();
  for (std::size_t i = 0; i < std::min(replies.size(), lines.size()); ++i)
    check(lines[i], replies[i]);
}

void ServeProbe::finish(Outcome& out) const {
  out.attempted += requests_ + missing_replies_;
  out.failed += late_replies_;
  out.gate(not_ok_ == 0, std::to_string(not_ok_) + " serve responses were not ok:true");
  out.gate(mismatched_ == 0,
           std::to_string(mismatched_) +
               " serve responses differ from the first response to the same line");
  out.gate(warm_executions_ == 0,
           std::to_string(warm_executions_) + " stage executions during warm replays");
  out.gate(missing_replies_ == 0,
           std::to_string(missing_replies_) + " run_server requests got no reply");
  if (round_trips_ > 0)
    out.per_layer_extra["serve.run_server_late_replies"] =
        total_metric(static_cast<double>(late_replies_), "count", round_trips_);
}

}  // namespace perfbench
