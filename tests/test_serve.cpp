// Tests of the serve layer: content-addressed stage cache (single-flight,
// immutability, per-stage reuse accounting), the AnalysisService protocol
// (determinism under concurrent hammering, malformed-request containment),
// and the ordered-output server loop (byte-identical streams for any
// worker count). The hammering tests are in the TSan CI matrix — they are
// the data-race regression net for the whole serve stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "src/concurrency/thread_pool.h"
#include "src/ir/gradients.h"
#include "src/ir/graph.h"
#include "src/ir/hash.h"
#include "src/ir/ops.h"
#include "src/ir/serialize.h"
#include "src/serve/cache.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

namespace gf::serve {
namespace {

using sym::Expr;
using util::Json;

/// Small training-step MLP over the standard model symbols, serialized —
/// a cheap stand-in for a client-submitted graph. Symbols match
/// models::kBatchSymbol / kHiddenSymbol so characterize bindings apply.
std::string submitted_graph_text() {
  ir::Graph g("submitted_mlp");
  const Expr b = Expr::symbol("batch");
  const Expr h = Expr::symbol("hidden");
  ir::Tensor* x = g.add_input("x", {b, h});
  ir::Tensor* labels = g.add_input("labels", {b}, ir::DataType::kInt32);
  ir::Tensor* w1 = g.add_weight("w1", {h, h});
  ir::Tensor* w2 = g.add_weight("w2", {h, Expr(8)});
  ir::Tensor* hid = ir::relu(g, "act", ir::matmul(g, "fc1", x, w1));
  ir::Tensor* logits = ir::matmul(g, "fc2", hid, w2);
  auto [per_row, probs] = ir::softmax_xent(g, "xent", logits, labels);
  (void)probs;
  ir::Tensor* loss = ir::reduce_mean(g, "loss", per_row);
  ir::build_training_step(g, loss);
  return ir::serialize(g);
}

std::uint64_t stage_executions(const StageCacheStats& stats, const std::string& name) {
  for (const auto& s : stats.stages)
    if (s.stage == name) return s.executions;
  return 0;
}

std::uint64_t stage_hits(const StageCacheStats& stats, const std::string& name) {
  for (const auto& s : stats.stages)
    if (s.stage == name) return s.hits;
  return 0;
}

TEST(StageCache, SingleFlightUnderConcurrentHammering) {
  StageCache cache;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 50;
  std::atomic<int> computed{0};
  std::vector<std::shared_ptr<const int>> seen(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        auto value = cache.get_or_compute<int>("stage", 42, [&] {
          computed.fetch_add(1, std::memory_order_relaxed);
          return std::make_shared<int>(7);
        });
        seen[t] = value;
      }
    });
  for (auto& th : threads) th.join();

  // SINGLE-FLIGHT: one execution ever, no matter the contention.
  EXPECT_EQ(computed.load(), 1);
  // IMMUTABLE ONCE PUBLISHED: every thread saw the same object.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t].get(), seen[0].get());
  EXPECT_EQ(*seen[0], 7);

  const StageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads) * kRoundsPerThread - 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(StageCache, EntriesAreImmutableAndEvictionFree) {
  StageCache cache;
  std::vector<const int*> pointers;
  // Publish 64 entries, then re-read each many times: the pointer a key
  // resolves to never changes (no eviction, no replacement).
  for (std::uint64_t key = 0; key < 64; ++key)
    pointers.push_back(
        cache.get_or_compute<int>("s", key, [&] { return std::make_shared<int>(static_cast<int>(key)); })
            .get());
  for (int round = 0; round < 10; ++round)
    for (std::uint64_t key = 0; key < 64; ++key) {
      auto value = cache.get_or_compute<int>("s", key, [&]() -> std::shared_ptr<int> {
        ADD_FAILURE() << "published entry recomputed";
        return std::make_shared<int>(-1);
      });
      EXPECT_EQ(value.get(), pointers[key]);
      EXPECT_EQ(*value, static_cast<int>(key));
    }
  const StageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 64u);
  EXPECT_EQ(stats.executions, 64u);
  EXPECT_EQ(stats.hits, 640u);
}

TEST(StageCache, ThrowingComputeIsNotCached) {
  StageCache cache;
  EXPECT_THROW(cache.get_or_compute<int>("s", 1,
                                         []() -> std::shared_ptr<int> {
                                           throw std::runtime_error("transient");
                                         }),
               std::runtime_error);
  // The failure left the entry empty: the next requester retries and the
  // eventual success is the only recorded execution.
  auto value = cache.get_or_compute<int>("s", 1, [] { return std::make_shared<int>(5); });
  EXPECT_EQ(*value, 5);
  const StageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.executions, 1u);
}

TEST(StageCache, ConcurrentRetryAfterThrowExecutesOnce) {
  // Eight requesters race on one key whose compute throws on its first
  // call only: the thrower alone sees the error, a waiter retries, and the
  // retry is the key's one execution.
  StageCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> calls{0}, fives{0}, errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      try {
        auto value = cache.get_or_compute<int>("s", 3, [&]() -> std::shared_ptr<int> {
          if (calls.fetch_add(1) == 0) throw std::runtime_error("first call fails");
          return std::make_shared<int>(5);
        });
        if (*value == 5) fives.fetch_add(1);
      } catch (const std::runtime_error&) {
        errors.fetch_add(1);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 1);
  EXPECT_EQ(fives.load(), kThreads - 1);
  EXPECT_EQ(calls.load(), 2);
  const StageCacheStats before = cache.stats();
  EXPECT_EQ(before.executions, 1u);

  auto later = cache.get_or_compute<int>("s", 3, []() -> std::shared_ptr<int> {
    ADD_FAILURE() << "published entry recomputed";
    return std::make_shared<int>(-1);
  });
  EXPECT_EQ(*later, 5);
  const StageCacheStats after = cache.stats();
  EXPECT_EQ(after.executions, 1u);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(StageCache, SameKeyDifferentStageIsDistinct) {
  StageCache cache;
  auto a = cache.get_or_compute<int>("count", 9, [] { return std::make_shared<int>(1); });
  auto b = cache.get_or_compute<int>("project", 9, [] { return std::make_shared<int>(2); });
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(Serve, ResponsesAreByteIdenticalUnderConcurrentHammering) {
  const std::string graph_text = submitted_graph_text();
  Json req = Json::object();
  req.set("kind", Json("characterize"));
  req.set("graph", Json(graph_text));
  req.set("hidden", Json(64.0));
  req.set("batch", Json(16.0));
  const std::string line = req.dump();

  conc::ThreadPool pool(2);
  AnalysisService service(pool);
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 25;
  std::vector<std::vector<std::string>> responses(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRoundsPerThread; ++i)
        responses[t].push_back(service.handle(line));
    });
  for (auto& th : threads) th.join();

  const std::string& expected = responses[0][0];
  EXPECT_NE(expected.find("\"ok\":true"), std::string::npos) << expected;
  for (int t = 0; t < kThreads; ++t)
    for (const std::string& r : responses[t]) EXPECT_EQ(r, expected);

  // Zero re-executions: the expensive stages ran exactly once across all
  // 200 identical requests.
  const StageCacheStats stats = service.cache_stats();
  EXPECT_EQ(stage_executions(stats, "parse"), 1u);
  EXPECT_EQ(stage_executions(stats, "count"), 1u);
  EXPECT_EQ(stage_executions(stats, "project"), 1u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(Serve, SweepReusesCountStageAcrossPoints) {
  const std::string graph_text = submitted_graph_text();
  Json req = Json::object();
  req.set("kind", Json("sweep"));
  req.set("graph", Json(graph_text));
  Json hiddens = Json::array();
  for (double h : {32.0, 64.0, 128.0, 256.0}) hiddens.push_back(Json(h));
  req.set("hidden", hiddens);
  req.set("batch", Json(16.0));
  const std::string line = req.dump();

  conc::ThreadPool pool(1);
  AnalysisService service(pool);
  const std::string first = service.handle(line);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;

  StageCacheStats stats = service.cache_stats();
  // One parse, one count — then only the cheap projection tail per point.
  EXPECT_EQ(stage_executions(stats, "parse"), 1u);
  EXPECT_EQ(stage_executions(stats, "count"), 1u);
  EXPECT_EQ(stage_executions(stats, "project"), 4u);

  // A repeated identical sweep executes nothing at all.
  const std::string second = service.handle(line);
  EXPECT_EQ(second, first);
  stats = service.cache_stats();
  EXPECT_EQ(stats.executions, 6u);  // unchanged: 1 parse + 1 count + 4 project
  EXPECT_EQ(stage_hits(stats, "project"), 4u);
}

TEST(Serve, MalformedRequestsAreRejectedWithoutServerDeath) {
  const std::string graph_text = submitted_graph_text();
  Json good = Json::object();
  good.set("id", Json(3.0));
  good.set("kind", Json("characterize"));
  good.set("graph", Json(graph_text));
  good.set("hidden", Json(32.0));
  good.set("batch", Json(8.0));

  std::ostringstream input;
  input << "this is not json\n";
  input << "{\"kind\":\"no-such-kind\"}\n";
  input << "{\"kind\":\"characterize\"}\n";          // no model/graph
  input << "{\"kind\":\"characterize\",\"model\":\"no_such_family\",\"batch\":1,\"hidden\":1}\n";
  input << "\n";  // blank: ignored, not answered
  input << good.dump() << "\n";

  conc::ThreadPool pool(2);
  AnalysisService service(pool);
  std::istringstream in(input.str());
  std::ostringstream out;
  const std::size_t served = run_server(in, out, service, pool);
  EXPECT_EQ(served, 5u);

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  for (int i = 0; i < 4; ++i)
    EXPECT_NE(lines[i].find("\"ok\":false"), std::string::npos) << lines[i];
  EXPECT_NE(lines[4].find("\"ok\":true"), std::string::npos) << lines[4];
  EXPECT_NE(lines[4].find("\"id\":3"), std::string::npos) << lines[4];
}

TEST(Serve, OutputStreamIsIdenticalForAnyWorkerCount) {
  const std::string graph_text = submitted_graph_text();
  std::ostringstream input;
  for (int i = 0; i < 12; ++i) {
    Json req = Json::object();
    req.set("id", Json(static_cast<double>(i)));
    req.set("kind", Json(i % 3 == 2 ? "lint" : "characterize"));
    req.set("graph", Json(graph_text));
    if (i % 3 != 2) {
      req.set("hidden", Json(32.0 * (1 + i % 4)));
      req.set("batch", Json(16.0));
    }
    input << req.dump() << "\n";
  }

  std::vector<std::string> streams;
  for (std::size_t threads : {1u, 2u, 8u}) {
    conc::ThreadPool pool(threads);
    AnalysisService service(pool);  // fresh (cold) cache per run
    std::istringstream in(input.str());
    std::ostringstream out;
    ServerOptions options;
    options.max_in_flight = 4;  // exercise backpressure too
    EXPECT_EQ(run_server(in, out, service, pool, options), 12u);
    streams.push_back(out.str());
  }
  EXPECT_EQ(streams[1], streams[0]);
  EXPECT_EQ(streams[2], streams[0]);
}

/// Input side of an interactive client: a byte pipe whose reader blocks
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
  /// Waits until at least `n` lines arrived or the timeout passed.
  bool wait_lines(std::size_t n, std::chrono::seconds timeout) {
    std::unique_lock lock(mutex_);
    return ready_.wait_for(lock, timeout, [&] { return lines_ >= n; });
  }
  std::string text() {
    std::lock_guard lock(mutex_);
    return buffer_;
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

TEST(Serve, RepliesWithoutWaitingForMoreInput) {
  // An interactive client writes a request and waits for its reply before
  // it sends the next one; the server must not hold the reply until more
  // input or end of input arrives.
  const std::string graph_text = submitted_graph_text();
  std::vector<std::string> lines;
  for (const double hidden : {32.0, 64.0}) {
    Json req = Json::object();
    req.set("kind", Json("characterize"));
    req.set("graph", Json(graph_text));
    req.set("hidden", Json(hidden));
    req.set("batch", Json(8.0));
    lines.push_back(req.dump());
  }

  conc::ThreadPool pool(2);
  AnalysisService service(pool);
  PipeIn pipe_in;
  LineSink sink;
  std::istream in(&pipe_in);
  std::ostream out(&sink);
  std::thread server([&] { run_server(in, out, service, pool); });
  pipe_in.write(lines[0] + "\n");
  const bool first_replied = sink.wait_lines(1, std::chrono::seconds(60));
  pipe_in.write(lines[1] + "\n");
  const bool second_replied = sink.wait_lines(2, std::chrono::seconds(60));
  pipe_in.close();
  server.join();

  EXPECT_TRUE(first_replied) << "the first reply waited for the second request";
  EXPECT_TRUE(second_replied);
  EXPECT_EQ(sink.text(),
            service.handle(lines[0]) + "\n" + service.handle(lines[1]) + "\n");
}

TEST(Serve, LintCountsMatchTheReportForEveryCorpusFile) {
  // Every file of the seeded-defect corpus carries at least one error;
  // the response's top-level counts must agree with its own report.
  conc::ThreadPool pool(1);
  AnalysisService service(pool);
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(GF_TEST_DATA_DIR) + "/lint")) {
    if (entry.path().extension() != ".txt") continue;
    ++files;
    std::ifstream file(entry.path());
    std::ostringstream text;
    text << file.rdbuf();
    Json req = Json::object();
    req.set("kind", Json("lint"));
    req.set("graph", Json(text.str()));
    const Json response = Json::parse(service.handle(req.dump()));
    const std::string name = entry.path().filename().string();
    ASSERT_TRUE(response.bool_or("ok", false)) << name << ": " << response.dump();
    const Json* report = response.find("report");
    ASSERT_NE(report, nullptr) << name;
    const Json* counts = report->find("counts");
    ASSERT_NE(counts, nullptr) << name;
    EXPECT_EQ(response.number_or("errors", -1), counts->number_or("error", -2)) << name;
    EXPECT_EQ(response.number_or("warnings", -1), counts->number_or("warning", -2))
        << name;
    EXPECT_GT(response.number_or("errors", 0), 0) << name;
  }
  EXPECT_GT(files, 0u);
}

TEST(Serve, SizesMustBePositiveAndProjectionsFinite) {
  // Each request answers ok:false and names the offending field: an input
  // size that is not a finite positive number (every array element is
  // checked), or a projected count that overflows to a non-finite value.
  const std::string graph = Json(submitted_graph_text()).dump();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"kind":"characterize","model":"wordlm","hidden":512,"batch":-3,"footprint":true})",
       "field 'batch' must be a finite positive number"},
      {R"({"kind":"characterize","model":"wordlm","hidden":512,"batch":1e300,"footprint":true})",
       "projected 'flops' is not finite"},
      {R"({"kind":"characterize","graph":)" + graph + R"(,"hidden":0,"batch":8})",
       "field 'hidden' must be a finite positive number"},
      {R"({"kind":"characterize","graph":)" + graph + R"(,"params":-1,"batch":8})",
       "field 'params' must be a finite positive number"},
      {R"({"kind":"characterize","graph":)" + graph + R"(,"hidden":1e200,"batch":8})",
       "projected 'params' is not finite"},
      {R"({"kind":"sweep","graph":)" + graph + R"(,"hidden":[32,-1],"batch":8})",
       "field 'hidden[1]' must be a finite positive number"},
      {R"({"kind":"sweep","graph":)" + graph + R"(,"params":[1e6,0],"batch":8})",
       "field 'params[1]' must be a finite positive number"},
      {R"({"kind":"sweep","graph":)" + graph + R"(,"hidden":[32],"batch":[8,1e400]})",
       "field 'batch[1]' must be a finite positive number"},
      {R"({"kind":"sweep","graph":)" + graph + R"(,"hidden":[32],"batch":"8"})",
       "field 'batch' must be a finite positive number"},
  };
  conc::ThreadPool pool(1);
  AnalysisService service(pool);
  for (const auto& [request, error] : cases) {
    const Json response = Json::parse(service.handle(request));
    EXPECT_FALSE(response.bool_or("ok", true)) << request;
    EXPECT_NE(response.string_or("error", "").find(error), std::string::npos)
        << response.dump();
  }
}

TEST(Serve, PreloadWarmsParseAndCountStages) {
  const std::string graph_text = submitted_graph_text();
  conc::ThreadPool pool(1);
  AnalysisService service(pool);
  const std::uint64_t hash = service.preload_graph(graph_text);
  EXPECT_NE(hash, 0u);

  Json req = Json::object();
  req.set("kind", Json("characterize"));
  req.set("graph", Json(graph_text));
  req.set("hidden", Json(64.0));
  req.set("batch", Json(16.0));
  const std::string response = service.handle(req.dump());
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;

  const StageCacheStats stats = service.cache_stats();
  EXPECT_EQ(stage_executions(stats, "parse"), 1u);  // preload did it
  EXPECT_EQ(stage_executions(stats, "count"), 1u);
  EXPECT_GE(stage_hits(stats, "parse"), 1u);
  EXPECT_THROW(service.preload_graph("graph v1\nnot a real graph"), std::exception);
}

TEST(Serve, StatsRequestReportsPoolAndCacheCounters) {
  conc::ThreadPool pool(3);
  AnalysisService service(pool);
  const std::string response = service.handle("{\"kind\":\"stats\"}");
  const Json parsed = Json::parse(response);
  EXPECT_TRUE(parsed.bool_or("ok", false)) << response;
  const Json* pool_json = parsed.find("pool");
  ASSERT_NE(pool_json, nullptr);
  EXPECT_EQ(pool_json->number_or("threads", 0), 3.0);
  EXPECT_EQ(pool_json->number_or("queue_depth", -1), 0.0);
  EXPECT_EQ(pool_json->number_or("busy_workers", -1), 0.0);
  const Json* cache_json = parsed.find("cache");
  ASSERT_NE(cache_json, nullptr);
  EXPECT_EQ(cache_json->number_or("entries", -1), 0.0);
}

TEST(ServeJson, RoundTripsAndRejectsMalformed) {
  const Json parsed = Json::parse(
      "{\"a\": [1, 2.5, true, null, \"x\\u0041\"], \"b\": {\"nested\": -3e2}}");
  EXPECT_EQ(parsed.find("a")->items().size(), 5u);
  EXPECT_EQ(parsed.find("a")->items()[4].as_string(), "xA");
  EXPECT_EQ(parsed.find("b")->number_or("nested", 0), -300.0);
  // Deterministic rendering: integers print without exponent or fraction.
  Json obj = Json::object();
  obj.set("n", Json(1234567.0));
  obj.set("f", Json(0.5));
  EXPECT_EQ(obj.dump(), "{\"n\":1234567,\"f\":0.5}");
  // Repeated keys parse in linear time and stay in the document; lookups
  // and set() see the last one.
  Json dup = Json::parse("{\"k\":1,\"j\":0,\"k\":2}");
  EXPECT_EQ(dup.number_or("k", 0), 2.0);
  dup.set("k", Json(3));
  EXPECT_EQ(dup.dump(), "{\"k\":1,\"j\":0,\"k\":3}");
  EXPECT_THROW(Json::parse("{\"unterminated\": "), std::exception);
  EXPECT_THROW(Json::parse("[1,]"), std::exception);
  EXPECT_THROW(Json::parse(""), std::exception);
}

TEST(ServeJson, HostileObjectParsesInLinearTime) {
  // A 1.2 MB request line of 100k distinct keys: a per-key duplicate scan
  // makes this ~5e9 string compares (tens of seconds); linear parsing
  // takes milliseconds, so the bound leaves room for sanitizer builds.
  std::string text = "{";
  for (int i = 0; i < 100000; ++i)
    text += (i > 0 ? ",\"k" : "\"k") + std::to_string(i) + "\":0";
  text += "}";
  const auto t0 = std::chrono::steady_clock::now();
  const Json doc = Json::parse(text);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(doc.members().size(), 100000u);
  EXPECT_LT(seconds, 5.0);
}

}  // namespace
}  // namespace gf::serve
