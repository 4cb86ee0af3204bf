// Sustained-throughput benchmark for the analysis service (gfctl serve).
//
// A load generator replays a mixed request stream — characterize (explicit
// width and params-solve), sweep, and memplan over the built-in model
// families — against one AnalysisService from N concurrent client
// threads, in phases:
//
//   cold   first pass: every stage executes (build, count, solve, ...)
//   warm   repeated passes over the identical stream: pure cache lookups
//
// and reports sustained req/s plus p50/p99 latency per phase, the cache
// hit rate, and per-stage execution counts, as a console table and
// BENCH_serve.json.
//
// Hard failures (nonzero exit):
//   - warm-cache throughput < 5x cold (the content-addressed cache is the
//     perf core; if lookups are not at least that far ahead of recompute,
//     it is broken)
//   - any response differing from the cold pass's response for the same
//     request line (byte-identical across cache temperature and client
//     interleaving)
//   - any stage re-executing during warm passes (immutable-once-published:
//     repeated requests must hit, never recompute)
//   - the run_server byte stream differing between 1 and N worker threads
//     for the same input (ordered-output determinism)
//
// Flags: --smoke (2 families, fewer passes — CI), --threads N, --out PATH.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/stages.h"
#include "src/concurrency/thread_pool.h"
#include "src/serve/cache.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace {

using namespace gf;
using Clock = std::chrono::steady_clock;

/// The unique request lines of one replay pass: a characterize / solve /
/// sweep / memplan mix per family. Deliberately no "stats" requests —
/// those report live gauges and would (correctly) differ between runs.
std::vector<std::string> build_request_stream(const std::vector<std::string>& families) {
  std::vector<std::string> lines;
  for (const std::string& family : families) {
    {
      util::Json req = util::Json::object();
      req.set("kind", util::Json("characterize"));
      req.set("model", util::Json(family));
      req.set("hidden", util::Json(256.0));
      req.set("batch", util::Json(32.0));
      lines.push_back(req.dump());
    }
    {
      util::Json req = util::Json::object();
      req.set("kind", util::Json("characterize"));
      req.set("model", util::Json(family));
      req.set("params", util::Json(2.0e7));  // width solved from target
      req.set("batch", util::Json(32.0));
      lines.push_back(req.dump());
    }
    {
      util::Json req = util::Json::object();
      req.set("kind", util::Json("sweep"));
      req.set("model", util::Json(family));
      util::Json hiddens = util::Json::array();
      for (double h : {128.0, 256.0, 512.0}) hiddens.push_back(util::Json(h));
      req.set("hidden", hiddens);
      req.set("batch", util::Json(32.0));
      lines.push_back(req.dump());
    }
    {
      util::Json req = util::Json::object();
      req.set("kind", util::Json("memplan"));
      req.set("model", util::Json(family));
      req.set("hidden", util::Json(128.0));
      req.set("batch", util::Json(8.0));
      lines.push_back(req.dump());
    }
  }
  return lines;
}

struct PhaseResult {
  double seconds = 0;
  std::size_t requests = 0;
  std::vector<double> latencies;  // seconds, one per request

  double rps() const { return seconds > 0 ? requests / seconds : 0; }
  double percentile(double p) const {
    if (latencies.empty()) return 0;
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(p * (sorted.size() - 1));
    return sorted[idx];
  }
};

/// Replays `lines` x `passes` from `clients` threads (strided split).
/// On the first-ever pass, records each line's response into `expected`;
/// afterwards any response that is not byte-identical to the recorded one
/// bumps `mismatches`.
PhaseResult run_phase(serve::AnalysisService& service, const std::vector<std::string>& lines,
                      int passes, std::size_t clients, std::vector<std::string>& expected,
                      std::size_t& mismatches) {
  const bool record = expected.empty();
  if (record) expected.resize(lines.size());
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::size_t> bad(clients, 0);

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      for (int pass = 0; pass < passes; ++pass)
        for (std::size_t i = c; i < lines.size(); i += clients) {
          const auto r0 = Clock::now();
          const std::string response = service.handle(lines[i]);
          lat[c].push_back(std::chrono::duration<double>(Clock::now() - r0).count());
          if (record && pass == 0) {
            expected[i] = response;  // each line has exactly one recorder
          } else if (response != expected[i]) {
            ++bad[c];
          }
        }
    });
  for (auto& t : threads) t.join();

  PhaseResult res;
  res.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::size_t c = 0; c < clients; ++c) {
    res.latencies.insert(res.latencies.end(), lat[c].begin(), lat[c].end());
    mismatches += bad[c];
  }
  res.requests = res.latencies.size();
  return res;
}

/// Feeds the stream through the ordered-output server loop and returns
/// the response byte stream.
std::string run_stream(serve::AnalysisService& service, const std::vector<std::string>& lines,
                       std::size_t threads) {
  std::ostringstream input;
  for (const std::string& line : lines) input << line << "\n";
  conc::ThreadPool pool(threads);
  std::istringstream in(input.str());
  std::ostringstream out;
  serve::run_server(in, out, service, pool);
  return out.str();
}

std::string ms_str(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e3);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = 8;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: serve_bench [--smoke] [--threads N] [--out PATH]\n";
      return 2;
    }
  }

  std::vector<std::string> families = analysis::stages::builtin_families();
  if (smoke) families.resize(2);  // wordlm + charlm keep CI wall-clock sane
  const int warm_passes = smoke ? 8 : 40;

  const std::vector<std::string> lines = build_request_stream(families);
  conc::ThreadPool pool(threads);
  serve::AnalysisService service(pool);

  std::vector<std::string> expected;
  std::size_t mismatches = 0;
  const PhaseResult cold = run_phase(service, lines, 1, threads, expected, mismatches);
  const serve::StageCacheStats after_cold = service.cache_stats();
  const PhaseResult warm =
      run_phase(service, lines, warm_passes, threads, expected, mismatches);
  const serve::StageCacheStats after_warm = service.cache_stats();

  // Ordered-output determinism: same input stream, 1 worker vs N workers,
  // must produce the same bytes (the service is already warm, so this
  // costs lookups only).
  const std::string stream_one = run_stream(service, lines, 1);
  const std::string stream_many = run_stream(service, lines, threads);

  const double speedup = cold.rps() > 0 ? warm.rps() / cold.rps() : 0;
  const bool gate_speedup = speedup >= 5.0;
  const bool gate_identical = mismatches == 0;
  const bool gate_no_reexec = after_warm.executions == after_cold.executions;
  const bool gate_stream = stream_one == stream_many;
  const bool ok = gate_speedup && gate_identical && gate_no_reexec && gate_stream;

  std::cout << "== serve sustained throughput (threads=" << threads
            << ", families=" << families.size() << ", reqs/pass=" << lines.size()
            << ") ==\n";
  util::Table table({"phase", "requests", "seconds", "req/s", "p50 ms", "p99 ms"});
  auto add_phase = [&](const char* name, const PhaseResult& p) {
    char rps[32], secs[32];
    std::snprintf(rps, sizeof rps, "%.1f", p.rps());
    std::snprintf(secs, sizeof secs, "%.3f", p.seconds);
    table.add_row({name, std::to_string(p.requests), secs, rps,
                   ms_str(p.percentile(0.50)), ms_str(p.percentile(0.99))});
  };
  add_phase("cold", cold);
  add_phase("warm", warm);
  table.print(std::cout);

  char speedup_str[32];
  std::snprintf(speedup_str, sizeof speedup_str, "%.1f", speedup);
  std::cout << "warm/cold throughput: " << speedup_str << "x (gate >= 5x)\n"
            << "cache: " << after_warm.entries << " entries, "
            << after_warm.executions << " executions, " << after_warm.hits
            << " hits\n"
            << "response mismatches: " << mismatches
            << ", warm re-executions: " << (after_warm.executions - after_cold.executions)
            << ", stream 1-vs-" << threads << " threads: "
            << (gate_stream ? "identical" : "DIFFER") << "\n";

  const auto phase_json = [](const PhaseResult& p) {
    return util::Json::object({{"requests", p.requests}, {"seconds", p.seconds},
                               {"rps", p.rps()}, {"p50_ms", p.percentile(0.50) * 1e3},
                               {"p99_ms", p.percentile(0.99) * 1e3}});
  };
  util::Json stages = util::Json::array();
  for (const auto& st : after_warm.stages)
    stages.push_back(util::Json::object(
        {{"stage", st.stage}, {"hits", st.hits}, {"executions", st.executions}}));
  const util::Json cache = util::Json::object(
      {{"entries", after_warm.entries}, {"executions", after_warm.executions},
       {"hits", after_warm.hits}, {"hit_rate", after_warm.hit_rate()},
       {"stages", stages}});
  const util::Json gates = util::Json::object(
      {{"warm_speedup", speedup}, {"warm_speedup_ok", gate_speedup},
       {"responses_identical", gate_identical},
       {"zero_warm_reexecutions", gate_no_reexec},
       {"stream_thread_invariant", gate_stream}});
  const util::Json doc = util::Json::object(
      {{"threads", threads}, {"families", families.size()},
       {"requests_per_pass", lines.size()}, {"cold", phase_json(cold)},
       {"warm", phase_json(warm)}, {"cache", cache}, {"gates", gates}, {"ok", ok}});
  std::ofstream(out_path) << doc.dump() << "\n";
  std::cout << "wrote " << out_path << "\n";

  if (!ok) {
    std::cerr << "serve_bench: throughput / determinism / re-execution gate FAILED\n";
    return 1;
  }
  return 0;
}
