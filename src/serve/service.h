// Multi-tenant analysis service: one request in, one response out.
//
// AnalysisService is the protocol-level core of `gfctl serve`: it maps
// one line-delimited JSON request to one JSON response, running every
// analysis through the pure stage functions of src/analysis/stages.h and
// memoizing each stage in a content-addressed StageCache. handle() is
// thread-safe and is called concurrently from pool workers; determinism
// is part of the contract — identical request lines produce byte-identical
// response lines regardless of thread count or cache temperature
// (serve_bench gates on this).
//
// Request kinds (schema documented in README "Serving"):
//   characterize  model x binding -> params/FLOPs/bytes/intensity
//                 (+ minimal footprint with "footprint": true)
//   sweep         model x binding lists -> one characterize row per point;
//                 re-runs only the cached count/project tail
//   lint          graph -> verify_graph() diagnostics report
//   memplan       model x binding -> static memory-plan summary
//   whatif-scale  profiled trace x kernel-class speedup -> predicted step
//   stats         cache counters + thread-pool gauges (never cached)
//
// Models are named either by built-in family ("model": "wordlm") or
// submitted inline as the PR 5 round-trip serialization ("graph": "...");
// both resolve to a canonical graph hash that keys all downstream stages.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/analysis/stages.h"
#include "src/concurrency/thread_pool.h"
#include "src/serve/cache.h"
#include "src/util/json.h"

namespace gf::serve {

class AnalysisService {
 public:
  /// `pool` is only observed (stats gauges); dispatch onto it is the
  /// server loop's job (src/serve/server.h).
  explicit AnalysisService(conc::ThreadPool& pool);

  /// Handles one request line and returns the response line (no trailing
  /// newline). Never throws — malformed JSON, unknown kinds, and stage
  /// errors all become {"ok":false,"error":...} responses, so one bad
  /// request can never take the server down.
  std::string handle(const std::string& request_line);

  /// Warms the parse and count stages for a serialized graph (gfctl
  /// serve --file): resolves it exactly as a {"graph": ...} request
  /// would and returns the canonical graph hash. Unlike handle(), this
  /// throws on unparseable text — preload failures should stop startup.
  std::uint64_t preload_graph(const std::string& graph_text);

  /// Cache observability (also exposed via the "stats" request kind).
  StageCacheStats cache_stats() const { return cache_.stats(); }

  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  /// A resolved model: the graph plus its content identity. `spec` is
  /// set for built-in families, null for submitted graphs.
  struct LoadedModel {
    std::shared_ptr<const models::ModelSpec> spec;
    std::shared_ptr<const ir::Graph> graph;
    std::uint64_t graph_hash = 0;
  };

  std::shared_ptr<const LoadedModel> resolve_model(const util::Json& req);
  std::shared_ptr<const analysis::stages::CountResult> counts_for(
      const LoadedModel& model);

  util::Json dispatch(const util::Json& req);
  util::Json do_characterize(const util::Json& req);
  util::Json do_sweep(const util::Json& req);
  util::Json do_lint(const util::Json& req);
  util::Json do_memplan(const util::Json& req);
  util::Json do_whatif_scale(const util::Json& req);
  util::Json do_stats();

  /// Characterization row shared by characterize and sweep.
  util::Json project_point(const LoadedModel& model, double hidden, double batch,
                           bool footprint);

  conc::ThreadPool* pool_;
  StageCache cache_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace gf::serve
