// Content-addressed stage cache for the analysis service.
//
// Every analysis stage (src/analysis/stages.h) is a pure function, so a
// stage result is fully named by (stage, content key): the key is
// ir::canonical_hash of the input graph, folded with a binding hash for
// the projection-family stages, or with the upstream stage's own key —
// later stages key on earlier stages' outputs, so a sweep over one model
// family re-runs only the cheap count/project tail.
//
// Concurrency contract (the reason the cache needs no invalidation):
//
//   * Entries are IMMUTABLE ONCE PUBLISHED. get_or_compute() inserts an
//     entry shell under a sharded mutex; the shell carries its own mutex,
//     condition variable and state (empty / computing / ready). The
//     published shared_ptr<const T> is never replaced or evicted. Readers
//     after publication take the shard lock only long enough to find the
//     shell, and the shell's lock only long enough to see it is ready.
//   * SINGLE-FLIGHT: the requester that finds a shell empty marks it
//     computing and runs the compute function outside every lock; the
//     others wait on the condition variable instead of recomputing, so a
//     key executes successfully at most once for the lifetime of the cache
//     (serve_bench's "zero re-executions on a repeated request" gate is
//     this property, observed via Stats.executions).
//   * A compute function that throws resets the shell to empty and wakes
//     one waiter, which retries; the error propagates to the thrower only,
//     so failures are never cached.
//
// Content addressing makes this safe: a key collision would require an
// FNV-64 collision between canonical serialized forms, and keys never
// need to be invalidated because the content IS the identity.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/hash.h"

namespace gf::serve {

/// Per-stage and aggregate cache counters. `executions` counts compute
/// runs (== misses that succeeded); hits are lookups served from a
/// published entry.
struct StageCacheStats {
  struct PerStage {
    std::string stage;
    std::uint64_t hits = 0;
    std::uint64_t executions = 0;
  };
  std::vector<PerStage> stages;  ///< sorted by stage name (deterministic)
  std::uint64_t hits = 0;
  std::uint64_t executions = 0;
  std::uint64_t entries = 0;

  double hit_rate() const {
    const double total = static_cast<double>(hits + executions);
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class StageCache {
 public:
  explicit StageCache(std::size_t shards = 16);

  StageCache(const StageCache&) = delete;
  StageCache& operator=(const StageCache&) = delete;

  /// Returns the immutable result for (stage, key), computing it at most
  /// once across all threads. `compute` must return a value convertible
  /// to std::shared_ptr<const T> (typically make_shared<T>). All callers
  /// must use the same T per stage name — the cache stores type-erased
  /// pointers and casts on the way out.
  template <typename T, typename Compute>
  std::shared_ptr<const T> get_or_compute(const std::string& stage, std::uint64_t key,
                                          Compute&& compute) {
    const std::shared_ptr<Entry> entry = intern(stage, key);
    std::unique_lock lock(entry->mutex);
    entry->done.wait(lock, [&] { return entry->state != State::kComputing; });
    if (entry->state == State::kReady) {
      std::shared_ptr<const void> value = entry->value;
      lock.unlock();
      record(stage, false);
      return std::static_pointer_cast<const T>(std::move(value));
    }
    entry->state = State::kComputing;
    lock.unlock();
    // Compute outside every lock: a slow compute (graph build, symbolic
    // count) must not serialize unrelated keys in its shard.
    std::shared_ptr<const void> value;
    try {
      value = std::static_pointer_cast<const void>(std::shared_ptr<const T>(compute()));
    } catch (...) {
      lock.lock();
      entry->state = State::kEmpty;
      lock.unlock();
      entry->done.notify_one();
      throw;
    }
    lock.lock();
    entry->value = value;
    entry->state = State::kReady;
    lock.unlock();
    entry->done.notify_all();
    record(stage, true);
    return std::static_pointer_cast<const T>(std::move(value));
  }

  StageCacheStats stats() const;

 private:
  enum class State : std::uint8_t { kEmpty, kComputing, kReady };

  struct Entry {
    std::mutex mutex;
    std::condition_variable done;  ///< signalled when state leaves kComputing
    State state = State::kEmpty;
    std::shared_ptr<const void> value;  ///< set once, when state becomes kReady
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> map;
  };

  std::shared_ptr<Entry> intern(const std::string& stage, std::uint64_t key);
  void record(const std::string& stage, bool execution);

  std::vector<Shard> shards_;

  mutable std::mutex stats_mutex_;
  std::unordered_map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      stage_stats_;  ///< stage -> (hits, executions)
};

}  // namespace gf::serve
