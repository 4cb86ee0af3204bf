// Multi-worker data-parallel training with a real shared-memory ring
// allreduce — the measured counterpart of the §6 analytic model in
// src/plan/allreduce.h.
//
// DataParallelRunner shards one training-step batch across N in-process
// Executor instances (each with its own thread pool, arena, and memory
// plan), runs forward/backward per shard, allreduces the weight gradients
// through a bucketed Patarasuk–Yuan ring over shared memory, and applies
// the averaged gradients with the same optimizer kernels a single executor
// would use. Every byte the model says moves, moves.
//
// Bitwise determinism across worker counts
// ----------------------------------------
// Float addition is not associative, so an in-flight ring fold (each hop
// adding the neighbor's chunk) orders sums by ring rotation and can never
// be worker-count-independent. The runner instead fixes the reduction
// *shape* up front: the global batch is cut into S logical micro-shards
// (S = grad_shards, independent of N), each worker runs S/N sequential
// micro-steps over its contiguous block of shards, and gradients combine
// with one canonical adjacent-pairing tree over the S shard gradients —
// pair neighbors, carry an odd tail, repeat. A worker's local accumulation
// over its aligned power-of-two block of S/N leaves is exactly that tree's
// subtree, so the cross-worker reduction (performed at each chunk's owner
// in worker-index order) continues the same association no matter how the
// leaves were distributed: N ∈ {1, 2, 4, 8} produce identical bits, and
// dividing by S (a power of two) is an exact multiply. The ring still
// *moves* the bytes Patarasuk–Yuan moves — each of the 2(N-1) lockstep
// steps copies one K/N chunk per worker, with a conc::Barrier standing in
// for the per-hop synchronization a wire ring pays as message latency —
// it just stages contributions instead of folding them in rotation order.
//
// Schedule and stragglers
// -----------------------
// A step is the synchronous SGD step §6 prices (plan::evaluate_data_parallel):
// compute, then the ring allreduce. Each worker's thread runs its S/N
// micro-steps, tree-reduces its gradients, runs the ring for every bucket
// in the fixed bucket order and applies the update. Seeded
// per-(worker, micro-step) lognormal delays (mirroring ext_stragglers'
// jitter model) inject deterministic stragglers; the injected delays are
// exposed so benches can gate the measured degradation against the
// analytic max-over-workers bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/concurrency/barrier.h"
#include "src/concurrency/thread_pool.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"
#include "src/runtime/executor.h"

namespace gf::rt {

/// One gradient's contiguous placement inside a bucket.
struct GradSlice {
  std::size_t grad_index = 0;  ///< position in DataParallelRunner's fixed gradient order
  std::size_t offset = 0;      ///< float offset inside the bucket
  std::size_t elems = 0;
};

/// One allreduce bucket: a contiguous float span covering whole gradients.
struct GradBucket {
  std::size_t elems = 0;
  std::vector<GradSlice> slices;
};

/// Greedily packs gradients (sizes in floats, in their fixed order) into
/// buckets of at most `bucket_elems` floats. A gradient never splits
/// across buckets; one larger than the target gets its own oversized
/// bucket. Pure and deterministic.
std::vector<GradBucket> plan_buckets(const std::vector<std::size_t>& grad_elems,
                                     std::size_t bucket_elems);

/// Patarasuk–Yuan chunking: `elems` cut into `workers` contiguous
/// (offset, length) chunks of ceil(elems/workers), the last ragged;
/// trailing chunks are empty when elems < workers. Chunk w is owned
/// (reduced) by worker w.
std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(std::size_t elems,
                                                              std::size_t workers);

/// Largest fan-in pairwise_tree_reduce accepts.
inline constexpr std::size_t kMaxTreeReduceCount = 64;

/// Element-wise sum of `count` equal-length float arrays using the
/// canonical adjacent-pairing tree: combine neighbors, carry an odd tail
/// to the next level, repeat. The association over S leaves equals the
/// association over any partition of those leaves into contiguous
/// power-of-two blocks (reduce each block first, then the block sums) —
/// the property the worker-count-independence of the runner rests on.
/// count == 1 is a copy; count must be in [1, kMaxTreeReduceCount].
void pairwise_tree_reduce(float* dst, const float* const* srcs, std::size_t count,
                          std::size_t elems);

/// Calibration microbenchmarks for the α-β cross-check: the measured cost
/// of one N-thread Barrier crossing (the runner's stand-in for per-hop
/// latency α) and the single-thread large-copy bandwidth β in bytes/s.
double measure_barrier_seconds(int workers);
double measure_copy_bandwidth();

struct DataParallelOptions {
  int workers = 1;
  /// Fixed reduction granularity S: the global batch always splits into S
  /// micro-shards and gradients always reduce as one S-leaf tree, so the
  /// result is a function of S alone, not of N. Requires workers | S,
  /// S/workers a power of two (the aligned-subtree condition above) and
  /// S <= kMaxTreeReduceCount (the tree's fan-in over the S micro losses).
  int grad_shards = 8;
  /// Target bucket payload; gradients pack greedily up to this size.
  std::size_t bucket_bytes = std::size_t{64} * 1024;
  /// Intra-op pool threads per worker executor.
  std::size_t threads_per_worker = 1;
  /// Straggler injection: per-(worker, micro-step) sleep of
  /// straggler_scale_seconds * max(0, lognormal(-σ²/2, σ) - 1), sampled
  /// once at construction from straggler_seed (ext_stragglers' jitter
  /// model). σ = 0 disables. Sleeps never change computed bits.
  double straggler_sigma = 0.0;
  unsigned straggler_seed = 1234;
  double straggler_scale_seconds = 1e-3;
  /// Name of the batch symbol in the bindings (models use "batch").
  std::string batch_symbol = "batch";
  /// Per-worker executor configuration. `pool` is ignored (each worker
  /// owns a pool) and `apply_updates` is forced off — the runner applies
  /// the *averaged* gradients itself with the graph's optimizer kernels.
  ExecutorOptions executor;
};

/// Per-worker timing of one step.
struct WorkerStepStats {
  /// Sum of the micro-steps' run_step() wall times, each timed around the
  /// call, so the executor's prologue (plan, fills, panel packing) counts
  /// as compute.
  double compute_seconds = 0;
  double delay_seconds = 0;    ///< injected straggler sleep
  double comm_seconds = 0;     ///< sum of ring-phase durations (incl. barrier waits)
};

/// Per-bucket ring measurement (max across workers per phase).
struct BucketStats {
  std::size_t payload_bytes = 0;  ///< K: the bucket's gradient bytes
  double reduce_scatter_seconds = 0;
  double allgather_seconds = 0;
  double ring_seconds() const { return reduce_scatter_seconds + allgather_seconds; }
  /// Achieved per-worker wire rate: each phase moves (N-1)/N * K per
  /// worker, so the ring realizes 2(N-1)/N * K / ring_seconds().
  double bandwidth(int workers) const;
};

struct DataParallelStepResult {
  float loss = 0;  ///< canonical-tree mean of the S micro losses
  double wall_seconds = 0;
  std::vector<WorkerStepStats> workers;
  std::vector<BucketStats> buckets;
  /// Merged timeline: worker w's micro-step op events on its lane block
  /// [w(T+1), (w+1)(T+1)), T = threads_per_worker, plus two
  /// "comm"-category events per bucket on the worker thread's own lane
  /// w(T+1) (kernel_class "ring-allreduce", so `gfctl whatif --scale
  /// ring-allreduce` prices a faster interconnect). Each worker's first
  /// ring event depends on its last micro-step's final op. Re-indexed and
  /// dep-remapped to stay whatif-loadable.
  ProfileReport timeline;
};

class DataParallelRunner {
 public:
  /// `loss` (may be null) is retained in every worker and reported as the
  /// global step loss. `global_bindings` must bind batch_symbol to a
  /// multiple of grad_shards; each worker executor runs at batch/S.
  DataParallelRunner(const ir::Graph& graph, const ir::Tensor* loss,
                     const sym::Bindings& global_bindings, DataParallelOptions options = {});
  ~DataParallelRunner();

  DataParallelRunner(const DataParallelRunner&) = delete;
  DataParallelRunner& operator=(const DataParallelRunner&) = delete;

  /// Runs one data-parallel training step: micro-steps, ring allreduce,
  /// optimizer update on every worker. Rethrows the first error a worker
  /// hit (not the barrier abort that released its peers); a failed step
  /// poisons the runner (the gang's barriers are broken), so subsequent
  /// step() calls throw.
  DataParallelStepResult step();

  int workers() const { return options_.workers; }
  int grad_shards() const { return options_.grad_shards; }
  int micro_steps() const { return options_.grad_shards / options_.workers; }
  const std::vector<GradBucket>& buckets() const { return buckets_; }
  /// Weight-gradient tensors (original graph) in the fixed reduction
  /// order buckets were packed in.
  const std::vector<const ir::Tensor*>& gradient_tensors() const { return grad_tensors_; }
  double total_gradient_bytes() const;

  /// Averaged gradient of `grad` after the last step() (worker 0's copy;
  /// every worker holds identical bits).
  const DenseTensor& averaged_gradient(const ir::Tensor* grad) const;

  /// Worker w's executor — e.g. to read weights after a step (identical
  /// bits on every worker) or to pin extra inputs before stepping.
  Executor& worker_executor(int w);

  /// The deterministic straggler sleep for (worker, micro_step), fixed at
  /// construction — benches compute the analytic degradation bound
  /// (max over workers of the summed delays) from these before running.
  double straggler_delay(int worker, int micro_step) const;

 private:
  struct Worker;

  void build_global_inputs(const ir::Graph& graph, const sym::Bindings& global_bindings);
  void run_worker(int w);
  void ring_bucket(int w, std::size_t b);
  void apply_updates(int w);
  void note_error(std::exception_ptr error) noexcept;
  /// Consumes the workers' micro-step timelines and ring events.
  ProfileReport merge_timeline(double wall_seconds);

  DataParallelOptions options_;
  const ir::Graph* graph_ = nullptr;
  const ir::Tensor* loss_ = nullptr;
  sym::Bindings micro_bindings_;

  /// Fixed gradient order (by producer position in the original graph) and
  /// the per-grad apply info mirrored from the graph's ApplyGradient ops.
  struct GradInfo {
    const ir::Tensor* weight = nullptr;
    const ir::Tensor* grad = nullptr;
    std::vector<const ir::Tensor*> slots;
    ir::Optimizer optimizer{};
    std::size_t elems = 0;
    std::size_t flat_offset = 0;  ///< bucket offset + slice offset
  };
  std::vector<GradInfo> grads_;
  std::vector<const ir::Tensor*> grad_tensors_;
  std::vector<GradBucket> buckets_;
  std::vector<std::size_t> bucket_offsets_;  ///< bucket start in the flat span
  std::size_t total_elems_ = 0;
  std::size_t max_chunk_elems_ = 0;

  /// Micro-shard input slices: micro_inputs_[s] holds one value per input
  /// tensor of shard s, cut from the deterministically generated global
  /// batch (inputs_[i] names the tensor).
  std::vector<const ir::Tensor*> inputs_;
  std::vector<std::vector<DenseTensor>> micro_inputs_;

  std::vector<std::vector<double>> straggler_delays_;  ///< [worker][micro]
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<conc::Barrier> comm_barrier_;

  // Step-scoped shared state (written by worker threads, read after join).
  std::vector<float> micro_losses_;
  std::mutex error_mutex_;
  std::exception_ptr error_;
  bool poisoned_ = false;  ///< a step failed; barriers are broken
};

}  // namespace gf::rt
