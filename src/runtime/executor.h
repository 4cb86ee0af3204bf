// Graph executor: runs one training step of a bound graph numerically.
//
// Weights and optimizer slots persist across steps (so repeated run_step()
// calls really train), activations are allocated and freed by liveness
// (so the arena peak independently measures the footprint the symbolic
// estimator predicts), and every kernel reports executed FLOPs/bytes into
// a TFprof-style profile.
//
// Two schedules share the same kernels and accounting:
//
//  - kSequential: the classic one-op-at-a-time topological walk.
//  - kWavefront (default): dependency-counted inter-op parallelism on a
//    ThreadPool. The dispatch thread allocates op outputs in topological
//    order, gated so live bytes never exceed the sequential schedule's
//    peak (memory backpressure); workers execute ops whose predecessor
//    countdown hit zero and, on retirement, free dead activations and
//    release successors. Intra-op kernels (`parallel_for`) share the same
//    pool without deadlock.
//
// Results are bitwise-deterministic and schedule/thread-count independent:
// every tensor is filled from its own RNG stream keyed by tensor id, each
// kernel writes disjoint output locations with a fixed intra-op reduction
// order, gradient accumulation order is fixed by graph structure (pairwise
// adds), and profile totals are folded in topological order after the step.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/concurrency/thread_pool.h"
#include "src/ir/fusion.h"
#include "src/ir/graph.h"
#include "src/runtime/arena.h"
#include "src/runtime/codegen/lowering.h"
#include "src/runtime/dense_tensor.h"
#include "src/runtime/kernels.h"
#include "src/runtime/memplan.h"
#include "src/runtime/profiler.h"

namespace gf::rt {

/// Default for ExecutorOptions::memory_plan: true when the GF_MEMORY_PLAN
/// environment variable is set to a non-empty, non-"0" value. Lets CI run
/// the full test suite with planning on without touching call sites.
bool memory_plan_env_default();

/// Default for ExecutorOptions::fuse, from GF_FUSE (same convention as
/// GF_MEMORY_PLAN): CI runs the full suite fused without touching call
/// sites.
bool fuse_env_default();

/// Always true: fused programs always run compiled. Kept because the
/// benchmark harness (perfbench/main.cpp) checks it alongside the GF_FUSE
/// and GF_MEMORY_PLAN defaults.
bool simd_env_default();

/// Inter-op scheduling policy for run_step().
enum class Schedule : std::uint8_t {
  kSequential,  ///< one op at a time, in topological order
  kWavefront,   ///< dependency-counted parallel execution on the pool
};

struct ExecutorOptions {
  unsigned seed = 42;
  double learning_rate = 0.05;
  /// When false, ApplyGradient ops are skipped (weights frozen) — used by
  /// finite-difference gradient checks.
  bool apply_updates = true;
  conc::ThreadPool* pool = nullptr;  ///< defaults to the global pool
  Schedule schedule = Schedule::kWavefront;
  /// Debug mode: run the full verify:: pass suite (structure, shapes,
  /// symbolic, gradients, races) over the graph before anything is
  /// dispatched, and throw std::logic_error on error-severity findings.
  /// Off by default — verification is O(graph) per Executor, and built-in
  /// models are already linted in CI.
  bool verify = false;
  /// Static memory planning: place every non-persistent tensor at a fixed
  /// offset in one slab (see src/runtime/memplan.h), so a step performs
  /// zero per-op heap allocations and the arena peak equals the planned
  /// peak exactly. Default follows GF_MEMORY_PLAN (off otherwise): per-op
  /// heap allocation stays the default so sanitizer CI keeps byte-accurate
  /// bounds checking on every tensor.
  bool memory_plan = memory_plan_env_default();
  /// Graph-level op fusion (src/ir/fusion.h): the executor clones the
  /// graph (original tensor ids preserved, so RNG streams — and therefore
  /// all results — stay bitwise-identical), rewrites the clone, and runs
  /// that. Public APIs keep accepting original-graph tensors; asking for a
  /// fused-away intermediate throws std::invalid_argument. Default follows
  /// GF_FUSE (off otherwise), mirroring memory_plan.
  bool fuse = fuse_env_default();
  /// Completion hook: called once per executed op, after its kernel
  /// finished writing the op's outputs, from the thread that ran the
  /// kernel (a pool worker under kWavefront, the caller under
  /// kSequential). By the time it fires the op's outputs are final, so a
  /// hook may read them — the data-parallel runner uses this to start a
  /// gradient bucket's allreduce as soon as its producers retire, while
  /// the rest of backward is still executing. Keep it cheap: under
  /// kWavefront it runs on (and blocks) a pool worker. An exception
  /// thrown from the hook aborts the step like a kernel error.
  /// `op_index` is the op's position in the executing graph's topological
  /// order (matches TimelineEvent::op_index).
  std::function<void(const ir::Op& op, std::size_t op_index)> on_op_retired;
};

/// The executor's deterministic producerless-tensor fill as a free
/// function: a fresh RNG stream keyed by (seed, tensor id) — never by
/// schedule, thread count, or binding — filling weights from N(0, 0.2),
/// other floats from N(0, 1), and integer inputs uniformly below the range
/// their consumers imply (embedding rows, softmax classes; `bindings`
/// evaluates those bounds). Executors use exactly this for unpinned
/// inputs, so external code (the data-parallel runner's global batch) can
/// reproduce an executor's input stream bit-for-bit at a different batch
/// binding.
void deterministic_fill(const ir::Tensor* tensor, const sym::Bindings& bindings,
                        unsigned seed, DenseTensor& value);

class Executor {
 public:
  Executor(const ir::Graph& graph, sym::Bindings bindings, ExecutorOptions options = {});

  /// Pins an input to a fixed value (otherwise inputs are randomly filled
  /// each step from the deterministic per-tensor stream).
  void set_input(const ir::Tensor* tensor, DenseTensor value);

  /// Keeps the named activation's value available after run_step(). Under
  /// fusion the tensor must have survived the rewrite (fused-away
  /// intermediates throw std::invalid_argument).
  void retain(const ir::Tensor* tensor);

  /// The active memory plan, or nullptr when planning is off. Built lazily
  /// on the first run_step() after construction / retain() / new pins.
  const MemoryPlan* memory_plan() const { return plan_active_ ? &plan_ : nullptr; }

  /// Mutable access to persistent state (weights / optimizer slots).
  DenseTensor& weight_value(const ir::Tensor* tensor);

  /// Value of a retained or persistent tensor after the last step.
  const DenseTensor& value(const ir::Tensor* tensor) const;

  /// Executes one full training step; returns the execution profile.
  /// Rethrows the first kernel error (the step is abandoned; in-flight
  /// ops are drained first).
  ProfileReport run_step();

  /// The graph the executor actually runs: the fused clone when
  /// options.fuse is set, the caller's graph otherwise. Lets benchmarks
  /// evaluate the rewritten graph's symbolic FLOP/byte formulas.
  const ir::Graph& executing_graph() const { return *graph_; }

  /// Rewrite statistics, or nullptr when fusion is off.
  const ir::FusionResult* fusion_result() const {
    return options_.fuse ? &fusion_ : nullptr;
  }

  /// Translates a caller's (original-graph) tensor into the executing
  /// graph's — identity when fusion is off. Use it to key lookups into
  /// memory_plan() or executing_graph(). Throws std::invalid_argument for
  /// tensors the rewrite eliminated.
  const ir::Tensor* resolve(const ir::Tensor* tensor) const { return map_tensor(tensor); }

 private:
  /// A FusedPointwiseOp compiled when the executor is built: the program
  /// lowered once (src/runtime/codegen/lowering.h), its kScale alphas
  /// evaluated under the executor's bindings and narrowed to float, and
  /// whether the vector executor can run it (codegen::compilable). Steps
  /// run `lowered` on codegen::active_isa(), or the interpreter when it is
  /// not compilable; either way each timeline event records which class
  /// ran ("pointwise-simd" / "pointwise-interp").
  struct FusedKernel {
    codegen::LoweredProgram lowered;
    std::vector<float> alphas;
    bool compilable = false;
  };
  /// Kernel I/O resolved to stable buffer pointers at dispatch time, so
  /// workers never touch the tensor maps concurrently.
  struct ResolvedOp {
    const ir::Op* op = nullptr;
    /// The op's entry in fused_kernels_ (FusedPointwise ops only).
    const FusedKernel* fused = nullptr;
    std::vector<DenseTensor*> in;
    std::vector<DenseTensor*> out;
    /// Planned, non-aliased outputs to zero-fill immediately before the
    /// kernel runs: slab regions hold a previous occupant's bytes, while
    /// the heap path hands every op a fresh zeroed buffer (scatter kernels
    /// like pool_grad/embedding_grad rely on that). Zeroing happens at
    /// execution (not dispatch) time so it is ordered after the previous
    /// occupant's last access by the plan's reuse edges. Aliased outputs
    /// are never zeroed — their storage IS the op's live input.
    std::vector<DenseTensor*> zero_first;
  };
  /// Per-op result slot; each op writes only its own (disjoint) slot, and
  /// run_step folds slots into the report in topological order so totals
  /// are independent of retirement order.
  struct OpSlot {
    KernelStats stats;
    double start_seconds = 0;
    double end_seconds = 0;
    int worker = -1;
  };

  /// Translates a caller-facing (original-graph) tensor to the executing
  /// graph's. Identity when fusion is off; throws std::invalid_argument
  /// for tensors the rewrite eliminated.
  const ir::Tensor* map_tensor(const ir::Tensor* tensor) const;
  DenseTensor& materialize(const ir::Tensor* tensor);
  void random_fill(const ir::Tensor* tensor, DenseTensor& value);
  DenseTensor& storage(const ir::Tensor* tensor);
  std::size_t tensor_bytes(const ir::Tensor* tensor) const;

  /// Drops stale transients, materializes producerless tensors (inputs,
  /// gradient seeds) — the common step prologue for both schedules.
  void prepare_step();
  /// Frees `tensor` if it is transient, unpinned, unretained, and its
  /// pending-consumer count reached zero.
  void free_if_dead(const ir::Tensor* tensor,
                    const std::unordered_map<const ir::Tensor*, std::size_t>& pending);
  /// Resolves dag_.order[i].
  ResolvedOp resolve(std::size_t i);
  void execute_resolved(const ResolvedOp& r, KernelStats& stats);
  /// (Re)builds the memory plan, the slab, and the reuse-edge-augmented
  /// scheduling DAG. Any existing slab views are dropped first.
  void build_plan();
  /// Sequential arena trajectory from the current step-start state; its
  /// peak is the wavefront scheduler's allocation budget.
  std::size_t simulated_sequential_peak() const;

  ProfileReport run_step_sequential();
  ProfileReport run_step_wavefront();
  ProfileReport fold_report(const std::vector<OpSlot>& slots, double wall_seconds) const;

  const ir::Graph* graph_;
  sym::Bindings bindings_;
  ExecutorOptions options_;
  conc::ThreadPool* pool_;
  /// Fusion state (set only when options_.fuse): the rewritten clone the
  /// executor runs, its rewrite stats, and original -> clone translation
  /// for every surviving tensor.
  std::unique_ptr<ir::Graph> fused_graph_;
  ir::FusionResult fusion_;
  std::unordered_map<const ir::Tensor*, const ir::Tensor*> remap_;
  ir::OpDag dag_;
  /// Indexed like dag_.order; filled for FusedPointwise ops only.
  std::vector<FusedKernel> fused_kernels_;

  std::unordered_map<const ir::Tensor*, std::vector<std::int64_t>> shapes_;
  std::unordered_map<const ir::Tensor*, DenseTensor> persistent_;
  std::unordered_map<const ir::Tensor*, DenseTensor> pinned_inputs_;
  std::unordered_map<const ir::Tensor*, DenseTensor> transient_;
  std::unordered_set<const ir::Tensor*> retained_;
  ArenaAccounting arena_;

  // Memory-plan state (unused when options_.memory_plan is false).
  MemoryPlan plan_;
  bool plan_active_ = false;
  bool plan_dirty_ = true;
  AlignedVector<unsigned char> slab_;
  /// Scheduler DAG augmented with the plan's reuse edges; the wavefront
  /// schedule uses these instead of dag_'s when the plan is active.
  std::vector<std::vector<std::size_t>> planned_successors_;
  std::vector<std::size_t> planned_predecessor_count_;
};

}  // namespace gf::rt
