// Graph executor: runs one training step of a bound graph numerically.
//
// Weights, weight gradients and optimizer slots persist across steps (so
// repeated run_step() calls really train). Every other tensor lives at a
// fixed offset in one slab laid out by the static memory plan
// (src/runtime/memplan.h): liveness over the topological schedule, the
// analysis behind the paper's Fig 10 footprint, fixed once before the
// first step. A steady-state step therefore performs no per-op heap
// allocation, and the arena peak is the planned peak. Every kernel reports
// executed FLOPs/bytes into a TFprof-style profile.
//
// Two schedules share the same kernels, slab and accounting:
//
//  - kSequential: the classic one-op-at-a-time topological walk.
//  - kWavefront (default): dependency-counted inter-op parallelism on a
//    ThreadPool. The countdown DAG is the data DAG plus the plan's reuse
//    edges, so an op that first writes a reused slab range waits for every
//    accessor of the range's previous occupant. Workers run ops whose
//    countdown hit zero and, on retirement, release their successors.
//    Intra-op kernels (`parallel_for`) share the same pool without
//    deadlock.
//
// ASan builds poison the slab outside the extents of produced tensors:
// each planned tensor is unpoisoned just before its producer runs, and
// after the step only retained tensors stay readable. A tensor whose
// consumers have all retired stays readable until the step ends.
//
// Results are bitwise-deterministic and schedule/thread-count independent:
// every tensor is filled from its own RNG stream keyed by tensor id, each
// kernel writes disjoint output locations with a fixed intra-op reduction
// order, gradient accumulation order is fixed by graph structure (pairwise
// adds), and profile totals are folded in topological order after the step.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
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

/// Always true: every executor runs under the static memory plan. Kept
/// because the benchmark harness (perfbench/main.cpp) checks it; the
/// GF_MEMORY_PLAN variable it once read no longer exists.
bool memory_plan_env_default();

/// Always true: fusion is ExecutorOptions::fuse's default. Kept because the
/// benchmark harness (perfbench/main.cpp) checks it; the GF_FUSE variable
/// it once read no longer exists.
bool fuse_env_default();

/// Always true: fused programs always run compiled. Kept because the
/// benchmark harness (perfbench/main.cpp) checks it.
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
  /// Graph-level op fusion (src/ir/fusion.h): the executor clones the
  /// graph (original tensor ids preserved, so RNG streams — and therefore
  /// all results — stay bitwise-identical), rewrites the clone, and runs
  /// that. Public APIs keep accepting original-graph tensors; asking for a
  /// fused-away intermediate throws std::invalid_argument. False runs the
  /// caller's graph as built: the what-if workflow profiles that unfused
  /// step to predict what fusion buys.
  bool fuse = true;
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

  /// Keeps the named activation's value available after run_step(), from
  /// the next step on. Under fusion the tensor must have survived the
  /// rewrite (fused-away intermediates throw std::invalid_argument).
  void retain(const ir::Tensor* tensor);

  /// The memory plan the last step ran under, or nullptr before the first
  /// step. Rebuilt on the first run_step() after retain() / new pins.
  const MemoryPlan* memory_plan() const { return plan_ ? &*plan_ : nullptr; }

  /// Mutable access to persistent state (weights, weight gradients,
  /// optimizer slots).
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
  /// lowered once (src/runtime/codegen/lowering.h) and its kScale alphas
  /// evaluated under the executor's bindings and narrowed to float. Steps
  /// run `lowered` on codegen::active_isa(). FusedPointwiseOp caps its
  /// inputs at codegen's load slots, so every program compiles.
  struct FusedKernel {
    codegen::LoweredProgram lowered;
    std::vector<float> alphas;
  };
  /// Kernel I/O resolved to stable buffer pointers once per plan, so
  /// workers never touch the tensor maps.
  struct ResolvedOp {
    const ir::Op* op = nullptr;
    /// The op's entry in fused_kernels_ (FusedPointwise ops only).
    const FusedKernel* fused = nullptr;
    std::vector<DenseTensor*> in;
    std::vector<DenseTensor*> out;
    /// Exact slab extents of the op's planned outputs, unpoisoned in ASan
    /// builds immediately before the kernel runs.
    std::vector<std::pair<void*, std::size_t>> extents;
    /// Planned, non-aliased outputs to zero-fill immediately before the
    /// kernel runs: slab regions hold a previous occupant's bytes, and
    /// scatter kernels like pool_grad/embedding_grad expect a zeroed
    /// output. Zeroing happens at execution time, so the plan's reuse
    /// edges order it after the previous occupant's last access. Aliased
    /// outputs are never zeroed — their storage IS the op's live input.
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
  void random_fill(const ir::Tensor* tensor, DenseTensor& value);
  DenseTensor& storage(const ir::Tensor* tensor);

  /// Fills producerless tensors (inputs, gradient seeds) — the common step
  /// prologue for both schedules.
  void prepare_step();
  void execute_resolved(const ResolvedOp& r, KernelStats& stats);
  /// (Re)builds the memory plan, the slab with one view per planned
  /// tensor, the reuse-edge-augmented scheduling DAG and resolved_.
  void build_plan();
  /// Poisons the slab (ASan builds) except the retained tensors' extents.
  void poison_slab();

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
  /// One slab view per planned tensor, rebuilt with the plan.
  std::unordered_map<const ir::Tensor*, DenseTensor> transient_;
  std::unordered_set<const ir::Tensor*> retained_;
  ArenaAccounting arena_;

  // Memory-plan state, built on the first step and after retain() / new
  // pins mark it dirty.
  std::optional<MemoryPlan> plan_;
  bool plan_dirty_ = true;
  AlignedVector<unsigned char> slab_;
  /// Scheduler DAG augmented with the plan's reuse edges; both schedules
  /// and the exported timeline deps use it.
  std::vector<std::vector<std::size_t>> planned_successors_;
  std::vector<std::size_t> planned_predecessor_count_;
  /// Indexed like dag_.order.
  std::vector<ResolvedOp> resolved_;
};

}  // namespace gf::rt
