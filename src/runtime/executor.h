// Graph executor: runs one training step of a bound graph numerically.
//
// The executor runs its own clone of the caller's graph (tensor ids kept),
// rewritten once at construction: ir::stack_weight_gradients turns each
// recurrent weight's per-timestep gradient GEMMs and their add chain into
// one GEMM with K = T·b, then ir::fuse_graph runs if ExecutorOptions::fuse
// is set. Callers keep addressing tensors of their own graph; the executor
// translates them.
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
// Shared weights are packed once per step. A weight that two or more
// MatMuls read as a rank-2 B operand with the same trans_b (each recurrent
// layer's W: `z_t·W` and `dgates_t·Wᵀ` at every timestep) gets one
// packed-panel copy of op(B) per trans_b (gemm.h, pack_b_panels), laid
// out for default_gemm_tiling() in one mapped region per plan; a step
// under a different tiling re-plans first. Every step's prologue packs
// all panels from the weights' current values, so a write through
// weight_value() between steps takes effect at the next step, and those
// MatMuls read the panel instead of packing the weight per call. The
// panels are GEMM scratch: ArenaAccounting does not charge them, so the
// arena peak stays the planned peak. No transformer or ResNet weight
// qualifies; those MatMuls pack per call as before.
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
// order, gradient accumulation order is fixed by the rewritten graph's
// structure (one GEMM's k order for a stacked weight, the autodiff add
// chain otherwise), and profile totals are folded in topological order
// after the step.
#pragma once

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
  /// Debug mode: run the full verify:: pass suite over the rewritten
  /// clone the executor will run, before anything is dispatched, and
  /// throw std::logic_error on error-severity findings.
  /// Off by default — verification is O(graph) per Executor, and built-in
  /// models are already linted in CI.
  bool verify = false;
  /// Graph-level op fusion (src/ir/fusion.h) on the executor's clone,
  /// after weight-gradient stacking. Fusion keeps every bit, so this
  /// selects speed only; asking for a fused-away intermediate throws
  /// std::invalid_argument. False runs the stacked clone unfused: the
  /// what-if workflow profiles that step to predict what fusion buys.
  bool fuse = true;
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
  /// the next step on. The tensor must have survived the executor's
  /// rewrites (eliminated intermediates throw std::invalid_argument).
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

  /// The graph the executor actually runs: its clone of the caller's
  /// graph after weight-gradient stacking and, when options.fuse is set,
  /// fusion. Lets benchmarks evaluate the rewritten graph's symbolic
  /// FLOP/byte formulas.
  const ir::Graph& executing_graph() const { return *graph_; }

  /// Rewrite statistics, or nullptr when fusion is off.
  const ir::FusionResult* fusion_result() const {
    return options_.fuse ? &fusion_ : nullptr;
  }

  /// A weight packed once per step for the MatMuls that share it (see the
  /// header comment): one entry per (weight, trans_b).
  struct PackedWeight {
    const ir::Tensor* weight = nullptr;  ///< a tensor of executing_graph()
    bool trans_b = false;
    /// The MatMuls handed the panel, as positions in
    /// ir::build_op_dag(executing_graph()).order (the timeline's op_index).
    std::vector<std::size_t> readers;
  };
  /// Every packed weight, in order of its first reader; fixed at
  /// construction.
  const std::vector<PackedWeight>& packed_weights() const { return packed_weights_; }

  /// Translates a caller's (original-graph) tensor into the executing
  /// graph's. Use it to key lookups into memory_plan() or
  /// executing_graph(). Throws std::invalid_argument for tensors the
  /// rewrites eliminated.
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
    /// The packed panel of the op's B operand (MatMuls reading a packed
    /// weight only).
    const float* b_packed = nullptr;
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
  /// A producerless slab tensor (unpinned input or gradient seed) and the
  /// value prepare_step copies into its planned extent every step.
  struct StepFill {
    unsigned char* slab = nullptr;
    std::size_t bytes = 0;
    DenseTensor value;
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
  /// graph's; throws std::invalid_argument for tensors the rewrites
  /// eliminated.
  const ir::Tensor* map_tensor(const ir::Tensor* tensor) const;
  void random_fill(const ir::Tensor* tensor, DenseTensor& value);
  DenseTensor& storage(const ir::Tensor* tensor);

  /// Copies the step fills into the slab and packs every shared weight's
  /// panel — the common step prologue for both schedules.
  void prepare_step();
  void execute_resolved(const ResolvedOp& r, KernelStats& stats);
  /// (Re)builds the memory plan, the slab with one view per planned
  /// tensor, the panel region for the tiling in force, the
  /// reuse-edge-augmented scheduling DAG and resolved_.
  void build_plan();
  /// Poisons the slab (ASan builds) except the retained tensors' extents.
  void poison_slab();

  ProfileReport run_step_sequential();
  ProfileReport run_step_wavefront();
  ProfileReport fold_report(const std::vector<OpSlot>& slots, double wall_seconds) const;

  sym::Bindings bindings_;
  ExecutorOptions options_;
  conc::ThreadPool* pool_;
  /// The rewritten clone the executor runs, its fusion stats (empty when
  /// fusion is off), and original -> clone translation for every
  /// surviving tensor.
  std::unique_ptr<ir::Graph> graph_;
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
  PageBuffer slab_;
  /// Scheduler DAG augmented with the plan's reuse edges; both schedules
  /// and the exported timeline deps use it.
  std::vector<std::vector<std::size_t>> planned_successors_;
  std::vector<std::size_t> planned_predecessor_count_;
  /// Indexed like dag_.order.
  std::vector<ResolvedOp> resolved_;
  /// Built with the plan: every producerless slab tensor's fill.
  std::vector<StepFill> step_fills_;

  std::vector<PackedWeight> packed_weights_;
  /// Built with the plan: the tiling the panels are packed for, the one
  /// region holding them, and each panel's start (indexed like
  /// packed_weights_).
  GemmTiling panel_tiling_;
  PageBuffer panel_pages_;
  std::vector<float*> panels_;
};

}  // namespace gf::rt
