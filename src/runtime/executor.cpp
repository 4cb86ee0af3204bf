#include "src/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <random>
#include <stdexcept>

#include "src/ir/serialize.h"
#include "src/runtime/codegen/dispatch.h"
#include "src/runtime/kernels.h"
#include "src/verify/pass.h"

namespace gf::rt {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::size_t algorithmic_bytes_of(const ir::Tensor& t,
                                 const std::vector<std::int64_t>& shape) {
  std::size_t n = 1;
  for (std::int64_t d : shape) n *= static_cast<std::size_t>(d);
  return n * ir::dtype_bytes(t.dtype());
}

/// Upper bound (exclusive) for random integer content, inferred from how
/// the tensor is consumed (embedding rows, softmax classes).
std::int64_t infer_int_range(const ir::Tensor* t, const sym::Bindings& bind) {
  for (const ir::Op* op : t->consumers()) {
    if (op->type() == ir::OpType::kEmbeddingLookup && op->input(1) == t)
      return static_cast<std::int64_t>(op->input(0)->shape().dim(0).eval(bind));
    if (op->type() == ir::OpType::kSoftmaxXent && op->input(1) == t)
      return static_cast<std::int64_t>(op->input(0)->shape().dim(1).eval(bind));
    if (op->type() == ir::OpType::kSoftmaxXentGrad && op->input(1) == t)
      return static_cast<std::int64_t>(op->input(0)->shape().dim(1).eval(bind));
  }
  return 2;
}

}  // namespace

bool memory_plan_env_default() {
  const char* env = std::getenv("GF_MEMORY_PLAN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

bool fuse_env_default() {
  const char* env = std::getenv("GF_FUSE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

bool simd_env_default() { return true; }

Executor::Executor(const ir::Graph& graph, sym::Bindings bindings, ExecutorOptions options)
    : graph_(&graph), bindings_(std::move(bindings)), options_(options),
      pool_(options.pool ? options.pool : &conc::ThreadPool::global()) {
  // Opt-in pre-dispatch verification: a graph that fails here would make
  // the wavefront schedule racy or the kernels read out of bounds.
  if (options_.verify) verify::validate_or_throw(graph);
  if (options_.fuse) {
    // Rewrite a clone, never the caller's graph. clone_graph keeps the
    // original tensor ids, so the per-tensor RNG streams — and with them
    // every step result — are bitwise-identical to the unfused run.
    std::unordered_map<const ir::Tensor*, ir::Tensor*> clones;
    fused_graph_ = ir::clone_graph(graph, &clones);
    fusion_ = ir::fuse_graph(*fused_graph_);
    std::unordered_set<const ir::Tensor*> surviving;
    surviving.reserve(fused_graph_->tensors().size());
    for (const auto& t : fused_graph_->tensors()) surviving.insert(t.get());
    for (const auto& [orig, copy] : clones)
      if (surviving.contains(copy)) remap_.emplace(orig, copy);
    graph_ = fused_graph_.get();
    if (options_.verify) verify::validate_or_throw(*graph_);
  }
  dag_ = ir::build_op_dag(*graph_);
  // Compile every fused program once; steps only run the stored form.
  fused_kernels_.resize(dag_.order.size());
  for (std::size_t i = 0; i < dag_.order.size(); ++i) {
    const ir::Op* op = dag_.order[i];
    if (op->type() != ir::OpType::kFusedPointwise) continue;
    const auto& f = static_cast<const ir::FusedPointwiseOp&>(*op);
    FusedKernel& k = fused_kernels_[i];
    k.lowered = codegen::lower_program(f.program(), f.inputs().size());
    k.alphas.reserve(f.program().size());
    for (const ir::FusedInstr& instr : f.program())
      k.alphas.push_back(static_cast<float>(instr.alpha.eval(bindings_)));
    k.compilable = codegen::compilable(k.lowered);
  }
  for (const auto& t : graph_->tensors()) {
    shapes_.emplace(t.get(), t->shape().eval(bindings_));
  }
  // Persistent state: weights (random), optimizer slots (zero).
  for (const auto& t : graph_->tensors()) {
    if (t->role() == ir::TensorRole::kWeight ||
        t->role() == ir::TensorRole::kOptimizerState) {
      DenseTensor value(shapes_.at(t.get()), t->dtype());
      if (t->role() == ir::TensorRole::kWeight) random_fill(t.get(), value);
      arena_.allocate(algorithmic_bytes_of(*t, shapes_.at(t.get())));
      persistent_.emplace(t.get(), std::move(value));
    }
  }
}

std::size_t Executor::tensor_bytes(const ir::Tensor* tensor) const {
  return algorithmic_bytes_of(*tensor, shapes_.at(tensor));
}

void deterministic_fill(const ir::Tensor* tensor, const sym::Bindings& bindings,
                        unsigned seed, DenseTensor& value) {
  // Fixed per-tensor stream: the seed depends only on the executor seed and
  // the tensor id, never on schedule or thread count.
  std::mt19937 rng(seed ^ (0x9e3779b9u * static_cast<unsigned>(tensor->id())));
  if (value.is_float()) {
    const bool is_weight = tensor->role() == ir::TensorRole::kWeight;
    std::normal_distribution<float> dist(0.0f, is_weight ? 0.2f : 1.0f);
    for (std::int64_t i = 0; i < value.numel(); ++i) value.f(i) = dist(rng);
  } else {
    const std::int64_t range = infer_int_range(tensor, bindings);
    std::uniform_int_distribution<std::int32_t> dist(
        0, static_cast<std::int32_t>(range - 1));
    for (std::int64_t i = 0; i < value.numel(); ++i) value.i32(i) = dist(rng);
  }
}

void Executor::random_fill(const ir::Tensor* tensor, DenseTensor& value) {
  deterministic_fill(tensor, bindings_, options_.seed, value);
}

const ir::Tensor* Executor::map_tensor(const ir::Tensor* tensor) const {
  if (!options_.fuse) return tensor;
  auto it = remap_.find(tensor);
  if (it == remap_.end())
    throw std::invalid_argument(
        "tensor '" + tensor->name() +
        "' was eliminated by fusion (ExecutorOptions::fuse / GF_FUSE); only "
        "surviving tensors are addressable");
  return it->second;
}

void Executor::retain(const ir::Tensor* tensor) {
  if (retained_.insert(map_tensor(tensor)).second) plan_dirty_ = true;
}

void Executor::set_input(const ir::Tensor* tensor, DenseTensor value) {
  tensor = map_tensor(tensor);
  if (tensor->role() != ir::TensorRole::kInput)
    throw std::invalid_argument("set_input: not an input tensor");
  const auto& expected = shapes_.at(tensor);
  if (value.shape() != expected)
    throw std::invalid_argument("set_input: shape mismatch for " + tensor->name());
  // A newly pinned input leaves the slab (its storage is caller-owned), so
  // the plan must be recomputed before the next step.
  if (!pinned_inputs_.contains(tensor)) plan_dirty_ = true;
  pinned_inputs_[tensor] = std::move(value);
}

DenseTensor& Executor::weight_value(const ir::Tensor* tensor) {
  auto it = persistent_.find(map_tensor(tensor));
  if (it == persistent_.end())
    throw std::invalid_argument("weight_value: not persistent: " + tensor->name());
  return it->second;
}

const DenseTensor& Executor::value(const ir::Tensor* tensor) const {
  tensor = map_tensor(tensor);
  if (auto it = persistent_.find(tensor); it != persistent_.end()) return it->second;
  if (auto it = transient_.find(tensor); it != transient_.end()) return it->second;
  if (auto it = pinned_inputs_.find(tensor); it != pinned_inputs_.end())
    return it->second;
  throw std::invalid_argument("value: '" + tensor->name() +
                              "' was not retained (call retain() before run_step)");
}

DenseTensor& Executor::storage(const ir::Tensor* tensor) {
  if (auto it = persistent_.find(tensor); it != persistent_.end()) return it->second;
  if (auto it = transient_.find(tensor); it != transient_.end()) return it->second;
  if (auto it = pinned_inputs_.find(tensor); it != pinned_inputs_.end())
    return it->second;
  throw std::logic_error("storage: tensor '" + tensor->name() + "' not materialized");
}

DenseTensor& Executor::materialize(const ir::Tensor* tensor) {
  if (tensor->is_persistent()) {
    // Weight gradients are produced fresh each step.
    auto [it, inserted] = persistent_.try_emplace(tensor);
    if (inserted) {
      it->second = DenseTensor(shapes_.at(tensor), tensor->dtype());
      arena_.allocate(tensor_bytes(tensor));
    }
    return it->second;
  }
  auto [it, inserted] = transient_.try_emplace(tensor);
  if (inserted) {
    const PlannedTensor* pt = plan_active_ ? plan_.find(tensor) : nullptr;
    if (pt != nullptr) {
      // Slab-resident: a non-owning view at the planned offset. The slab
      // was charged to the arena once in build_plan(), so no accounting
      // here; the bytes are NOT zeroed — resolve() schedules zeroing at
      // execution time for non-aliased outputs (ResolvedOp::zero_first).
      it->second =
          DenseTensor::view(shapes_.at(tensor), tensor->dtype(), slab_.data() + pt->offset);
    } else {
      it->second = DenseTensor(shapes_.at(tensor), tensor->dtype());
      arena_.allocate(tensor_bytes(tensor));
    }
  }
  return it->second;
}

void Executor::build_plan() {
  if (plan_active_) {
    // Replacing a plan: stale views point into the old slab; drop them and
    // un-charge the old slab before the new one is accounted.
    for (auto it = transient_.begin(); it != transient_.end();) {
      if (it->second.is_view()) {
        it = transient_.erase(it);
      } else {
        ++it;
      }
    }
    arena_.release(plan_.slab_bytes);
  }
  MemPlanOptions mopts;
  mopts.exclude.reserve(pinned_inputs_.size());
  for (const auto& [t, v] : pinned_inputs_) mopts.exclude.insert(t);
  mopts.retained = retained_;
  plan_ = plan_memory(*graph_, dag_, bindings_, mopts);

  slab_.resize(plan_.slab_bytes);
  arena_.allocate(plan_.slab_bytes);

  // Wavefront scheduling must also respect the plan's reuse edges: an op
  // that first writes a reused slab range may not run until every accessor
  // of the range's previous occupant retired.
  planned_successors_ = dag_.successors;
  planned_predecessor_count_ = dag_.predecessor_count;
  for (const auto& [from, to] : plan_.reuse_edges) {
    auto& succ = planned_successors_[from];
    auto pos = std::lower_bound(succ.begin(), succ.end(), to);
    if (pos != succ.end() && *pos == to) continue;  // already a DAG edge
    succ.insert(pos, to);
    ++planned_predecessor_count_[to];
  }

  plan_active_ = true;
  plan_dirty_ = false;
}

void Executor::prepare_step() {
  // Drop any non-retained leftovers from a previous step. Slab views carry
  // no individual arena charge (the slab is charged once).
  for (auto it = transient_.begin(); it != transient_.end();) {
    if (!retained_.contains(it->first)) {
      if (!it->second.is_view()) arena_.release(tensor_bytes(it->first));
      it = transient_.erase(it);
    } else {
      ++it;
    }
  }

  // Materialize producerless tensors: inputs (pinned or random) and
  // gradient seeds (ones).
  for (const auto& t : graph_->tensors()) {
    if (t->producer() != nullptr || t->is_persistent()) continue;
    if (t->role() == ir::TensorRole::kInput && pinned_inputs_.contains(t.get())) continue;
    DenseTensor& v = materialize(t.get());
    if (t->role() == ir::TensorRole::kGradient) {
      for (std::int64_t i = 0; i < v.numel(); ++i) v.f(i) = 1.0f;
    } else {
      random_fill(t.get(), v);
    }
  }
}

void Executor::free_if_dead(
    const ir::Tensor* t,
    const std::unordered_map<const ir::Tensor*, std::size_t>& pending) {
  if (t->is_persistent() || retained_.contains(t)) return;
  if (pending.at(t) != 0) return;
  if (pinned_inputs_.contains(t)) return;
  auto it = transient_.find(t);
  if (it != transient_.end()) {
    if (!it->second.is_view()) arena_.release(tensor_bytes(t));
    transient_.erase(it);
  }
}

std::size_t Executor::simulated_sequential_peak() const {
  // Replays the sequential schedule's arena trajectory against the current
  // step-start state (resident transients, retained values, pinned inputs,
  // already-allocated persistent gradients). Mirrors run_step_sequential's
  // allocate/free rules exactly, so the returned peak is both achievable
  // and never exceeded by that schedule — the wavefront allocation budget.
  std::size_t live = arena_.current_bytes();
  std::size_t peak = live;
  std::unordered_map<const ir::Tensor*, std::size_t> pending;
  pending.reserve(graph_->tensors().size());
  for (const auto& t : graph_->tensors()) pending.emplace(t.get(), t->consumers().size());

  std::unordered_set<const ir::Tensor*> live_transients;
  live_transients.reserve(transient_.size());
  for (const auto& [t, v] : transient_) live_transients.insert(t);
  std::unordered_set<const ir::Tensor*> new_persistents;

  auto release = [&](const ir::Tensor* t) {
    if (t->is_persistent() || retained_.contains(t)) return;
    if (pending.at(t) != 0) return;
    if (live_transients.erase(t) != 0) live -= tensor_bytes(t);
  };

  for (const ir::Op* op : dag_.order) {
    for (const ir::Tensor* out : op->outputs()) {
      if (out->is_persistent()) {
        if (!persistent_.contains(out) && new_persistents.insert(out).second)
          live += tensor_bytes(out);
      } else if (live_transients.insert(out).second) {
        live += tensor_bytes(out);
      }
    }
    peak = std::max(peak, live);
    for (const ir::Tensor* in : op->inputs()) {
      --pending.at(in);
      release(in);
    }
    for (const ir::Tensor* out : op->outputs()) release(out);
  }
  return peak;
}

Executor::ResolvedOp Executor::resolve(std::size_t i) {
  const ir::Op& op = *dag_.order[i];
  ResolvedOp r;
  r.op = &op;
  if (op.type() == ir::OpType::kFusedPointwise) r.fused = &fused_kernels_[i];
  r.out.reserve(op.outputs().size());
  for (const ir::Tensor* t : op.outputs()) {
    DenseTensor* out = &materialize(t);
    r.out.push_back(out);
    if (plan_active_) {
      const PlannedTensor* pt = plan_.find(t);
      if (pt != nullptr && pt->alias_root == nullptr) r.zero_first.push_back(out);
    }
  }
  r.in.reserve(op.inputs().size());
  for (const ir::Tensor* t : op.inputs()) r.in.push_back(&storage(t));
  return r;
}

ProfileReport Executor::run_step() {
  if (options_.memory_plan && plan_dirty_) build_plan();
  prepare_step();
  if (options_.schedule == Schedule::kSequential || dag_.order.empty())
    return run_step_sequential();
  return run_step_wavefront();
}

ProfileReport Executor::run_step_sequential() {
  const std::size_t n = dag_.order.size();
  std::vector<OpSlot> slots(n);
  std::unordered_map<const ir::Tensor*, std::size_t> pending;
  pending.reserve(graph_->tensors().size());
  for (const auto& t : graph_->tensors()) pending[t.get()] = t->consumers().size();

  const auto step_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const ir::Op* op = dag_.order[i];
    const ResolvedOp r = resolve(i);
    OpSlot& slot = slots[i];
    const auto t0 = Clock::now();
    execute_resolved(r, slot.stats);
    const auto t1 = Clock::now();
    slot.start_seconds = seconds_between(step_start, t0);
    slot.end_seconds = seconds_between(step_start, t1);
    slot.worker = -1;
    if (options_.on_op_retired) options_.on_op_retired(*op, i);

    for (const ir::Tensor* in : op->inputs()) {
      --pending.at(in);
      free_if_dead(in, pending);
    }
    for (const ir::Tensor* out : op->outputs()) free_if_dead(out, pending);
  }
  return fold_report(slots, seconds_between(step_start, Clock::now()));
}

ProfileReport Executor::run_step_wavefront() {
  const std::size_t n = dag_.order.size();
  std::vector<OpSlot> slots(n);
  std::vector<ResolvedOp> resolved(n);
  // Under an active plan the DAG carries the reuse edges, so slab regions
  // are never written while their previous occupant is still accessed.
  const std::vector<std::vector<std::size_t>>& successors =
      plan_active_ ? planned_successors_ : dag_.successors;
  std::vector<std::size_t> preds =
      plan_active_ ? planned_predecessor_count_ : dag_.predecessor_count;
  std::vector<char> allocated(n, 0);
  std::unordered_map<const ir::Tensor*, std::size_t> pending;
  pending.reserve(graph_->tensors().size());
  for (const auto& t : graph_->tensors()) pending[t.get()] = t->consumers().size();

  // With a plan the step's transient footprint is the fixed slab: no
  // backpressure needed (or meaningful), so the budget gate is disabled.
  const std::size_t budget = plan_active_ ? std::numeric_limits<std::size_t>::max()
                                          : simulated_sequential_peak();

  // Scheduling state. One mutex guards the tensor maps, the arena, the
  // countdowns, and the submit/retire counters; kernels run outside it.
  std::mutex m;
  std::condition_variable progress;
  std::size_t submitted = 0;
  std::size_t retired = 0;
  std::exception_ptr error;

  const auto step_start = Clock::now();

  // Called with `m` held. Ops become runnable when their outputs are
  // allocated AND their predecessor countdown reached zero; retirement
  // frees dead tensors and releases successors.
  std::function<void(std::size_t)> submit_op = [&](std::size_t i) {
    ++submitted;
    pool_->submit([&, i] {
      OpSlot& slot = slots[i];
      const auto t0 = Clock::now();
      KernelStats stats;
      std::exception_ptr op_error;
      try {
        execute_resolved(resolved[i], stats);
      } catch (...) {
        op_error = std::current_exception();
      }
      const auto t1 = Clock::now();
      slot.stats = stats;
      slot.start_seconds = seconds_between(step_start, t0);
      slot.end_seconds = seconds_between(step_start, t1);
      slot.worker = conc::ThreadPool::current_worker_index();
      // Outputs are final; fire the completion hook outside the scheduler
      // lock so a hook that hands work to another thread (the ring-
      // allreduce kick) never serializes against dispatch.
      if (!op_error && options_.on_op_retired) {
        try {
          options_.on_op_retired(*dag_.order[i], i);
        } catch (...) {
          op_error = std::current_exception();
        }
      }

      std::lock_guard lock(m);
      ++retired;
      if (op_error) {
        if (!error) error = op_error;
      } else {
        const ir::Op* op = dag_.order[i];
        for (const ir::Tensor* in : op->inputs()) {
          --pending.at(in);
          free_if_dead(in, pending);
        }
        for (const ir::Tensor* out : op->outputs()) free_if_dead(out, pending);
        for (std::size_t s : successors[i])
          if (--preds[s] == 0 && allocated[s]) submit_op(s);
      }
      progress.notify_all();
    });
  };

  // Allocation frontier: outputs are materialized strictly in topological
  // order, and each allocation waits until it fits under the sequential
  // peak. Because every op ahead of the frontier eventually retires and
  // frees exactly what the sequential schedule would have freed, the wait
  // always unblocks, and the arena can never exceed `budget`.
  for (std::size_t i = 0; i < n; ++i) {
    const ir::Op* op = dag_.order[i];
    std::unique_lock lock(m);
    auto fresh_bytes = [&] {
      std::size_t sum = 0;
      for (const ir::Tensor* out : op->outputs())
        if (!persistent_.contains(out) && !transient_.contains(out))
          sum += tensor_bytes(out);
      return sum;
    };
    progress.wait(lock, [&] {
      return error || arena_.current_bytes() + fresh_bytes() <= budget;
    });
    if (error) break;
    resolved[i] = resolve(i);
    allocated[i] = 1;
    if (preds[i] == 0) submit_op(i);
  }

  // Drain in-flight ops (all of them on success; on error, everything
  // already submitted) before reporting or rethrowing.
  std::unique_lock lock(m);
  progress.wait(lock, [&] { return retired == submitted; });
  if (error) std::rethrow_exception(error);
  lock.unlock();

  return fold_report(slots, seconds_between(step_start, Clock::now()));
}

ProfileReport Executor::fold_report(const std::vector<OpSlot>& slots,
                                    double wall_seconds) const {
  // Totals are folded in topological order, so floating-point accumulation
  // is bitwise-identical no matter which workers retired which ops when.
  ProfileReport report;
  report.timeline.reserve(slots.size());
  // Invert the scheduling DAG actually in force (the plan's reuse edges
  // included when planning is active) so every event records the ops it
  // waited on; with them the trace is replayable offline (src/whatif/).
  const std::vector<std::vector<std::size_t>>& successors =
      plan_active_ ? planned_successors_ : dag_.successors;
  std::vector<std::vector<std::size_t>> predecessors(slots.size());
  for (std::size_t i = 0; i < successors.size(); ++i)
    for (std::size_t s : successors[i]) predecessors[s].push_back(i);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const OpSlot& s = slots[i];
    const ir::Op* op = dag_.order[i];
    report.add(op->type(), s.stats.flops, s.stats.bytes,
               s.end_seconds - s.start_seconds);
    TimelineEvent event{op->name(), op->type(), i, s.worker, s.start_seconds,
                        s.end_seconds, s.stats.flops, s.stats.bytes};
    event.kernel_class = s.stats.kernel_class;
    event.deps = std::move(predecessors[i]);  // ascending: i filled in order
    if (plan_active_) {
      // Surface where the op's first planned output landed in the slab.
      for (const ir::Tensor* out : op->outputs()) {
        if (const PlannedTensor* pt = plan_.find(out); pt != nullptr) {
          event.slab_offset = static_cast<std::int64_t>(pt->offset);
          event.reuse_generation = static_cast<std::int64_t>(pt->generation);
          break;
        }
      }
    }
    report.timeline.push_back(event);
  }
  report.wall_seconds = wall_seconds;
  report.peak_allocated_bytes = arena_.peak_bytes();
  return report;
}

void Executor::execute_resolved(const ResolvedOp& r, KernelStats& stats) {
  // Planned slab regions start with a previous occupant's bytes; give the
  // kernel the same zeroed output the per-op heap path would have.
  for (DenseTensor* z : r.zero_first) z->fill_zero();

  using ir::OpType;
  const ir::Op& op = *r.op;
  const std::vector<DenseTensor*>& in = r.in;
  const std::vector<DenseTensor*>& out = r.out;

  auto const_inputs = [&] {
    std::vector<const DenseTensor*> v(in.begin(), in.end());
    return v;
  };

  switch (op.type()) {
    case OpType::kMatMul: {
      const auto& mm = static_cast<const ir::MatMulOp&>(op);
      matmul(*in[0], *in[1], *out[0], mm.trans_a(), mm.trans_b(), *pool_, stats,
             mm.epilogue_bias() ? in[2] : nullptr, mm.epilogue_activation());
      break;
    }
    case OpType::kConv2D: {
      const auto& c = static_cast<const ir::Conv2DOp&>(op);
      conv2d(*in[0], *in[1], *out[0], c.stride(), *pool_, stats);
      break;
    }
    case OpType::kConv2DGradInput: {
      const auto& c = static_cast<const ir::Conv2DGradInputOp&>(op);
      conv2d_grad_input(*in[0], *in[1], *out[0], c.stride(), *pool_, stats);
      break;
    }
    case OpType::kConv2DGradFilter: {
      const auto& c = static_cast<const ir::Conv2DGradFilterOp&>(op);
      conv2d_grad_filter(*in[0], *in[1], *out[0], c.stride(), *pool_, stats);
      break;
    }
    case OpType::kPointwise: {
      const auto& p = static_cast<const ir::PointwiseOp&>(op);
      pointwise(p.fn(), const_inputs(), p.scale_alpha().eval(bindings_), *out[0], *pool_,
                stats);
      break;
    }
    case OpType::kBiasAdd:
      bias_add(*in[0], *in[1], *out[0], *pool_, stats);
      break;
    case OpType::kFusedPointwise: {
      const FusedKernel& k = *r.fused;
      if (k.compilable) {
        fused_pointwise_simd(k.lowered, const_inputs(), k.alphas, *out[0], *pool_,
                             stats, codegen::active_isa());
        stats.kernel_class = "pointwise-simd";
      } else {
        const auto& f = static_cast<const ir::FusedPointwiseOp&>(op);
        fused_pointwise(f.program(), const_inputs(), k.alphas, *out[0], *pool_, stats);
        stats.kernel_class = "pointwise-interp";
      }
      break;
    }
    case OpType::kEmbeddingLookup:
      embedding_lookup(*in[0], *in[1], *out[0], *pool_, stats);
      break;
    case OpType::kEmbeddingGrad:
      embedding_grad(*in[0], *in[1], *out[0], *pool_, stats);
      break;
    case OpType::kSoftmax:
      softmax(*in[0], *out[0], *pool_, stats);
      break;
    case OpType::kSoftmaxGrad:
      softmax_grad(*in[0], *in[1], *out[0], *pool_, stats);
      break;
    case OpType::kSoftmaxXent:
      softmax_xent(*in[0], *in[1], *out[0], *out[1], *pool_, stats);
      break;
    case OpType::kSoftmaxXentGrad:
      softmax_xent_grad(*in[0], *in[1], *in[2], *out[0], *pool_, stats);
      break;
    case OpType::kReduce: {
      const auto& red = static_cast<const ir::ReduceOp&>(op);
      reduce(red.reduce_kind(), *in[0], *out[0], *pool_, stats);
      break;
    }
    case OpType::kBroadcast:
      broadcast(*in[0], *out[0], *pool_, stats);
      break;
    case OpType::kBatchNorm:
      batch_norm(*in[0], *in[1], *in[2], *out[0], *pool_, stats);
      break;
    case OpType::kBatchNormGrad:
      batch_norm_grad(*in[0], *in[1], *in[2], *out[0], *out[1], *out[2], *pool_, stats);
      break;
    case OpType::kPool: {
      const auto& p = static_cast<const ir::PoolOp&>(op);
      pool(p.pool_kind(), *in[0], *out[0], p.window_h(), p.window_w(), *pool_, stats);
      break;
    }
    case OpType::kPoolGrad: {
      const auto& p = static_cast<const ir::PoolGradOp&>(op);
      pool_grad(p.pool_kind(), *in[0], *in[1], *in[2], *out[0], p.window_h(),
                p.window_w(), *pool_, stats);
      break;
    }
    case OpType::kConcat: {
      const auto& c = static_cast<const ir::ConcatOp&>(op);
      concat(const_inputs(), c.axis(), *out[0], *pool_, stats);
      break;
    }
    case OpType::kSplit: {
      const auto& s = static_cast<const ir::SplitOp&>(op);
      split(*in[0], s.axis(), out, *pool_, stats);
      break;
    }
    case OpType::kSlice: {
      const auto& s = static_cast<const ir::SliceOp&>(op);
      slice(*in[0], s.axis(), static_cast<std::int64_t>(s.offset().eval(bindings_)),
            *out[0], *pool_, stats);
      break;
    }
    case OpType::kReshape:
      reshape_copy(*in[0], *out[0], stats);
      break;
    case OpType::kApplyGradient: {
      if (!options_.apply_updates) break;
      const auto& a = static_cast<const ir::ApplyGradientOp&>(op);
      std::vector<DenseTensor*> slots(in.begin() + 2, in.end());
      apply_gradient(a.optimizer(), *in[0], *in[1], slots, options_.learning_rate,
                     *pool_, stats);
      break;
    }
  }
}

}  // namespace gf::rt
