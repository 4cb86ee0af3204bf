#include "src/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <random>
#include <stdexcept>

#include <sanitizer/asan_interface.h>

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

bool memory_plan_env_default() { return true; }

bool fuse_env_default() { return true; }

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
  }
  for (const auto& t : graph_->tensors()) {
    shapes_.emplace(t.get(), t->shape().eval(bindings_));
  }
  // Persistent state: weights (random), weight gradients and optimizer
  // slots (zero). Everything else lives in the memory plan's slab.
  for (const auto& t : graph_->tensors()) {
    if (!t->is_persistent()) continue;
    DenseTensor value(shapes_.at(t.get()), t->dtype());
    if (t->role() == ir::TensorRole::kWeight) random_fill(t.get(), value);
    arena_.allocate(algorithmic_bytes_of(*t, shapes_.at(t.get())));
    persistent_.emplace(t.get(), std::move(value));
  }
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
        "' was eliminated by fusion (ExecutorOptions::fuse); only "
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
  if (auto it = pinned_inputs_.find(tensor); it != pinned_inputs_.end())
    return it->second;
  // Every planned tensor has a slab view, but only a retained one still
  // holds its value after the step (and only under the plan it ran with).
  if (!plan_dirty_ && retained_.contains(tensor))
    if (auto it = transient_.find(tensor); it != transient_.end()) return it->second;
  throw std::invalid_argument("value: '" + tensor->name() +
                              "' was not retained (call retain() before run_step)");
}

DenseTensor& Executor::storage(const ir::Tensor* tensor) {
  if (auto it = persistent_.find(tensor); it != persistent_.end()) return it->second;
  if (auto it = transient_.find(tensor); it != transient_.end()) return it->second;
  if (auto it = pinned_inputs_.find(tensor); it != pinned_inputs_.end())
    return it->second;
  throw std::logic_error("storage: tensor '" + tensor->name() + "' has no storage");
}

void Executor::build_plan() {
  if (plan_) {
    // Replacing a plan: its views point into the old slab. Un-charge the
    // old slab before the new one is accounted, and make it addressable
    // again so the allocator may reuse it.
    transient_.clear();
    arena_.release(plan_->slab_bytes);
    ASAN_UNPOISON_MEMORY_REGION(slab_.data(), slab_.size());
  }
  MemPlanOptions mopts;
  mopts.exclude.reserve(pinned_inputs_.size());
  for (const auto& [t, v] : pinned_inputs_) mopts.exclude.insert(t);
  mopts.retained = retained_;
  plan_ = plan_memory(*graph_, dag_, bindings_, mopts);
  const MemoryPlan& plan = *plan_;

  slab_ = AlignedVector<unsigned char>(plan.slab_bytes);
  arena_.allocate(plan.slab_bytes);
  // The slab's bytes are NOT zeroed per step: execute_resolved zeroes
  // non-aliased outputs just before their producer runs (zero_first).
  transient_.reserve(plan.tensors.size());
  for (const PlannedTensor& pt : plan.tensors)
    transient_.emplace(pt.tensor, DenseTensor::view(shapes_.at(pt.tensor), pt.tensor->dtype(),
                                                    slab_.data() + pt.offset));
  poison_slab();

  // Both schedules must also respect the plan's reuse edges: an op that
  // first writes a reused slab range may not run until every accessor of
  // the range's previous occupant retired.
  planned_successors_ = dag_.successors;
  planned_predecessor_count_ = dag_.predecessor_count;
  for (const auto& [from, to] : plan.reuse_edges) {
    auto& succ = planned_successors_[from];
    auto pos = std::lower_bound(succ.begin(), succ.end(), to);
    if (pos != succ.end() && *pos == to) continue;  // already a DAG edge
    succ.insert(pos, to);
    ++planned_predecessor_count_[to];
  }

  resolved_.assign(dag_.order.size(), {});
  for (std::size_t i = 0; i < dag_.order.size(); ++i) {
    const ir::Op& op = *dag_.order[i];
    ResolvedOp& r = resolved_[i];
    r.op = &op;
    if (op.type() == ir::OpType::kFusedPointwise) r.fused = &fused_kernels_[i];
    for (const ir::Tensor* t : op.outputs()) {
      DenseTensor* out = &storage(t);
      r.out.push_back(out);
      if (const PlannedTensor* pt = plan.find(t); pt != nullptr) {
        r.extents.emplace_back(slab_.data() + pt->offset, pt->bytes);
        if (pt->alias_root == nullptr) r.zero_first.push_back(out);
      }
    }
    for (const ir::Tensor* t : op.inputs()) r.in.push_back(&storage(t));
  }
  plan_dirty_ = false;
}

void Executor::poison_slab() {
  ASAN_POISON_MEMORY_REGION(slab_.data(), slab_.size());
  for (const ir::Tensor* t : retained_)
    if (const PlannedTensor* pt = plan_->find(t); pt != nullptr)
      ASAN_UNPOISON_MEMORY_REGION(slab_.data() + pt->offset, pt->bytes);
}

void Executor::prepare_step() {
  // Fill producerless tensors: inputs (pinned or random) and gradient
  // seeds (ones).
  for (const auto& t : graph_->tensors()) {
    if (t->producer() != nullptr || t->is_persistent()) continue;
    if (t->role() == ir::TensorRole::kInput && pinned_inputs_.contains(t.get())) continue;
    const PlannedTensor* pt = plan_->find(t.get());
    ASAN_UNPOISON_MEMORY_REGION(slab_.data() + pt->offset, pt->bytes);
    DenseTensor& v = transient_.at(t.get());
    if (t->role() == ir::TensorRole::kGradient) {
      for (std::int64_t i = 0; i < v.numel(); ++i) v.f(i) = 1.0f;
    } else {
      random_fill(t.get(), v);
    }
  }
}

ProfileReport Executor::run_step() {
  if (plan_dirty_) build_plan();
  prepare_step();
  ProfileReport report = options_.schedule == Schedule::kSequential || dag_.order.empty()
                             ? run_step_sequential()
                             : run_step_wavefront();
  poison_slab();
  return report;
}

ProfileReport Executor::run_step_sequential() {
  const std::size_t n = dag_.order.size();
  std::vector<OpSlot> slots(n);
  const auto step_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    OpSlot& slot = slots[i];
    const auto t0 = Clock::now();
    execute_resolved(resolved_[i], slot.stats);
    const auto t1 = Clock::now();
    slot.start_seconds = seconds_between(step_start, t0);
    slot.end_seconds = seconds_between(step_start, t1);
    slot.worker = -1;
    if (options_.on_op_retired) options_.on_op_retired(*dag_.order[i], i);
  }
  return fold_report(slots, seconds_between(step_start, Clock::now()));
}

ProfileReport Executor::run_step_wavefront() {
  const std::size_t n = dag_.order.size();
  std::vector<OpSlot> slots(n);
  std::vector<std::size_t> preds = planned_predecessor_count_;

  // Scheduling state. One mutex guards the countdowns and the
  // submit/retire counters; kernels run outside it.
  std::mutex m;
  std::condition_variable progress;
  std::size_t submitted = 0;
  std::size_t retired = 0;
  std::exception_ptr error;

  const auto step_start = Clock::now();

  // Called with `m` held. An op becomes runnable when its predecessor
  // countdown reaches zero; retirement releases its successors.
  std::function<void(std::size_t)> submit_op = [&](std::size_t i) {
    ++submitted;
    pool_->submit([&, i] {
      OpSlot& slot = slots[i];
      const auto t0 = Clock::now();
      KernelStats stats;
      std::exception_ptr op_error;
      try {
        execute_resolved(resolved_[i], stats);
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
        for (std::size_t s : planned_successors_[i])
          if (--preds[s] == 0) submit_op(s);
      }
      if (retired == submitted) progress.notify_all();
    });
  };

  // Drain in-flight ops before reporting or rethrowing. Nothing is in
  // flight only when every op retired or an error stopped the releases.
  std::unique_lock lock(m);
  for (std::size_t i = 0; i < n; ++i)
    if (preds[i] == 0) submit_op(i);
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
  // included) so every event records the ops it waited on; with them the
  // trace is replayable offline (src/whatif/).
  std::vector<std::vector<std::size_t>> predecessors(slots.size());
  for (std::size_t i = 0; i < planned_successors_.size(); ++i)
    for (std::size_t s : planned_successors_[i]) predecessors[s].push_back(i);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const OpSlot& s = slots[i];
    const ir::Op* op = dag_.order[i];
    report.add(op->type(), s.stats.flops, s.stats.bytes,
               s.end_seconds - s.start_seconds);
    TimelineEvent event{op->name(), op->type(), i, s.worker, s.start_seconds,
                        s.end_seconds, s.stats.flops, s.stats.bytes};
    event.kernel_class = s.stats.kernel_class;
    event.deps = std::move(predecessors[i]);  // ascending: i filled in order
    // Surface where the op's first planned output landed in the slab.
    for (const ir::Tensor* out : op->outputs()) {
      if (const PlannedTensor* pt = plan_->find(out); pt != nullptr) {
        event.slab_offset = static_cast<std::int64_t>(pt->offset);
        event.reuse_generation = static_cast<std::int64_t>(pt->generation);
        break;
      }
    }
    report.timeline.push_back(event);
  }
  report.wall_seconds = wall_seconds;
  report.peak_allocated_bytes = arena_.peak_bytes();
  return report;
}

void Executor::execute_resolved(const ResolvedOp& r, KernelStats& stats) {
  // The output extents become addressable now, and non-aliased ones start
  // zeroed rather than with a previous occupant's bytes.
  for (const auto& [data, bytes] : r.extents) ASAN_UNPOISON_MEMORY_REGION(data, bytes);
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
      fused_pointwise_simd(k.lowered, const_inputs(), k.alphas, *out[0], *pool_, stats,
                           codegen::active_isa());
      stats.kernel_class = "pointwise-simd";
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
