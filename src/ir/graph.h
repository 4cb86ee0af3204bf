// Compute graph container: owns tensors and ops, answers the paper's
// aggregate questions (total algorithmic FLOPs / bytes, parameter count,
// weight memory), and yields deterministic topological traversals for the
// footprint estimator and the numeric executor.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/op.h"
#include "src/ir/tensor.h"

namespace gf::ir {

class Graph {
 public:
  explicit Graph(std::string name);

  const std::string& name() const { return name_; }

  /// Default floating-point precision for tensors created with kFloat32
  /// (the declared default). Set to kFloat16 before building a model to
  /// get the paper's §6.2.3 low-precision ablation: weights, activations,
  /// and gradients all shrink 2x.
  void set_default_float_dtype(DataType dtype) { default_float_dtype_ = dtype; }
  DataType default_float_dtype() const { return default_float_dtype_; }

  /// Declares a graph input (e.g. a batch of token ids or images).
  Tensor* add_input(std::string name, TensorShape shape,
                    DataType dtype = DataType::kFloat32);

  /// Declares a trainable weight tensor.
  Tensor* add_weight(std::string name, TensorShape shape,
                     DataType dtype = DataType::kFloat32);

  /// Creates and owns an op node; used via the builder functions in ops.h.
  template <typename OpT, typename... Args>
  OpT* add_op(Args&&... args) {
    auto op = std::make_unique<OpT>(this, std::forward<Args>(args)...);
    OpT* raw = op.get();
    ops_.push_back(std::move(op));
    return raw;
  }

  /// Internal: creates a tensor owned by the graph (ops call this through
  /// Op::make_output; inputs/weights come from add_input/add_weight).
  Tensor* make_tensor(std::string name, TensorShape shape, DataType dtype, TensorRole role);

  /// Graph-surgery escape hatches for rewrite passes (ir::fuse_graph).
  /// They erase ownership only; the caller is responsible for unwiring
  /// every reference first and for re-verifying the graph afterwards.
  void remove_op(const Op* op);
  void remove_tensor(const Tensor* tensor);
  /// Repositions `op` immediately before `anchor` in the op list. List
  /// position is the topological-order tiebreak (the framework schedule),
  /// so a rewrite that appends a replacement op must move it into the
  /// replaced op's slot or the schedule — and with it the liveness
  /// footprint — silently degrades.
  void move_op_before(const Op* op, const Op* anchor);

  /// Marks a tensor as a retained graph output: a result the caller reads
  /// after the step (the training loss, an inference logit tensor). The
  /// deadcode lint treats marked outputs as sinks — anything that cannot
  /// reach one (or a weight update) is provably wasted compute — and the
  /// serializer records them. Idempotent; throws std::invalid_argument if
  /// the tensor is null or not owned by this graph.
  void mark_output(const Tensor* tensor);
  const std::vector<const Tensor*>& outputs() const { return outputs_; }
  bool is_output(const Tensor* tensor) const;

  /// Tensor-id counter control, used by ir::clone_graph after it rewrites
  /// clone tensor ids to match the originals.
  int next_tensor_id() const { return next_tensor_id_; }
  void set_next_tensor_id(int id) { next_tensor_id_ = id; }

  const std::vector<std::unique_ptr<Op>>& ops() const { return ops_; }
  const std::vector<std::unique_ptr<Tensor>>& tensors() const { return tensors_; }
  std::size_t num_ops() const { return ops_.size(); }

  /// All weight tensors, in declaration order.
  std::vector<Tensor*> weights() const;
  /// All input tensors, in declaration order.
  std::vector<Tensor*> inputs() const;

  /// Sum of op FLOPs over the whole graph (one training/inference step,
  /// depending on what has been built).
  sym::Expr total_flops() const;

  /// Sum of op algorithmic bytes accessed over the whole graph.
  sym::Expr total_bytes_accessed() const;

  /// Number of trainable parameters (elements of all weight tensors).
  sym::Expr parameter_count() const;

  /// Bytes of all weight tensors.
  sym::Expr weight_bytes() const;

  /// Algorithmic IO (paper §2.1): bytes moved into the model's input
  /// allocations per step (training data read from storage). Proportional
  /// to batch size, independent of model size.
  sym::Expr algorithmic_io() const;

  /// Ops in a deterministic topological order (Kahn's algorithm; ties are
  /// broken by insertion order, which matches execution order of the
  /// builder — the same role the framework's schedule plays in the paper).
  std::vector<const Op*> topological_order() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Tensor>> tensors_;
  std::vector<std::unique_ptr<Op>> ops_;
  std::vector<const Tensor*> outputs_;
  int next_tensor_id_ = 0;
  DataType default_float_dtype_ = DataType::kFloat32;
};

/// Explicit dependency DAG over a graph's deterministic topological order,
/// the input to wavefront (dependency-counted) schedulers.
///
/// Edges cover both data dependencies (producer -> consumer) and the
/// write-after-read hazards of in-place ops: ApplyGradient overwrites its
/// weight (and optimizer-slot) buffers, so it must be ordered after every
/// other reader of those tensors even though no data flows between them.
struct OpDag {
  /// Ops in the graph's deterministic topological order; indices below
  /// refer to positions in this vector.
  std::vector<const Op*> order;
  /// successors[i] = indices of ops that must wait for op i (deduplicated,
  /// sorted ascending; every edge goes forward in `order`).
  std::vector<std::vector<std::size_t>> successors;
  /// predecessor_count[i] = number of distinct ops op i waits on — the
  /// initial value of a wavefront scheduler's per-op countdown.
  std::vector<std::size_t> predecessor_count;
};

/// Builds the dependency DAG for `graph`. Throws std::logic_error if any
/// hazard edge would point backwards in the topological order (impossible
/// for graphs built through the public builder API, where in-place weight
/// updates are emitted after every reader of the weight).
OpDag build_op_dag(const Graph& graph);

}  // namespace gf::ir
