#include "src/ir/graph.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_map>

namespace gf::ir {

Graph::Graph(std::string name) : name_(std::move(name)) {}

Tensor* Graph::add_input(std::string name, TensorShape shape, DataType dtype) {
  return make_tensor(std::move(name), std::move(shape), dtype, TensorRole::kInput);
}

Tensor* Graph::add_weight(std::string name, TensorShape shape, DataType dtype) {
  return make_tensor(std::move(name), std::move(shape), dtype, TensorRole::kWeight);
}

Tensor* Graph::make_tensor(std::string name, TensorShape shape, DataType dtype,
                           TensorRole role) {
  if (dtype == DataType::kFloat32) dtype = default_float_dtype_;
  tensors_.push_back(std::make_unique<Tensor>(next_tensor_id_++, std::move(name),
                                              std::move(shape), dtype, role));
  return tensors_.back().get();
}

void Graph::remove_op(const Op* op) {
  for (auto it = ops_.begin(); it != ops_.end(); ++it) {
    if (it->get() == op) {
      ops_.erase(it);
      return;
    }
  }
  throw std::logic_error("graph '" + name_ + "': remove_op of an op it does not own");
}

void Graph::move_op_before(const Op* op, const Op* anchor) {
  std::size_t from = ops_.size(), to = ops_.size();
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].get() == op) from = i;
    if (ops_[i].get() == anchor) to = i;
  }
  if (from == ops_.size() || to == ops_.size())
    throw std::logic_error("graph '" + name_ +
                           "': move_op_before of an op it does not own");
  if (from == to) return;
  std::unique_ptr<Op> moved = std::move(ops_[from]);
  ops_.erase(ops_.begin() + static_cast<std::ptrdiff_t>(from));
  if (from < to) --to;
  ops_.insert(ops_.begin() + static_cast<std::ptrdiff_t>(to), std::move(moved));
}

void Graph::remove_tensor(const Tensor* tensor) {
  for (auto it = tensors_.begin(); it != tensors_.end(); ++it) {
    if (it->get() == tensor) {
      outputs_.erase(std::remove(outputs_.begin(), outputs_.end(), tensor),
                     outputs_.end());
      tensors_.erase(it);
      return;
    }
  }
  throw std::logic_error("graph '" + name_ +
                         "': remove_tensor of a tensor it does not own");
}

void Graph::mark_output(const Tensor* tensor) {
  if (tensor == nullptr)
    throw std::invalid_argument("graph '" + name_ + "': mark_output of null tensor");
  const bool owned = std::any_of(tensors_.begin(), tensors_.end(),
                                 [tensor](const auto& t) { return t.get() == tensor; });
  if (!owned)
    throw std::invalid_argument("graph '" + name_ +
                                "': mark_output of a tensor it does not own");
  if (!is_output(tensor)) outputs_.push_back(tensor);
}

bool Graph::is_output(const Tensor* tensor) const {
  return std::find(outputs_.begin(), outputs_.end(), tensor) != outputs_.end();
}

std::vector<Tensor*> Graph::weights() const {
  std::vector<Tensor*> out;
  for (const auto& t : tensors_)
    if (t->role() == TensorRole::kWeight) out.push_back(t.get());
  return out;
}

std::vector<Tensor*> Graph::inputs() const {
  std::vector<Tensor*> out;
  for (const auto& t : tensors_)
    if (t->role() == TensorRole::kInput) out.push_back(t.get());
  return out;
}

sym::Expr Graph::total_flops() const {
  std::vector<sym::Expr> terms;
  terms.reserve(ops_.size());
  for (const auto& op : ops_) terms.push_back(op->flops());
  return sym::make_add(std::move(terms));
}

sym::Expr Graph::total_bytes_accessed() const {
  std::vector<sym::Expr> terms;
  terms.reserve(ops_.size());
  for (const auto& op : ops_) terms.push_back(op->bytes_accessed());
  return sym::make_add(std::move(terms));
}

sym::Expr Graph::parameter_count() const {
  std::vector<sym::Expr> terms;
  for (const auto& t : tensors_)
    if (t->role() == TensorRole::kWeight) terms.push_back(t->num_elements());
  return sym::make_add(std::move(terms));
}

sym::Expr Graph::weight_bytes() const {
  std::vector<sym::Expr> terms;
  for (const auto& t : tensors_)
    if (t->role() == TensorRole::kWeight) terms.push_back(t->bytes());
  return sym::make_add(std::move(terms));
}

sym::Expr Graph::algorithmic_io() const {
  std::vector<sym::Expr> terms;
  for (const auto& t : tensors_)
    if (t->role() == TensorRole::kInput) terms.push_back(t->bytes());
  return sym::make_add(std::move(terms));
}

std::vector<const Op*> Graph::topological_order() const {
  std::unordered_map<const Op*, std::size_t> index;
  index.reserve(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) index.emplace(ops_[i].get(), i);

  // In-degree = number of input tensors produced by some op.
  std::vector<std::size_t> unmet(ops_.size(), 0);
  for (std::size_t i = 0; i < ops_.size(); ++i)
    for (const Tensor* t : ops_[i]->inputs())
      if (t->producer() != nullptr) ++unmet[i];

  // Min-heap on insertion index: deterministic order that matches the
  // builder's execution order, the role the framework schedule plays in
  // the paper's footprint methodology.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> ready;
  for (std::size_t i = 0; i < ops_.size(); ++i)
    if (unmet[i] == 0) ready.push(i);

  std::vector<const Op*> order;
  order.reserve(ops_.size());
  while (!ready.empty()) {
    const std::size_t i = ready.top();
    ready.pop();
    const Op* op = ops_[i].get();
    order.push_back(op);
    for (const Tensor* out : op->outputs()) {
      for (const Op* consumer : out->consumers()) {
        const std::size_t j = index.at(consumer);
        if (--unmet[j] == 0) ready.push(j);
      }
    }
  }
  if (order.size() != ops_.size())
    throw std::logic_error("graph '" + name_ + "' contains a cycle");
  return order;
}

OpDag build_op_dag(const Graph& graph) {
  OpDag dag;
  dag.order = graph.topological_order();
  const std::size_t n = dag.order.size();
  dag.successors.assign(n, {});
  dag.predecessor_count.assign(n, 0);

  std::unordered_map<const Op*, std::size_t> index;
  index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index.emplace(dag.order[i], i);

  auto add_edge = [&](std::size_t from, std::size_t to) {
    if (from >= to)
      throw std::logic_error("op dag: edge from '" + dag.order[from]->name() +
                             "' to '" + dag.order[to]->name() +
                             "' points backwards in topological order");
    dag.successors[from].push_back(to);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Op* op = dag.order[i];
    // Data edges: producer of each input must have run.
    for (const Tensor* in : op->inputs())
      if (in->producer() != nullptr) add_edge(index.at(in->producer()), i);
    // Write-after-read edges: ApplyGradient mutates its weight (input 0)
    // and optimizer slots (inputs 2..) in place; every other reader of
    // those buffers must observe the pre-update values.
    if (op->type() == OpType::kApplyGradient) {
      for (std::size_t k = 0; k < op->inputs().size(); ++k) {
        if (k == 1) continue;  // the gradient input is an ordinary data dep
        for (const Op* reader : op->input(k)->consumers())
          if (reader != op) add_edge(index.at(reader), i);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    auto& succ = dag.successors[i];
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    for (std::size_t s : succ) ++dag.predecessor_count[s];
  }
  return dag;
}

}  // namespace gf::ir
