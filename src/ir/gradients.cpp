#include "src/ir/gradients.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

namespace gf::ir {
namespace {

/// Collapses a list of gradient contributions into one tensor (AddN when
/// more than one path reaches the same tensor).
Tensor* finalize(Graph& g, const std::string& name, std::vector<Tensor*>& contributions) {
  if (contributions.empty()) return nullptr;
  if (contributions.size() == 1) return contributions[0];
  return add_n(g, name, contributions);
}

bool is_binary_add(const Op* op) {
  return op != nullptr && op->type() == OpType::kPointwise && op->inputs().size() == 2 &&
         static_cast<const PointwiseOp*>(op)->fn() == PointwiseFn::kAdd;
}

/// One weight gradient's add tree: its Adds (root first) and its MatMul
/// leaves in left-to-right order.
struct AddTree {
  std::vector<Op*> adds;
  std::vector<MatMulOp*> leaves;
};

/// The add tree producing `gw`, if it has the form stack_weight_gradients
/// rewrites. A binary tree has at least two leaves, so an Add root
/// guarantees the "two or more products" condition.
std::optional<AddTree> match_add_tree(const Tensor* gw) {
  Op* root = const_cast<Op*>(gw->producer());
  if (!is_binary_add(root)) return std::nullopt;
  AddTree tree;
  tree.adds.push_back(root);
  // Explicit stack, right operand pushed first: a left fold T deep is walked
  // left to right without T nested frames.
  std::vector<const Tensor*> pending{root->input(1), root->input(0)};
  while (!pending.empty()) {
    const Tensor* t = pending.back();
    pending.pop_back();
    if (t->role() != TensorRole::kActivation || t->consumers().size() != 1)
      return std::nullopt;
    Op* p = const_cast<Op*>(t->producer());
    if (is_binary_add(p)) {
      tree.adds.push_back(p);
      pending.push_back(p->input(1));
      pending.push_back(p->input(0));
      continue;
    }
    if (p == nullptr || p->type() != OpType::kMatMul) return std::nullopt;
    auto* mm = static_cast<MatMulOp*>(p);
    if (!mm->trans_a() || mm->trans_b() || mm->has_epilogue() ||
        mm->input(0)->shape().rank() != 2 || mm->input(1)->shape().rank() != 2 ||
        mm->input(0)->dtype() != gw->dtype() || mm->input(1)->dtype() != gw->dtype() ||
        !t->shape().equals(gw->shape()))
      return std::nullopt;
    tree.leaves.push_back(mm);
  }
  return tree;
}

/// Replaces `tree` with Concat, Concat, MatMul adopting `gw`, placed where
/// the root Add was.
void stack_tree(Graph& g, Tensor* gw, const AddTree& tree) {
  const Op* root = tree.adds.front();
  std::vector<Tensor*> a_parts, b_parts;
  a_parts.reserve(tree.leaves.size());
  b_parts.reserve(tree.leaves.size());
  for (const MatMulOp* leaf : tree.leaves) {
    a_parts.push_back(leaf->input(0));
    b_parts.push_back(leaf->input(1));
  }
  Tensor* a = concat(g, root->name() + ":stack_a", a_parts, 0);
  Tensor* b = concat(g, root->name() + ":stack_b", b_parts, 0);
  auto* mm = g.add_op<MatMulOp>(root->name() + ":stack", a, b, true, false);
  Tensor* own_out = mm->output(0);
  mm->adopt_result(gw);
  g.remove_tensor(own_out);
  for (const Op* op : {a->producer(), b->producer(), static_cast<const Op*>(mm)})
    g.move_op_before(op, root);

  // Only the leaves read tensors that survive; every tensor the Adds read
  // is a leaf or interior output, and those go with their producers.
  for (MatMulOp* leaf : tree.leaves)
    for (Tensor* t : leaf->inputs()) t->remove_consumer(leaf);
  for (MatMulOp* leaf : tree.leaves) {
    g.remove_tensor(leaf->output(0));
    g.remove_op(leaf);
  }
  for (Op* add : tree.adds) {
    if (add != root) g.remove_tensor(add->output(0));
    g.remove_op(add);
  }
}

}  // namespace

std::size_t stack_weight_gradients(Graph& graph) {
  std::vector<Tensor*> grads;
  for (const auto& t : graph.tensors())
    if (t->role() == TensorRole::kWeightGradient) grads.push_back(t.get());
  // Trees are disjoint (every tensor in one has a single consumer inside
  // it), so rewriting one leaves the others' matches intact.
  std::size_t stacked = 0;
  for (Tensor* gw : grads) {
    const std::optional<AddTree> tree = match_add_tree(gw);
    if (!tree) continue;
    stack_tree(graph, gw, *tree);
    ++stacked;
  }
  return stacked;
}

TrainingStepResult build_training_step(Graph& graph, Tensor* loss,
                                       const TrainingStepOptions& options) {
  if (loss == nullptr) throw std::invalid_argument("build_training_step: null loss");
  if (loss->shape().rank() != 0)
    throw std::logic_error("build_training_step: loss must be scalar, got " +
                           loss->shape().str());
  if (loss->producer() == nullptr)
    throw std::logic_error("build_training_step: loss must be produced by an op");
  for (const auto& op : graph.ops())
    if (op->type() == OpType::kApplyGradient)
      throw std::logic_error(
          "build_training_step: graph already contains a training step");

  const std::size_t ops_before = graph.num_ops();

  // The loss is the result the training loop reads back each step; mark
  // it so the deadcode lint knows it is a sink even though nothing in the
  // graph consumes it.
  graph.mark_output(loss);

  // Snapshot the forward schedule before appending anything.
  const std::vector<const Op*> forward_order = graph.topological_order();

  std::unordered_map<const Tensor*, std::vector<Tensor*>> contributions;
  std::unordered_map<const Tensor*, int> fold_counter;

  // Adds a gradient contribution, folding eagerly: recurrent models emit
  // one weight-gradient contribution per timestep, and deferring their sum
  // to a single terminal AddN would keep every contribution live at once
  // (hundreds of GB at projected sizes). Pairwise accumulation mirrors the
  // incremental aggregation real frameworks perform. The executor runs
  // stack_weight_gradients on its clone to turn a chain of per-timestep
  // MatMul products back into one GEMM.
  auto accumulate = [&](Tensor* target, Tensor* grad) {
    auto& list = contributions[target];
    list.push_back(grad);
    if (list.size() == 2) {
      const int n = fold_counter[target]++;
      Tensor* folded = add(graph, "d_" + target->name() + ":acc" + std::to_string(n),
                           list[0], list[1]);
      list.clear();
      list.push_back(folded);
    }
  };

  // Seed: d(loss)/d(loss) = 1, a producerless gradient tensor.
  Tensor* seed = graph.make_tensor("d_" + loss->name() + ":seed", loss->shape(),
                                   loss->dtype(), TensorRole::kGradient);
  contributions[loss].push_back(seed);

  for (auto it = forward_order.rbegin(); it != forward_order.rend(); ++it) {
    // build_backward mutates the graph, and ops own their wiring, so the
    // const view from topological_order is lifted here, within the
    // graph's own mutation API.
    Op* op = const_cast<Op*>(*it);

    bool any = false;
    std::vector<Tensor*> grad_outputs(op->outputs().size(), nullptr);
    for (std::size_t i = 0; i < op->outputs().size(); ++i) {
      auto found = contributions.find(op->outputs()[i]);
      if (found == contributions.end()) continue;
      grad_outputs[i] =
          finalize(graph, "d_" + op->outputs()[i]->name() + ":sum", found->second);
      any = true;
    }
    if (!any) continue;  // op not on any path to the loss

    const std::vector<Tensor*> input_grads = op->build_backward(grad_outputs);
    if (input_grads.size() != op->inputs().size())
      throw std::logic_error("op '" + op->name() +
                             "' returned wrong number of input gradients");
    for (std::size_t i = 0; i < input_grads.size(); ++i)
      if (input_grads[i] != nullptr) accumulate(op->inputs()[i], input_grads[i]);
  }

  TrainingStepResult result;
  for (Tensor* w : graph.weights()) {
    auto found = contributions.find(w);
    if (found == contributions.end()) continue;  // weight not reached by loss
    Tensor* gw = finalize(graph, "d_" + w->name() + ":sum", found->second);
    gw->set_role(TensorRole::kWeightGradient);
    graph.add_op<ApplyGradientOp>("update_" + w->name(), w, gw, options.optimizer);
    result.weight_gradients.emplace(w, gw);
  }

  // Backward builders emit every input gradient an op can produce, but a
  // gradient that only flows into a non-trainable producerless tensor —
  // the batch input, an initial recurrent state — has no consumer: dead
  // compute that would inflate every FLOP/byte table (and trip the
  // deadcode lint). Peel those chains off the ops this builder added.
  // Consumers are always appended after their producers, so one reverse
  // sweep removes a whole chain; the outer loop catches stragglers.
  for (bool removed = true; removed;) {
    removed = false;
    for (std::size_t i = graph.num_ops(); i-- > ops_before;) {
      Op* op = graph.ops()[i].get();
      if (op->type() == OpType::kApplyGradient || op->outputs().empty()) continue;
      const bool used =
          std::any_of(op->outputs().begin(), op->outputs().end(), [&](Tensor* o) {
            return !o->consumers().empty() || graph.is_output(o) ||
                   o->role() == TensorRole::kWeightGradient;
          });
      if (used) continue;
      for (Tensor* in : op->inputs()) in->remove_consumer(op);
      for (Tensor* o : op->outputs()) graph.remove_tensor(o);
      graph.remove_op(op);
      removed = true;
    }
  }

  result.ops_added = graph.num_ops() - ops_before;
  return result;
}

}  // namespace gf::ir
