// Tests of gradient-graph construction: backward ops exist, the classic
// "backprop costs ~2x forward for matrix ops" emerges, and accumulation /
// update wiring is correct.
#include <gtest/gtest.h>

#include "src/ir/footprint.h"
#include "src/ir/gradients.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"
#include "src/verify/pass.h"

namespace gf::ir {
namespace {

using sym::Bindings;
using sym::Expr;

/// Small MLP classifier: x(B,D) -> fc1(D,H) -> relu -> fc2(H,C) -> xent.
struct Mlp {
  Graph g{"mlp"};
  Tensor* loss = nullptr;

  Mlp() {
    const Expr b = Expr::symbol("b");
    Tensor* x = g.add_input("x", {b, Expr(8)});
    Tensor* labels = g.add_input("labels", {b}, DataType::kInt32);
    Tensor* w1 = g.add_weight("w1", {Expr(8), Expr(16)});
    Tensor* b1 = g.add_weight("b1", {Expr(16)});
    Tensor* w2 = g.add_weight("w2", {Expr(16), Expr(4)});
    Tensor* h = relu(g, "relu", bias_add(g, "ba", matmul(g, "fc1", x, w1), b1));
    Tensor* logits = matmul(g, "fc2", h, w2);
    auto [per_row, probs] = softmax_xent(g, "xent", logits, labels);
    (void)probs;
    loss = reduce_mean(g, "loss", per_row);
  }
};

TEST(Autodiff, BuildsUpdateForEveryWeight) {
  Mlp m;
  const auto result = build_training_step(m.g, m.loss);
  EXPECT_EQ(result.weight_gradients.size(), 3u);
  std::size_t updates = 0;
  for (const auto& op : m.g.ops())
    if (op->type() == OpType::kApplyGradient) ++updates;
  EXPECT_EQ(updates, 3u);
  EXPECT_NO_THROW(verify::validate_or_throw(m.g));
}

TEST(Autodiff, MatrixBackpropIsTwiceForward) {
  // Pure matmul chain: each matmul contributes 2x its forward FLOPs in
  // backward (dX and dW — the paper's rule of thumb emerges from graph
  // structure), except the first layer: its dX is a gradient into the
  // batch input, reaches no weight update, and build_training_step
  // prunes it as dead compute.
  Graph g("chain");
  const Expr b = Expr::symbol("b"), h = Expr::symbol("h");
  Tensor* x = g.add_input("x", {b, h});
  Tensor* w1 = g.add_weight("w1", {h, h});
  Tensor* w2 = g.add_weight("w2", {h, h});
  Tensor* labels = g.add_input("labels", {b}, DataType::kInt32);

  Tensor* y = matmul(g, "m2", matmul(g, "m1", x, w1), w2);
  auto [per_row, probs] = softmax_xent(g, "xent", y, labels);
  (void)probs;
  Tensor* loss = reduce_mean(g, "loss", per_row);

  const Bindings bind{{"b", 32}, {"h", 64}};
  double forward_mm = 0.0;
  double m1_fwd = 0.0;
  for (const auto& op : g.ops())
    if (op->type() == OpType::kMatMul) {
      forward_mm += op->flops().eval(bind);
      if (op->name() == "m1") m1_fwd = op->flops().eval(bind);
    }

  build_training_step(g, loss);

  double all_mm = 0.0;
  for (const auto& op : g.ops())
    if (op->type() == OpType::kMatMul) all_mm += op->flops().eval(bind);
  // fwd + 2x fwd in backward, minus the pruned first-layer dX matmul.
  EXPECT_DOUBLE_EQ(all_mm, 3.0 * forward_mm - m1_fwd);
}

TEST(Autodiff, SharedWeightAccumulatesGradients) {
  // The same weight used twice must receive an AddN-accumulated gradient.
  Graph g("shared");
  const Expr b = Expr::symbol("b");
  Tensor* x = g.add_input("x", {b, Expr(8)});
  Tensor* w = g.add_weight("w", {Expr(8), Expr(8)});
  Tensor* labels = g.add_input("labels", {b}, DataType::kInt32);
  Tensor* y = matmul(g, "m2", matmul(g, "m1", x, w), w);
  auto [per_row, probs] = softmax_xent(g, "xent", y, labels);
  (void)probs;
  Tensor* loss = reduce_mean(g, "loss", per_row);

  const auto result = build_training_step(g, loss);
  Tensor* gw = result.weight_gradients.at(w);
  ASSERT_NE(gw->producer(), nullptr);
  EXPECT_EQ(gw->producer()->type(), OpType::kPointwise);  // AddN
  EXPECT_EQ(gw->role(), TensorRole::kWeightGradient);
}

TEST(Autodiff, EmbeddingGradIsDenseTableShaped) {
  Graph g("emb");
  const Expr b = Expr::symbol("b");
  Tensor* table = g.add_weight("table", {Expr(1000), Expr(16)});
  Tensor* ids = g.add_input("ids", {b}, DataType::kInt32);
  Tensor* w = g.add_weight("w", {Expr(16), Expr(4)});
  Tensor* labels = g.add_input("labels", {b}, DataType::kInt32);
  Tensor* logits = matmul(g, "proj", embedding_lookup(g, "emb", table, ids), w);
  auto [per_row, probs] = softmax_xent(g, "xent", logits, labels);
  (void)probs;
  Tensor* loss = reduce_mean(g, "loss", per_row);

  const auto result = build_training_step(g, loss);
  Tensor* gt = result.weight_gradients.at(table);
  EXPECT_TRUE(gt->shape().equals(table->shape()));
  EXPECT_EQ(gt->producer()->type(), OpType::kEmbeddingGrad);
}

TEST(Autodiff, UnreachedWeightGetsNoUpdate) {
  Mlp m;
  m.g.add_weight("orphan", {Expr(10)});
  const auto result = build_training_step(m.g, m.loss);
  EXPECT_EQ(result.weight_gradients.size(), 3u);  // orphan excluded
}

TEST(Autodiff, RejectsNonScalarLoss) {
  Graph g("bad");
  Tensor* x = g.add_input("x", {Expr(4), Expr(4)});
  Tensor* w = g.add_weight("w", {Expr(4), Expr(4)});
  Tensor* y = matmul(g, "mm", x, w);
  EXPECT_THROW(build_training_step(g, y), std::logic_error);
}

TEST(Autodiff, RejectsInputAsLoss) {
  Graph g("bad");
  Tensor* x = g.add_input("x", TensorShape{});
  EXPECT_THROW(build_training_step(g, x), std::logic_error);
}

TEST(Autodiff, TrainingFlopsScaleLinearlyInBatch) {
  Mlp m;
  build_training_step(m.g, m.loss);
  const Expr flops = m.g.total_flops();
  const double f1 = flops.eval({{"b", 1}});
  const double f64 = flops.eval({{"b", 64}});
  // Update ops are batch-independent; everything else is linear in b up to
  // O(1) terms (e.g. the scalar mean), so the relation holds asymptotically.
  double update = 0.0;
  for (const auto& op : m.g.ops())
    if (op->type() == OpType::kApplyGradient) update += op->flops().eval({});
  EXPECT_NEAR(f64 - update, 64.0 * (f1 - update), 1e-3 * f64);
}

TEST(Autodiff, SplitConcatRoundTripDifferentiates) {
  Graph g("splitgrad");
  const Expr b = Expr::symbol("b");
  Tensor* x = g.add_input("x", {b, Expr(8)});
  Tensor* w = g.add_weight("w", {Expr(8), Expr(8)});
  Tensor* labels = g.add_input("labels", {b}, DataType::kInt32);
  Tensor* y = matmul(g, "mm", x, w);
  auto parts = split(g, "sp", y, 1, 2);
  Tensor* back = concat(g, "cat", {parts[0], parts[1]}, 1);
  auto [per_row, probs] = softmax_xent(g, "xent", back, labels);
  (void)probs;
  Tensor* loss = reduce_mean(g, "loss", per_row);
  EXPECT_NO_THROW(build_training_step(g, loss));
  EXPECT_NO_THROW(verify::validate_or_throw(g));
}

TEST(Footprint, PersistentVsTransientSeparation) {
  Mlp m;
  build_training_step(m.g, m.loss, {.optimizer = Optimizer::kSGD});
  const Bindings bind{{"b", 32}};
  const auto fp = minimal_footprint(m.g, bind);
  // Weights: 8*16 + 16 + 16*4 = 208 params; grads double it.
  EXPECT_DOUBLE_EQ(fp.persistent_bytes, 2.0 * 208 * 4);
  EXPECT_GT(fp.peak_transient_bytes, 0.0);
  EXPECT_DOUBLE_EQ(fp.total_bytes, fp.persistent_bytes + fp.peak_transient_bytes);
}

TEST(Footprint, MomentumAddsSlotBytes) {
  Mlp sgd_model, mom_model;
  build_training_step(sgd_model.g, sgd_model.loss, {.optimizer = Optimizer::kSGD});
  build_training_step(mom_model.g, mom_model.loss, {.optimizer = Optimizer::kMomentum});
  const Bindings bind{{"b", 8}};
  const auto fp_sgd = minimal_footprint(sgd_model.g, bind);
  const auto fp_mom = minimal_footprint(mom_model.g, bind);
  EXPECT_DOUBLE_EQ(fp_mom.persistent_bytes - fp_sgd.persistent_bytes, 208 * 4);
}

TEST(Footprint, GrowsWithBatch) {
  Mlp m;
  build_training_step(m.g, m.loss);
  const auto fp8 = minimal_footprint(m.g, {{"b", 8}});
  const auto fp64 = minimal_footprint(m.g, {{"b", 64}});
  EXPECT_GT(fp64.peak_transient_bytes, fp8.peak_transient_bytes);
  EXPECT_DOUBLE_EQ(fp64.persistent_bytes, fp8.persistent_bytes);
}

TEST(Footprint, BoundedBelowByLargestTensor) {
  Mlp m;
  build_training_step(m.g, m.loss);
  const Bindings bind{{"b", 16}};
  double largest = 0.0;
  for (const auto& t : m.g.tensors())
    largest = std::max(largest, t->bytes().eval(bind));
  const auto fp = minimal_footprint(m.g, bind);
  EXPECT_GE(fp.total_bytes, largest);
}

TEST(Footprint, BoundedAboveBySumOfAllTensors) {
  Mlp m;
  build_training_step(m.g, m.loss);
  const Bindings bind{{"b", 16}};
  double sum = 0.0;
  for (const auto& t : m.g.tensors()) sum += t->bytes().eval(bind);
  const auto fp = minimal_footprint(m.g, bind);
  EXPECT_LE(fp.total_bytes, sum);
}

}  // namespace
}  // namespace gf::ir
