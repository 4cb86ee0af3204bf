// Unit tests for op shape inference, algorithmic FLOPs, and bytes accessed.
#include <gtest/gtest.h>

#include "src/ir/footprint.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"
#include "src/verify/pass.h"

namespace gf::ir {
namespace {

using sym::Bindings;
using sym::Expr;

TEST(MatMulOp, ShapeAndFlops) {
  Graph g("t");
  Tensor* a = g.add_input("a", {Expr::symbol("m"), Expr::symbol("k")});
  Tensor* b = g.add_weight("b", {Expr::symbol("k"), Expr::symbol("n")});
  Tensor* y = matmul(g, "mm", a, b);
  EXPECT_EQ(y->shape().str(), "(m, n)");
  const Bindings bind{{"m", 8}, {"k", 16}, {"n", 32}};
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval(bind), 2.0 * 8 * 16 * 32);
  // Default bytes: all inputs read + outputs written, 4B floats.
  EXPECT_DOUBLE_EQ(g.ops()[0]->bytes_accessed().eval(bind),
                   4.0 * (8 * 16 + 16 * 32 + 8 * 32));
}

TEST(MatMulOp, TransposeFlagsChangeContraction) {
  Graph g("t");
  Tensor* a = g.add_input("a", {Expr(16), Expr(8)});   // A^T is (8, 16)
  Tensor* b = g.add_input("b", {Expr(32), Expr(16)});  // B^T is (16, 32)
  Tensor* y = matmul(g, "mm", a, b, /*trans_a=*/true, /*trans_b=*/true);
  EXPECT_EQ(y->shape().str(), "(8, 32)");
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({}), 2.0 * 8 * 16 * 32);
}

TEST(MatMulOp, BatchedSharedWeights) {
  Graph g("t");
  Tensor* a = g.add_input("a", {Expr::symbol("b0"), Expr(10), Expr(20)});
  Tensor* w = g.add_weight("w", {Expr(20), Expr(30)});
  Tensor* y = matmul(g, "mm", a, w);
  EXPECT_EQ(y->shape().str(), "(b0, 10, 30)");
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({{"b0", 4}}), 2.0 * 4 * 10 * 20 * 30);
}

TEST(MatMulOp, RejectsInnerDimMismatch) {
  Graph g("t");
  Tensor* a = g.add_input("a", {Expr(4), Expr(5)});
  Tensor* b = g.add_input("b", {Expr(6), Expr(7)});
  EXPECT_THROW(matmul(g, "mm", a, b), std::invalid_argument);
}

TEST(MatMulOp, RejectsRank2TimesRank3) {
  Graph g("t");
  Tensor* a = g.add_input("a", {Expr(4), Expr(5)});
  Tensor* b = g.add_input("b", {Expr(2), Expr(5), Expr(7)});
  EXPECT_THROW(matmul(g, "mm", a, b), std::invalid_argument);
}

TEST(Conv2DOp, ShapeAndFlops) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr::symbol("n"), Expr(32), Expr(32), Expr(3)});
  Tensor* f = g.add_weight("f", {Expr(3), Expr(3), Expr(3), Expr(64)});
  Tensor* y = conv2d(g, "conv", x, f, /*stride=*/2);
  EXPECT_EQ(y->shape().str(), "(n, 16, 16, 64)");
  // 2 * N*Ho*Wo*Cout * Kh*Kw*Cin
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({{"n", 2}}),
                   2.0 * 2 * 16 * 16 * 64 * 3 * 3 * 3);
}

TEST(Conv2DOp, RejectsChannelMismatch) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(1), Expr(8), Expr(8), Expr(4)});
  Tensor* f = g.add_weight("f", {Expr(3), Expr(3), Expr(5), Expr(8)});
  EXPECT_THROW(conv2d(g, "conv", x, f), std::invalid_argument);
}

TEST(PointwiseOp, FlopsPerFunction) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(10), Expr(10)});
  Tensor* y = g.add_input("y", {Expr(10), Expr(10)});
  add(g, "a", x, y);
  sigmoid(g, "s", x);
  tanh(g, "t", x);
  add_n(g, "n", {x, y, x});
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({}), 100.0);
  EXPECT_DOUBLE_EQ(g.ops()[1]->flops().eval({}), 400.0);
  EXPECT_DOUBLE_EQ(g.ops()[2]->flops().eval({}), 600.0);
  EXPECT_DOUBLE_EQ(g.ops()[3]->flops().eval({}), 200.0);  // (3-1) per element
}

TEST(PointwiseOp, RejectsShapeMismatch) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(10)});
  Tensor* y = g.add_input("y", {Expr(11)});
  EXPECT_THROW(add(g, "a", x, y), std::invalid_argument);
}

TEST(EmbeddingLookupOp, BytesTouchOnlyGatheredRows) {
  Graph g("t");
  const Expr v = Expr::symbol("v"), e = Expr::symbol("e"), b = Expr::symbol("b");
  Tensor* table = g.add_weight("table", {v, e});
  Tensor* ids = g.add_input("ids", {b, Expr(20)}, DataType::kInt32);
  Tensor* out = embedding_lookup(g, "emb", table, ids);
  EXPECT_EQ(out->shape().str(), "(b, 20, e)");
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({}), 0.0);
  const Bindings bind{{"v", 1e6}, {"e", 512}, {"b", 8}};
  // 2 * gathered bytes + ids bytes; the 1M-row table is NOT streamed.
  EXPECT_DOUBLE_EQ(g.ops()[0]->bytes_accessed().eval(bind),
                   2.0 * 8 * 20 * 512 * 4 + 8 * 20 * 4);
}

TEST(SoftmaxXentOp, ShapesAndFlops) {
  Graph g("t");
  Tensor* logits = g.add_input("l", {Expr(8), Expr::symbol("c")});
  Tensor* labels = g.add_input("y", {Expr(8)}, DataType::kInt32);
  auto [loss, probs] = softmax_xent(g, "xent", logits, labels);
  EXPECT_EQ(loss->shape().str(), "(8)");
  EXPECT_EQ(probs->shape().str(), "(8, c)");
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({{"c", 100}}), 6.0 * 800);
}

TEST(ReduceOp, MeanToScalar) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(8), Expr(4)});
  Tensor* m = reduce_mean(g, "m", x);
  EXPECT_EQ(m->shape().rank(), 0u);
  EXPECT_DOUBLE_EQ(m->num_elements().eval({}), 1.0);
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({}), 32.0 + 1.0);
}

TEST(ReduceOp, KeepLastAxis) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(8), Expr(4), Expr(6)});
  Tensor* s = reduce_sum(g, "s", x, /*keep_last_n=*/1);
  EXPECT_EQ(s->shape().str(), "(6)");
}

TEST(PoolOp, HalvesSpatialDims) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(2), Expr(16), Expr(16), Expr::symbol("c")});
  Tensor* y = pool(g, "p", x, PoolKind::kMax, 2, 2);
  EXPECT_EQ(y->shape().str(), "(2, 8, 8, c)");
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({{"c", 3}}), 2.0 * 16 * 16 * 3);
}

TEST(ConcatSplit, RoundTripShapes) {
  Graph g("t");
  Tensor* a = g.add_input("a", {Expr(4), Expr::symbol("h")});
  Tensor* b = g.add_input("b", {Expr(4), Expr::symbol("e")});
  Tensor* c = concat(g, "c", {a, b}, 1);
  EXPECT_EQ(c->shape().str(), "(4, e + h)");

  Tensor* z = g.add_input("z", {Expr(4), Expr(4) * Expr::symbol("h")});
  auto parts = split(g, "s", z, 1, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0]->shape().str(), "(4, h)");
}

TEST(ConcatOp, RejectsMismatchedNonAxisDims) {
  Graph g("t");
  Tensor* a = g.add_input("a", {Expr(4), Expr(8)});
  Tensor* b = g.add_input("b", {Expr(5), Expr(8)});
  EXPECT_THROW(concat(g, "c", {a, b}, 1), std::invalid_argument);
}

TEST(ReshapeOp, PreservesElementsAndIsFree) {
  Graph g("t");
  const Expr b = Expr::symbol("b"), q = Expr(20), e = Expr::symbol("e");
  Tensor* x = g.add_input("x", {b, q, e});
  Tensor* y = reshape(g, "r", x, TensorShape{b * q, e});
  EXPECT_TRUE(y->num_elements().equals(x->num_elements()));
  EXPECT_DOUBLE_EQ(g.ops()[0]->flops().eval({}), 0.0);
  EXPECT_DOUBLE_EQ(g.ops()[0]->bytes_accessed().eval({}), 0.0);
}

TEST(ReshapeOp, RejectsElementCountChange) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(4), Expr(4)});
  EXPECT_THROW(reshape(g, "r", x, TensorShape{Expr(5), Expr(5)}), std::invalid_argument);
}

TEST(ApplyGradientOp, OptimizerSlotsAndCosts) {
  Graph g("t");
  Tensor* w = g.add_weight("w", {Expr(100)});
  Tensor* gw = g.add_input("gw", {Expr(100)});
  auto* sgd = g.add_op<ApplyGradientOp>("sgd", w, gw, Optimizer::kSGD);
  EXPECT_EQ(sgd->num_slots(), 0u);
  EXPECT_DOUBLE_EQ(sgd->flops().eval({}), 200.0);
  EXPECT_DOUBLE_EQ(sgd->bytes_accessed().eval({}), 4.0 * (2 * 100 + 100));

  Graph g2("t2");
  Tensor* w2 = g2.add_weight("w", {Expr(100)});
  Tensor* gw2 = g2.add_input("gw", {Expr(100)});
  auto* adam = g2.add_op<ApplyGradientOp>("adam", w2, gw2, Optimizer::kAdam);
  EXPECT_EQ(adam->num_slots(), 2u);
  EXPECT_DOUBLE_EQ(adam->flops().eval({}), 1000.0);
}

TEST(Graph, AggregatesAndParameterCount) {
  Graph g("t");
  const Expr h = Expr::symbol("h");
  Tensor* x = g.add_input("x", {Expr(8), h});
  Tensor* w1 = g.add_weight("w1", {h, h});
  Tensor* w2 = g.add_weight("w2", {h, h});
  Tensor* y1 = matmul(g, "m1", x, w1);
  matmul(g, "m2", y1, w2);
  EXPECT_TRUE(g.parameter_count().equals(Expr(2) * h * h));
  EXPECT_DOUBLE_EQ(g.total_flops().eval({{"h", 64}}), 2.0 * 2 * 8 * 64 * 64);
  verify::validate_or_throw(g);
}

TEST(Graph, TopologicalOrderRespectsDependencies) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(4), Expr(4)});
  Tensor* w = g.add_weight("w", {Expr(4), Expr(4)});
  Tensor* a = matmul(g, "a", x, w);
  Tensor* b = relu(g, "b", a);
  matmul(g, "c", b, w);
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0]->name(), "a");
  EXPECT_EQ(order[1]->name(), "b");
  EXPECT_EQ(order[2]->name(), "c");
}

TEST(Graph, ValidateAcceptsWellFormedTrainingishGraph) {
  Graph g("t");
  Tensor* x = g.add_input("x", {Expr(2), Expr(3)});
  Tensor* w = g.add_weight("w", {Expr(3), Expr(5)});
  Tensor* labels = g.add_input("y", {Expr(2)}, DataType::kInt32);
  auto [loss, probs] = softmax_xent(g, "xent", matmul(g, "mm", x, w), labels);
  (void)loss;
  (void)probs;
  EXPECT_NO_THROW(verify::validate_or_throw(g));
}

}  // namespace
}  // namespace gf::ir
