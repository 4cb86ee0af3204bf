// Edge-path coverage: validation failures, rendering corner cases, and
// API misuse that must fail loudly rather than corrupt an analysis.
#include <gtest/gtest.h>

#include <sstream>

#include "src/ir/footprint.h"
#include "src/ir/gradients.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"
#include "src/ir/serialize.h"
#include "src/util/table.h"
#include "src/verify/pass.h"

namespace gf {
namespace {

using sym::Expr;

TEST(GraphValidate, RejectsOrphanActivation) {
  ir::Graph g("bad");
  g.make_tensor("floating", ir::TensorShape{Expr(4)}, ir::DataType::kFloat32,
                ir::TensorRole::kActivation);
  EXPECT_THROW(verify::validate_or_throw(g), std::logic_error);
}

TEST(GraphValidate, AcceptsProducerlessStateRoles) {
  ir::Graph g("ok");
  g.make_tensor("seed", ir::TensorShape{}, ir::DataType::kFloat32,
                ir::TensorRole::kGradient);
  g.make_tensor("slot", ir::TensorShape{Expr(4)}, ir::DataType::kFloat32,
                ir::TensorRole::kOptimizerState);
  EXPECT_NO_THROW(verify::validate_or_throw(g));
}

TEST(TensorShape, EvalRejectsNonIntegerAndNonPositive) {
  const ir::TensorShape fractional{Expr::symbol("h") / Expr(3)};
  EXPECT_THROW(fractional.eval({{"h", 4.0}}), std::runtime_error);
  EXPECT_NO_THROW(fractional.eval({{"h", 9.0}}));
  const ir::TensorShape negative{Expr::symbol("h") - Expr(10)};
  EXPECT_THROW(negative.eval({{"h", 4.0}}), std::runtime_error);
}

TEST(Tensor, SecondProducerIsRejected) {
  ir::Graph g("t");
  ir::Tensor* x = g.add_input("x", {Expr(4), Expr(4)});
  ir::Tensor* w = g.add_weight("w", {Expr(4), Expr(4)});
  ir::Tensor* y = ir::matmul(g, "m", x, w);
  EXPECT_THROW(y->set_producer(y->producer()), std::logic_error);
}

TEST(Gradients, SecondTrainingStepBuildIsRejectedByStructure) {
  // Building a second backward pass over a graph that already contains
  // non-differentiable gradient ops must throw, not silently double-count.
  ir::Graph g("t");
  ir::Tensor* x = g.add_input("x", {Expr(2), Expr(3)});
  ir::Tensor* w = g.add_weight("w", {Expr(3), Expr(4)});
  ir::Tensor* labels = g.add_input("labels", {Expr(2)}, ir::DataType::kInt32);
  auto [rows, probs] = ir::softmax_xent(g, "xent", ir::matmul(g, "m", x, w), labels);
  (void)probs;
  ir::Tensor* loss = ir::reduce_mean(g, "loss", rows);
  ir::build_training_step(g, loss);
  EXPECT_THROW(ir::build_training_step(g, loss), std::logic_error);
}

TEST(Footprint, ThrowsOnUnboundSymbols) {
  ir::Graph g("t");
  ir::Tensor* x = g.add_input("x", {Expr::symbol("batch"), Expr(3)});
  ir::Tensor* w = g.add_weight("w", {Expr(3), Expr(4)});
  ir::matmul(g, "m", x, w);
  EXPECT_THROW(ir::minimal_footprint(g, {}), std::runtime_error);
}

TEST(ExprPrinting, QuotientsAndMaxRender) {
  const Expr a = Expr::symbol("a"), b = Expr::symbol("b"), c = Expr::symbol("c");
  EXPECT_EQ((a / (b * c)).str(), "a/(b*c)");
  EXPECT_EQ((Expr(1) / a).str(), "1/a");
  EXPECT_EQ(sym::max(a, b + c).str(), "max(b + c, a)");  // canonical child order
  EXPECT_EQ((Expr(-2) * a).str(), "-2*a");
  EXPECT_EQ(sym::log(a * b).str(), "log(a*b)");
}

TEST(ExprPrinting, NegativeExponentEvaluates) {
  const Expr e = sym::pow(Expr::symbol("x"), sym::Rational(-2));
  EXPECT_DOUBLE_EQ(e.eval({{"x", 4.0}}), 1.0 / 16.0);
}

TEST(Serializer, RejectsBadRoleAndDtype) {
  EXPECT_THROW(ir::deserialize(std::string("graph g\ntensor 0 banana f32 x 4")),
               std::invalid_argument);
  EXPECT_THROW(ir::deserialize(std::string("graph g\ntensor 0 input f99 x 4")),
               std::invalid_argument);
  EXPECT_THROW(ir::deserialize(std::string("graph g\nretag 7 weight")),
               std::invalid_argument);
}

TEST(Serializer, PreservesIntAndHalfDtypes) {
  ir::Graph g("dtypes");
  g.add_input("ids", {Expr(4)}, ir::DataType::kInt32);
  ir::Tensor* w16 = g.add_weight("w16", {Expr(8)}, ir::DataType::kFloat16);
  (void)w16;
  const auto loaded = ir::deserialize(ir::serialize(g));
  EXPECT_EQ(loaded->inputs()[0]->dtype(), ir::DataType::kInt32);
  EXPECT_EQ(loaded->weights()[0]->dtype(), ir::DataType::kFloat16);
}

TEST(Table, SetAlignLeftJustifies) {
  util::Table t({"k", "v"});
  t.set_align(1, util::Align::kLeft);
  t.add_row({"a", "1"});
  t.add_row({"bb", "22"});
  std::ostringstream os;
  t.print(os);
  // Left-aligned value column: "1 " padded on the right.
  EXPECT_NE(os.str().find("| 1 "), std::string::npos);
}

TEST(Ops, SplitRequiresDivisibleAxis) {
  ir::Graph g("t");
  ir::Tensor* x = g.add_input("x", {Expr(4), Expr(9)});
  auto parts = ir::split(g, "s", x, 1, 3);  // 9/3 = 3, fine
  EXPECT_EQ(parts.size(), 3u);
  // Non-divisible splits surface at eval time via the fractional dim.
  auto bad = ir::split(g, "s2", x, 1, 2);
  EXPECT_THROW(bad[0]->shape().eval({}), std::runtime_error);
}

TEST(Ops, MaxArityAndAxisChecks) {
  ir::Graph g("t");
  ir::Tensor* x = g.add_input("x", {Expr(4)});
  EXPECT_THROW(ir::concat(g, "c", {x}, 0), std::invalid_argument);  // needs >= 2
  ir::Tensor* y = g.add_input("y", {Expr(4)});
  EXPECT_THROW(ir::concat(g, "c2", {x, y}, 3), std::invalid_argument);  // bad axis
}

}  // namespace
}  // namespace gf
