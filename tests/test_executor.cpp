// End-to-end executor tests: the numeric runtime must agree with the
// symbolic layer (FLOPs, bytes, footprint), compute correct gradients
// (finite differences), and actually train (loss decreases).
#include <gtest/gtest.h>

#include <cmath>

#include "src/ir/footprint.h"
#include "src/ir/gradients.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"

namespace gf::rt {
namespace {

using ir::Graph;
using ir::Tensor;
using sym::Bindings;
using sym::Expr;

struct TinyMlp {
  Graph g{"mlp"};
  Tensor* loss = nullptr;
  Tensor* w1 = nullptr;
  Tensor* w2 = nullptr;

  explicit TinyMlp(ir::Optimizer opt = ir::Optimizer::kSGD) {
    const Expr b = Expr::symbol("batch");
    Tensor* x = g.add_input("x", {b, Expr(6)});
    Tensor* labels = g.add_input("labels", {b}, ir::DataType::kInt32);
    w1 = g.add_weight("w1", {Expr(6), Expr(8)});
    Tensor* b1 = g.add_weight("b1", {Expr(8)});
    w2 = g.add_weight("w2", {Expr(8), Expr(3)});
    Tensor* h = ir::tanh(g, "act", ir::bias_add(g, "ba", ir::matmul(g, "fc1", x, w1), b1));
    auto [per_row, probs] = ir::softmax_xent(g, "xent", ir::matmul(g, "fc2", h, w2), labels);
    (void)probs;
    loss = ir::reduce_mean(g, "loss", per_row);
    ir::build_training_step(g, loss, {.optimizer = opt});
  }
};

// Symbolic expectations come from the graph the executor actually runs
// (executing_graph(), the fused rewrite by default): measured counters must
// match the executed graph's formulas exactly.
TEST(Executor, FlopsMatchSymbolicExactly) {
  TinyMlp m;
  const Bindings bind{{"batch", 16}};
  Executor ex(m.g, bind);
  const ProfileReport report = ex.run_step();
  const double symbolic = ex.executing_graph().total_flops().eval(bind);
  EXPECT_NEAR(report.total_flops, symbolic, 1e-6 * symbolic);
}

TEST(Executor, BytesMatchSymbolicExactly) {
  TinyMlp m;
  const Bindings bind{{"batch", 16}};
  Executor ex(m.g, bind);
  const ProfileReport report = ex.run_step();
  const double symbolic = ex.executing_graph().total_bytes_accessed().eval(bind);
  EXPECT_NEAR(report.total_bytes, symbolic, 1e-6 * symbolic);
}

TEST(Executor, ArenaPeakMatchesTopologicalFootprint) {
  TinyMlp m;
  const Bindings bind{{"batch", 16}};
  Executor ex(m.g, bind);
  const auto predicted = ir::minimal_footprint(ex.executing_graph(), bind);
  ex.run_step();
  const ProfileReport report = ex.run_step();
  // The measured peak IS the plan, and the plan stays within per-tensor
  // alignment padding of the analytic sequential footprint (exact without
  // padding: MemPlan.UnpaddedUnaliasedLivenessEqualsTopologicalFootprint).
  const MemoryPlan& plan = *ex.memory_plan();
  EXPECT_EQ(report.peak_allocated_bytes, plan.planned_peak_bytes());
  EXPECT_LE(static_cast<double>(plan.planned_peak_bytes()),
            predicted.total_bytes + static_cast<double>(kTensorAlignment * plan.tensors.size()));
}

TEST(Executor, GradientsPassFiniteDifferenceCheck) {
  TinyMlp m;
  const Bindings bind{{"batch", 4}};
  ExecutorOptions opt;
  opt.apply_updates = false;  // freeze weights across probe runs
  Executor ex(m.g, bind, opt);
  ex.retain(m.loss);

  // Locate the accumulated gradient tensor for w1.
  const ir::Tensor* gw1 = nullptr;
  for (const auto& op : m.g.ops())
    if (op->type() == ir::OpType::kApplyGradient && op->input(0) == m.w1)
      gw1 = op->input(1);
  ASSERT_NE(gw1, nullptr);

  ex.run_step();
  std::vector<float> grads(5);
  for (int i = 0; i < 5; ++i) grads[static_cast<std::size_t>(i)] = ex.value(gw1).f(i);

  const double eps = 1e-3;
  for (int i = 0; i < 5; ++i) {
    DenseTensor& w = ex.weight_value(m.w1);
    const float original = w.f(i);
    w.f(i) = original + static_cast<float>(eps);
    ex.run_step();
    const double lp = ex.value(m.loss).f(0);
    w.f(i) = original - static_cast<float>(eps);
    ex.run_step();
    const double lm = ex.value(m.loss).f(0);
    w.f(i) = original;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(grads[static_cast<std::size_t>(i)], numeric,
                2e-2 * std::max(0.05, std::fabs(numeric)))
        << "weight index " << i;
  }
}

TEST(Executor, TrainingReducesLoss) {
  TinyMlp m;
  const Bindings bind{{"batch", 8}};
  ExecutorOptions opt;
  opt.learning_rate = 0.2;
  Executor ex(m.g, bind, opt);
  ex.retain(m.loss);
  ex.run_step();
  const float first = ex.value(m.loss).f(0);
  for (int i = 0; i < 80; ++i) ex.run_step();
  const float last = ex.value(m.loss).f(0);
  EXPECT_LT(last, 0.3f * first);  // inputs are fixed, so it must memorize
}

TEST(Executor, MomentumTrainsToo) {
  TinyMlp m(ir::Optimizer::kMomentum);
  const Bindings bind{{"batch", 16}};
  ExecutorOptions opt;
  opt.learning_rate = 0.05;
  Executor ex(m.g, bind, opt);
  ex.retain(m.loss);
  ex.run_step();
  const float first = ex.value(m.loss).f(0);
  for (int i = 0; i < 40; ++i) ex.run_step();
  EXPECT_LT(ex.value(m.loss).f(0), first);
}

TEST(Executor, RejectsBadInputShape) {
  TinyMlp m;
  Executor ex(m.g, {{"batch", 4}});
  DenseTensor wrong({3, 6}, ir::DataType::kFloat32);
  EXPECT_THROW(ex.set_input(m.g.inputs()[0], std::move(wrong)), std::invalid_argument);
}

TEST(Executor, PinnedInputIsUsed) {
  // A pinned all-zero input through tanh keeps the hidden layer at the
  // bias value; checking determinism of the loss across two steps with
  // updates disabled.
  TinyMlp m;
  ExecutorOptions opt;
  opt.apply_updates = false;
  Executor ex(m.g, {{"batch", 4}}, opt);
  ex.retain(m.loss);
  DenseTensor zeros({4, 6}, ir::DataType::kFloat32);
  ex.set_input(m.g.inputs()[0], std::move(zeros));
  ex.run_step();
  const float l1 = ex.value(m.loss).f(0);
  ex.run_step();
  EXPECT_FLOAT_EQ(ex.value(m.loss).f(0), l1);
}

// --- full paper models at toy sizes -------------------------------------

struct ModelCase {
  const char* name;
  models::ModelSpec spec;
  double hidden;
  double batch;
};

std::vector<ModelCase> toy_models() {
  std::vector<ModelCase> cases;
  {
    models::WordLmConfig cfg;
    cfg.vocab = 40;
    cfg.seq_length = 5;
    cfg.layers = 2;
    cases.push_back({"word_lm", models::build_word_lm(cfg), 8, 2});
  }
  {
    models::CharLmConfig cfg;
    cfg.vocab = 20;
    cfg.depth = 3;
    cfg.seq_length = 4;
    cases.push_back({"char_lm", models::build_char_lm(cfg), 8, 2});
  }
  {
    models::NmtConfig cfg;
    cfg.vocab_src = 30;
    cfg.vocab_tgt = 30;
    cfg.src_length = 4;
    cfg.tgt_length = 3;
    cfg.decoder_layers = 1;
    cases.push_back({"nmt", models::build_nmt(cfg), 8, 2});
  }
  {
    models::SpeechConfig cfg;
    cfg.audio_frames = 8;
    cfg.feature_dim = 5;
    cfg.encoder_layers = 2;
    cfg.decoder_length = 3;
    cfg.vocab = 15;
    cases.push_back({"speech", models::build_speech(cfg), 6, 2});
  }
  {
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.image_size = 32;
    cfg.classes = 10;
    cases.push_back({"resnet", models::build_resnet(cfg), 4, 2});
  }
  return cases;
}

class ToyModelExecution : public ::testing::TestWithParam<int> {};

TEST_P(ToyModelExecution, RunsAndMatchesSymbolicCounts) {
  auto cases = toy_models();
  ModelCase& c = cases[static_cast<std::size_t>(GetParam())];
  const Bindings bind = c.spec.bind(c.hidden, c.batch);

  Executor ex(*c.spec.graph, bind);
  ex.run_step();  // warm-up: memory plan and kernel scratch
  const ProfileReport report = ex.run_step();

  // Against the executed graph's formulas (the fused rewrite by default).
  const double sym_flops = ex.executing_graph().total_flops().eval(bind);
  const double sym_bytes = ex.executing_graph().total_bytes_accessed().eval(bind);
  EXPECT_NEAR(report.total_flops, sym_flops, 1e-6 * sym_flops) << c.name;
  EXPECT_NEAR(report.total_bytes, sym_bytes, 1e-6 * sym_bytes) << c.name;

  // The measured peak IS the plan, and the slab stays within per-tensor
  // alignment padding of the analytic sequential footprint.
  const auto fp = ir::minimal_footprint(ex.executing_graph(), bind);
  const MemoryPlan& plan = *ex.memory_plan();
  EXPECT_EQ(report.peak_allocated_bytes, plan.planned_peak_bytes()) << c.name;
  EXPECT_LE(static_cast<double>(plan.planned_peak_bytes()),
            fp.total_bytes + static_cast<double>(kTensorAlignment * plan.tensors.size()))
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllDomains, ToyModelExecution, ::testing::Range(0, 5));

TEST(ToyModelTraining, WordLmLossDecreases) {
  models::WordLmConfig cfg;
  cfg.vocab = 30;
  cfg.seq_length = 4;
  cfg.layers = 1;
  auto spec = models::build_word_lm(cfg);
  const Bindings bind = spec.bind(12, 4);

  const ir::Tensor* loss = spec.loss;
  ASSERT_NE(loss, nullptr);

  ExecutorOptions opt;
  opt.learning_rate = 0.5;
  Executor ex(*spec.graph, bind, opt);
  ex.retain(loss);
  ex.run_step();
  const float first = ex.value(loss).f(0);
  for (int i = 0; i < 30; ++i) ex.run_step();
  EXPECT_LT(ex.value(loss).f(0), first);
}

}  // namespace
}  // namespace gf::rt
