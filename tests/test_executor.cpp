// End-to-end executor tests: the numeric runtime must agree with the
// symbolic layer (FLOPs, bytes, footprint), compute correct gradients
// (finite differences), and actually train (loss decreases).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "src/ir/footprint.h"
#include "src/ir/gradients.h"
#include "src/models/models.h"
#include "src/models/transformer.h"
#include "src/runtime/codegen/dispatch.h"
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

ModelCase toy_word_lm() {
  models::WordLmConfig cfg;
  cfg.vocab = 40;
  cfg.seq_length = 5;
  cfg.layers = 2;
  return {"word_lm", models::build_word_lm(cfg), 8, 2};
}

std::vector<ModelCase> toy_models() {
  std::vector<ModelCase> cases;
  cases.push_back(toy_word_lm());
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

// --- shared-weight panels -------------------------------------------------

std::uint32_t bits_of(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::vector<std::uint32_t> float_bits(const DenseTensor& t) {
  std::vector<std::uint32_t> bits(static_cast<std::size_t>(t.numel()));
  std::memcpy(bits.data(), t.fdata(), bits.size() * sizeof(std::uint32_t));
  return bits;
}

// Every recurrent weight matrix (one whose gradient the executor computes
// as a single stacked GEMM over Concat'ed timesteps) gets exactly two
// panels, for z_t·W and dgates_t·Wᵀ; no other weight gets one.
TEST(Executor, PacksTwoPanelsPerRecurrentWeight) {
  std::vector<ModelCase> cases = toy_models();
  models::TransformerLmConfig tcfg;
  tcfg.vocab = 30;
  tcfg.layers = 2;
  tcfg.seq_length = 4;
  cases.push_back({"transformer", models::build_transformer_lm(tcfg), 8, 2});
  for (const ModelCase& c : cases) {
    SCOPED_TRACE(c.name);
    Executor ex(*c.spec.graph, c.spec.bind(c.hidden, c.batch));
    std::map<const ir::Tensor*, int> trans_seen;  // recurrent weight -> trans_b bits
    for (const auto& op : ex.executing_graph().ops()) {
      if (op->type() != ir::OpType::kApplyGradient) continue;
      const ir::Op* grad = op->input(1)->producer();
      if (grad != nullptr && grad->type() == ir::OpType::kMatMul &&
          grad->input(0)->producer() != nullptr &&
          grad->input(0)->producer()->type() == ir::OpType::kConcat)
        trans_seen.emplace(op->input(0), 0);
    }
    for (const Executor::PackedWeight& pw : ex.packed_weights()) {
      ASSERT_TRUE(trans_seen.contains(pw.weight)) << pw.weight->name();
      EXPECT_GE(pw.readers.size(), 2u) << pw.weight->name();
      trans_seen[pw.weight] |= 1 << static_cast<int>(pw.trans_b);
    }
    for (const auto& [w, seen] : trans_seen) EXPECT_EQ(seen, 3) << w->name();
    EXPECT_EQ(ex.packed_weights().size(), 2 * trans_seen.size());
    const std::string name = c.name;
    if (name == "word_lm") {
      EXPECT_EQ(ex.packed_weights().size(), 4u);
    }
    if (name == "transformer" || name == "resnet") {
      EXPECT_TRUE(ex.packed_weights().empty());
    }
  }
}

// The panels are packed from the weights' current values in every step's
// prologue: a fresh executor handed a trained one's weights through
// weight_value() takes the next step bit for bit like the trained one.
// Packing once per plan would leave the trained executor on its initial
// weights' panels.
TEST(Executor, PackedPanelsFollowWeightUpdates) {
  const ModelCase c = toy_word_lm();
  const Bindings bind = c.spec.bind(c.hidden, c.batch);
  Executor trained(*c.spec.graph, bind);
  trained.retain(c.spec.loss);
  ASSERT_FALSE(trained.packed_weights().empty());
  for (int i = 0; i < 3; ++i) trained.run_step();

  Executor fresh(*c.spec.graph, bind);
  fresh.retain(c.spec.loss);
  for (const auto& t : c.spec.graph->tensors())
    if (t->role() == ir::TensorRole::kWeight)
      fresh.weight_value(t.get()) = trained.weight_value(t.get());
  trained.run_step();
  fresh.run_step();
  EXPECT_EQ(bits_of(fresh.value(c.spec.loss).f(0)), bits_of(trained.value(c.spec.loss).f(0)));
}

/// h1 = tanh(x·W), h2 = tanh(h1·W), h3 = tanh(h2·W) with one 21 x 21 W:
/// three MatMuls read W and two read Wᵀ, and 21 is a multiple of no
/// register tile's nr.
struct TiedSquare {
  Graph g{"tied"};
  Tensor* loss = nullptr;
  Tensor* w = nullptr;

  TiedSquare() {
    Tensor* h = g.add_input("x", {Expr::symbol("batch"), Expr(21)});
    w = g.add_weight("w", {Expr(21), Expr(21)});
    for (int l = 0; l < 3; ++l)
      h = ir::tanh(g, "act" + std::to_string(l),
                   ir::matmul(g, "fc" + std::to_string(l), h, w));
    loss = ir::reduce_mean(g, "loss", h);
    ir::build_training_step(g, loss, {});
  }
};

// Panels are laid out for the tiling in force: a step under another ISA's
// register tile re-plans, so switching ISAs between steps keeps the bits
// of an executor that never switched.
TEST(Executor, PackedPanelsFollowTheActiveIsa) {
  TiedSquare m;
  const Bindings bind{{"batch", 5}};
  Executor plain(m.g, bind);
  Executor switched(m.g, bind);
  plain.retain(m.loss);
  switched.retain(m.loss);
  ASSERT_EQ(switched.packed_weights().size(), 2u);
  for (hw::SimdIsa isa : {hw::SimdIsa::kGeneric, hw::best_simd_isa()}) {
    SCOPED_TRACE(hw::simd_isa_name(isa));
    codegen::set_forced_isa(isa);
    switched.run_step();
    codegen::set_forced_isa(std::nullopt);
    plain.run_step();
    EXPECT_EQ(bits_of(switched.value(m.loss).f(0)), bits_of(plain.value(m.loss).f(0)));
    EXPECT_EQ(float_bits(switched.weight_value(m.w)), float_bits(plain.weight_value(m.w)));
  }
}

}  // namespace
}  // namespace gf::rt
