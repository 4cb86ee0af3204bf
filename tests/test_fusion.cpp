// Fusion subsystem tests: rewrite structure (chains, trees, broadcast
// absorption, GEMM epilogues), cost transparency (FLOPs conserved, bytes
// reduced, memplan slab never larger), the "fusion" verify pass with
// hand-broken negative cases, fused-graph serialization round-trips,
// clone_graph id preservation, and the end-to-end acceptance bar:
// fused execution bitwise-equal to unfused on every built-in model
// across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/concurrency/thread_pool.h"
#include "src/ir/footprint.h"
#include "src/ir/fusion.h"
#include "src/ir/gradients.h"
#include "src/ir/ops.h"
#include "src/ir/serialize.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"
#include "src/runtime/memplan.h"
#include "src/verify/pass.h"

namespace gf {
namespace {

using ir::Graph;
using ir::Op;
using ir::OpType;
using ir::PointwiseFn;
using ir::Tensor;
using sym::Bindings;
using sym::Expr;

struct TinyMlp {
  Graph g{"mlp"};
  Tensor* loss = nullptr;

  TinyMlp() {
    const Expr b = Expr::symbol("batch");
    Tensor* x = g.add_input("x", {b, Expr(6)});
    Tensor* labels = g.add_input("labels", {b}, ir::DataType::kInt32);
    Tensor* w1 = g.add_weight("w1", {Expr(6), Expr(8)});
    Tensor* b1 = g.add_weight("b1", {Expr(8)});
    Tensor* w2 = g.add_weight("w2", {Expr(8), Expr(3)});
    Tensor* h = ir::tanh(g, "act", ir::bias_add(g, "ba", ir::matmul(g, "fc1", x, w1), b1));
    auto [per_row, probs] = ir::softmax_xent(g, "xent", ir::matmul(g, "fc2", h, w2), labels);
    (void)probs;
    loss = ir::reduce_mean(g, "loss", per_row);
    ir::build_training_step(g, loss, {});
  }
};

struct ModelCase {
  const char* name;
  models::ModelSpec spec;
  double hidden;
};

/// All six built-in model families at toy sizes.
std::vector<ModelCase> builtin_models() {
  std::vector<ModelCase> cases;
  {
    models::WordLmConfig cfg;
    cfg.vocab = 40;
    cfg.seq_length = 5;
    cfg.layers = 2;
    cases.push_back({"word_lm", models::build_word_lm(cfg), 8});
  }
  {
    models::CharLmConfig cfg;
    cfg.vocab = 20;
    cfg.depth = 3;
    cfg.seq_length = 4;
    cases.push_back({"char_lm", models::build_char_lm(cfg), 8});
  }
  {
    models::NmtConfig cfg;
    cfg.vocab_src = 30;
    cfg.vocab_tgt = 30;
    cfg.src_length = 4;
    cfg.tgt_length = 3;
    cfg.decoder_layers = 1;
    cases.push_back({"nmt", models::build_nmt(cfg), 8});
  }
  {
    models::SpeechConfig cfg;
    cfg.audio_frames = 8;
    cfg.feature_dim = 5;
    cfg.encoder_layers = 2;
    cfg.decoder_length = 3;
    cfg.vocab = 15;
    cases.push_back({"speech", models::build_speech(cfg), 6});
  }
  {
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.image_size = 32;
    cfg.classes = 10;
    cases.push_back({"resnet", models::build_resnet(cfg), 4});
  }
  {
    models::TransformerLmConfig cfg;
    cfg.vocab = 40;
    cfg.layers = 2;
    cfg.seq_length = 6;
    cases.push_back({"transformer_lm", models::build_transformer_lm(cfg), 8});
  }
  return cases;
}

std::size_t fusion_error_count(const Graph& g) {
  std::size_t n = 0;
  for (const auto& d : verify::verify_graph(g).diagnostics)
    if (d.severity == verify::Severity::kError && d.pass == "fusion") ++n;
  return n;
}

std::size_t total_error_count(const Graph& g) {
  return verify::verify_graph(g).count(verify::Severity::kError);
}

std::size_t count_ops(const Graph& g, OpType type) {
  std::size_t n = 0;
  for (const auto& op : g.ops())
    if (op->type() == type) ++n;
  return n;
}

/// The fused op with the longest program (groups of one member plus an
/// absorbed broadcast are legal, so "the" interesting op is the biggest).
ir::FusedPointwiseOp* largest_fused(Graph& g) {
  ir::FusedPointwiseOp* best = nullptr;
  for (const auto& op : g.ops())
    if (op->type() == OpType::kFusedPointwise) {
      auto* f = static_cast<ir::FusedPointwiseOp*>(op.get());
      if (best == nullptr || f->program().size() > best->program().size()) best = f;
    }
  return best;
}

// --- rewrite structure ------------------------------------------------------

TEST(Fusion, FoldsGemmEpilogueAndConservesCosts) {
  TinyMlp m;
  const Bindings bind{{"batch", 16}};
  const double flops_before = m.g.total_flops().eval(bind);
  const double bytes_before = m.g.total_bytes_accessed().eval(bind);
  const std::size_t ops_before = m.g.num_ops();

  auto clone = ir::clone_graph(m.g);
  const ir::FusionResult r = ir::fuse_graph(*clone);
  EXPECT_GT(r.gemm_epilogues, 0u);
  EXPECT_GT(r.ops_removed, 0u);
  // ops_removed counts eliminated originals; each pointwise group adds one
  // fused op back.
  EXPECT_EQ(clone->num_ops(), ops_before - r.ops_removed + r.pointwise_groups);

  // The fc1 matmul absorbed bias_add + tanh: three inputs, epilogue set.
  const ir::MatMulOp* fused_mm = nullptr;
  for (const auto& op : clone->ops())
    if (op->type() == OpType::kMatMul &&
        static_cast<const ir::MatMulOp&>(*op).has_epilogue())
      fused_mm = static_cast<const ir::MatMulOp*>(op.get());
  ASSERT_NE(fused_mm, nullptr);
  EXPECT_TRUE(fused_mm->epilogue_bias());
  EXPECT_EQ(fused_mm->epilogue_activation(), PointwiseFn::kTanh);
  EXPECT_EQ(fused_mm->inputs().size(), 3u);

  // FLOPs conserved exactly; traffic strictly reduced; still lint-clean.
  EXPECT_DOUBLE_EQ(clone->total_flops().eval(bind), flops_before);
  EXPECT_LT(clone->total_bytes_accessed().eval(bind), bytes_before);
  EXPECT_EQ(total_error_count(*clone), 0u);
}

/// x -> tanh -> (* u) -> relu: a single-consumer mixed chain that must
/// collapse into one three-instruction program reading {x, u} only.
struct ChainGraph {
  Graph g{"chain"};
  Tensor* x = nullptr;
  Tensor* u = nullptr;

  ChainGraph() {
    const Expr b = Expr::symbol("batch");
    x = g.add_input("x", {b, Expr(8)});
    u = g.add_input("u", {b, Expr(8)});
    ir::relu(g, "r", ir::mul(g, "m", ir::tanh(g, "t", x), u));
  }
};

TEST(Fusion, CollapsesSingleConsumerChainsIntoOneProgram) {
  ChainGraph c;
  const Bindings bind{{"batch", 16}};
  const double bytes_before = c.g.total_bytes_accessed().eval(bind);
  const ir::FusionResult r = ir::fuse_graph(c.g);
  EXPECT_EQ(r.pointwise_groups, 1u);
  EXPECT_EQ(r.ops_removed, 3u);
  EXPECT_EQ(c.g.num_ops(), 1u);

  const ir::FusedPointwiseOp* f = largest_fused(c.g);
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->program().size(), 3u);
  ASSERT_EQ(f->inputs().size(), 2u);
  // Only the surviving tensors are charged: two inputs plus the output.
  const double bytes_after = c.g.total_bytes_accessed().eval(bind);
  const double expect = c.x->bytes().eval(bind) + c.u->bytes().eval(bind) +
                        f->output(0)->bytes().eval(bind);
  EXPECT_DOUBLE_EQ(bytes_after, expect);
  EXPECT_LT(bytes_after, bytes_before);
  // FLOPs conserved: the program re-derivation agrees with the cache.
  EXPECT_TRUE(f->flops().equals(f->derive_flops()));
  EXPECT_EQ(total_error_count(c.g), 0u);
}

TEST(Fusion, GroupsBackwardPointwiseWorkOnBuiltGraphs) {
  TinyMlp m;
  auto clone = ir::clone_graph(m.g);
  const ir::FusionResult r = ir::fuse_graph(*clone);
  // The loss-gradient broadcast feeds a pointwise scale; at minimum that
  // pair collapses.
  EXPECT_GT(r.pointwise_groups, 0u);
  EXPECT_GT(r.ops_removed, r.gemm_epilogues);
  const ir::FusedPointwiseOp* f = largest_fused(*clone);
  ASSERT_NE(f, nullptr);
  EXPECT_GE(f->program().size(), 1u);
  EXPECT_EQ(total_error_count(*clone), 0u);
}

TEST(Fusion, MultiConsumerTensorsAreNotFused) {
  Graph g("shared");
  const Expr b = Expr::symbol("batch");
  Tensor* x = g.add_input("x", {b, Expr(8)});
  Tensor* y = ir::sigmoid(g, "gate", x);  // two consumers: must survive
  Tensor* a = ir::add(g, "sum", y, x);
  Tensor* t = ir::tanh(g, "squash", a);  // fuses with "sum"
  Tensor* r = ir::relu(g, "pass", y);    // singleton: stays unfused
  (void)t;
  (void)r;

  const ir::FusionResult res = ir::fuse_graph(g);
  EXPECT_EQ(res.pointwise_groups, 1u);
  const ir::FusedPointwiseOp* f = largest_fused(g);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->program().size(), 2u);
  // The shared sigmoid and the singleton relu both survive as plain ops.
  std::size_t sigmoid_ops = 0, relu_ops = 0;
  for (const auto& op : g.ops()) {
    if (op->type() != OpType::kPointwise) continue;
    const auto fn = static_cast<const ir::PointwiseOp&>(*op).fn();
    sigmoid_ops += fn == PointwiseFn::kSigmoid;
    relu_ops += fn == PointwiseFn::kRelu;
  }
  EXPECT_EQ(sigmoid_ops, 1u);
  EXPECT_EQ(relu_ops, 1u);
  EXPECT_EQ(total_error_count(g), 0u);
}

TEST(Fusion, AbsorbsBroadcastFeeders) {
  Graph g("bcast");
  const Expr b = Expr::symbol("batch");
  Tensor* x = g.add_input("x", {b, Expr(8)});
  Tensor* gamma = g.add_input("gamma", {Expr(8)});
  Tensor* wide =
      g.add_op<ir::BroadcastOp>("widen", gamma, ir::TensorShape{b, Expr(8)})->output(0);
  Tensor* y = ir::mul(g, "scale", x, wide);
  Tensor* z = ir::tanh(g, "squash", y);
  (void)z;

  const ir::FusionResult r = ir::fuse_graph(g);
  EXPECT_EQ(r.pointwise_groups, 1u);
  EXPECT_EQ(count_ops(g, OpType::kBroadcast), 0u);
  const ir::FusedPointwiseOp* f = largest_fused(g);
  ASSERT_NE(f, nullptr);
  // The fused op reads the broadcast SOURCE directly (modulo addressing).
  bool reads_gamma = false;
  for (const Tensor* in : f->inputs()) reads_gamma |= in == gamma;
  EXPECT_TRUE(reads_gamma);
  EXPECT_EQ(total_error_count(g), 0u);
}

TEST(Fusion, ActivationOnlyEpilogueFolds) {
  Graph g("mm_act");
  const Expr b = Expr::symbol("batch");
  Tensor* x = g.add_input("x", {b, Expr(6)});
  Tensor* w = g.add_weight("w", {Expr(6), Expr(4)});
  Tensor* y = ir::relu(g, "act", ir::matmul(g, "mm", x, w));
  (void)y;

  const ir::FusionResult r = ir::fuse_graph(g);
  EXPECT_EQ(r.gemm_epilogues, 1u);
  const auto& mm = static_cast<const ir::MatMulOp&>(*g.ops().front());
  EXPECT_TRUE(mm.has_epilogue());
  EXPECT_FALSE(mm.epilogue_bias());
  EXPECT_EQ(mm.epilogue_activation(), PointwiseFn::kRelu);
  EXPECT_EQ(mm.inputs().size(), 2u);
  EXPECT_EQ(total_error_count(g), 0u);
}

// --- satellite: pointwise arity validation ---------------------------------

TEST(Fusion, PointwiseArityIsValidatedAtConstruction) {
  Graph g("arity");
  Tensor* x = g.add_input("x", {Expr(4)});
  Tensor* y = g.add_input("y", {Expr(4)});
  EXPECT_THROW(ir::pointwise(g, "addn1", PointwiseFn::kAddN, {x}), std::invalid_argument);
  EXPECT_THROW(ir::pointwise(g, "add1", PointwiseFn::kAdd, {x}), std::invalid_argument);
  EXPECT_THROW(ir::pointwise(g, "sig2", PointwiseFn::kSigmoid, {x, y}),
               std::invalid_argument);
  EXPECT_THROW(ir::pointwise_fn_flops_per_element(PointwiseFn::kAddN, 1),
               std::invalid_argument);
  EXPECT_THROW(ir::pointwise_fn_flops_per_element(PointwiseFn::kMul, 3),
               std::invalid_argument);
  EXPECT_NO_THROW(ir::pointwise(g, "addn", PointwiseFn::kAddN, {x, y}));

  // A fused op reads at most kMaxInputs externals (codegen's load slots).
  const std::size_t cap = ir::FusedPointwiseOp::kMaxInputs;
  Graph wide("wide");
  std::vector<Tensor*> xs;
  for (std::size_t i = 0; i <= cap; ++i)
    xs.push_back(wide.add_input("x" + std::to_string(i), {Expr(4)}));
  const auto add_all = [](std::size_t n) {
    std::vector<int> args(n);
    for (std::size_t i = 0; i < n; ++i) args[i] = static_cast<int>(i);
    return std::vector<ir::FusedInstr>{{PointwiseFn::kAddN, args}};
  };
  EXPECT_THROW(wide.add_op<ir::FusedPointwiseOp>("over", xs, add_all(cap + 1),
                                                 ir::TensorShape{Expr(4)}),
               std::invalid_argument);
  EXPECT_NO_THROW(wide.add_op<ir::FusedPointwiseOp>(
      "at_cap", std::vector<Tensor*>(xs.begin(), xs.end() - 1), add_all(cap),
      ir::TensorShape{Expr(4)}));

  // A serialized graph cannot smuggle a wider op past the constructor: add
  // the last input to the at-cap op's inputs and program.
  std::string ids;
  for (std::size_t i = 0; i < cap; ++i) ids += (i == 0 ? "" : " ") + std::to_string(i);
  const std::string extra = " " + std::to_string(cap) + "\n";
  std::string text = ir::serialize(wide);
  for (const std::string& line : {"\nin " + ids + "\n", "\nattr i0 add_n " + ids + "\n"}) {
    const std::size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos) << line.substr(0, 16);
    text.replace(at + line.size() - 1, 1, extra);
  }
  EXPECT_THROW(ir::deserialize(text), std::invalid_argument);
}

TEST(Fusion, FormsNoGroupWiderThanTheInputCap) {
  // One add_n over 100 inputs, more than a fused op may read, feeding a
  // tanh: the two-op group is rejected whole, so nothing fuses.
  Graph g("wide_add");
  std::vector<Tensor*> xs;
  for (std::size_t i = 0; i < 100; ++i)
    xs.push_back(g.add_input("x" + std::to_string(i), {Expr(4)}));
  ir::tanh(g, "t", ir::pointwise(g, "sum", PointwiseFn::kAddN, xs));
  EXPECT_EQ(ir::fuse_graph(g).pointwise_groups, 0u);
  for (const auto& op : g.ops()) EXPECT_NE(op->type(), OpType::kFusedPointwise);
}

// --- cost transparency on every built-in model ------------------------------

TEST(Fusion, FlopsConservedBytesReducedSlabNeverLargerOnAllModels) {
  for (ModelCase& c : builtin_models()) {
    const Bindings bind = c.spec.bind(c.hidden, 2);
    const Graph& g = *c.spec.graph;
    auto fused = ir::clone_graph(g);
    const ir::FusionResult r = ir::fuse_graph(*fused);
    EXPECT_GT(r.ops_removed, 0u) << c.name;

    EXPECT_DOUBLE_EQ(fused->total_flops().eval(bind), g.total_flops().eval(bind))
        << c.name;
    EXPECT_LT(fused->total_bytes_accessed().eval(bind), g.total_bytes_accessed().eval(bind))
        << c.name;
    EXPECT_EQ(total_error_count(*fused), 0u) << c.name;

    // Static memory plan: fusing must never cost slab bytes.
    const ir::OpDag dag = ir::build_op_dag(g);
    const ir::OpDag fdag = ir::build_op_dag(*fused);
    const rt::MemoryPlan plan = rt::plan_memory(g, dag, bind);
    const rt::MemoryPlan fplan = rt::plan_memory(*fused, fdag, bind);
    EXPECT_LE(fplan.planned_peak_bytes(), plan.planned_peak_bytes()) << c.name;
  }
}

// --- verify pass: positive + hand-broken negatives --------------------------

TEST(Fusion, VerifyPassCatchesTamperedProgram) {
  ChainGraph c;
  ir::fuse_graph(c.g);
  ASSERT_EQ(fusion_error_count(c.g), 0u);

  ir::FusedPointwiseOp* f = largest_fused(c.g);
  ASSERT_NE(f, nullptr);

  // Append an instruction behind the cached formulas' back: the re-derived
  // FLOP count no longer matches, and the old final result goes unread.
  ir::FusedInstr extra;
  extra.fn = PointwiseFn::kRelu;
  extra.args = {0};
  f->mutable_program().push_back(extra);
  EXPECT_GT(fusion_error_count(c.g), 0u);
  f->mutable_program().pop_back();
  ASSERT_EQ(fusion_error_count(c.g), 0u);

  // Disconnect the group: re-point every operand of the final instruction
  // at external 0, leaving an interior result unread.
  ASSERT_GE(f->program().size(), 2u);
  const std::vector<int> saved = f->program().back().args;
  for (int& a : f->mutable_program().back().args) a = 0;
  EXPECT_GT(fusion_error_count(c.g), 0u);
  f->mutable_program().back().args = saved;
  EXPECT_EQ(fusion_error_count(c.g), 0u);
}

// --- serialization ----------------------------------------------------------

TEST(Fusion, FusedGraphSerializationRoundTrips) {
  TinyMlp m;
  auto fused = ir::clone_graph(m.g);
  const ir::FusionResult r = ir::fuse_graph(*fused);
  ASSERT_GT(r.gemm_epilogues + r.pointwise_groups, 0u);

  const std::string text = ir::serialize(*fused);
  auto loaded = ir::deserialize(text);  // validate=true: lint-clean load
  EXPECT_EQ(ir::serialize(*loaded), text);
  EXPECT_EQ(loaded->num_ops(), fused->num_ops());
  EXPECT_EQ(count_ops(*loaded, OpType::kFusedPointwise),
            count_ops(*fused, OpType::kFusedPointwise));

  const Bindings bind{{"batch", 16}};
  EXPECT_DOUBLE_EQ(loaded->total_flops().eval(bind), fused->total_flops().eval(bind));
  EXPECT_DOUBLE_EQ(loaded->total_bytes_accessed().eval(bind),
                   fused->total_bytes_accessed().eval(bind));

  // The restored MatMul epilogue survives with its bias arity and fn.
  bool saw_epilogue = false;
  for (const auto& op : loaded->ops())
    if (op->type() == OpType::kMatMul &&
        static_cast<const ir::MatMulOp&>(*op).has_epilogue())
      saw_epilogue = true;
  EXPECT_TRUE(saw_epilogue);
}

TEST(Fusion, CloneGraphPreservesTensorIdsAndShapes) {
  TinyMlp m;
  std::unordered_map<const Tensor*, Tensor*> mapping;
  auto clone = ir::clone_graph(m.g, &mapping);
  ASSERT_EQ(clone->tensors().size(), m.g.tensors().size());
  EXPECT_EQ(mapping.size(), m.g.tensors().size());
  for (const auto& [orig, copy] : mapping) {
    EXPECT_EQ(orig->id(), copy->id());
    EXPECT_TRUE(orig->shape().equals(copy->shape()));
    EXPECT_EQ(orig->dtype(), copy->dtype());
  }
  EXPECT_GE(clone->next_tensor_id(), m.g.next_tensor_id());
}

// --- executor integration ---------------------------------------------------

std::uint32_t loss_bits_after_steps(const models::ModelSpec& spec, double hidden,
                                    bool fuse, std::size_t threads, int steps) {
  conc::ThreadPool pool(threads);
  rt::ExecutorOptions opt;
  opt.pool = &pool;
  opt.fuse = fuse;
  rt::Executor ex(*spec.graph, spec.bind(hidden, 2), opt);
  ex.retain(spec.loss);
  for (int i = 0; i < steps; ++i) ex.run_step();
  const float loss = ex.value(spec.loss).f(0);
  std::uint32_t bits = 0;
  std::memcpy(&bits, &loss, sizeof bits);
  return bits;
}

TEST(Fusion, BitwiseEqualToUnfusedOnAllModelsAcrossThreadCounts) {
  for (ModelCase& c : builtin_models()) {
    const std::uint32_t want = loss_bits_after_steps(c.spec, c.hidden, false, 1, 3);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const std::uint32_t got = loss_bits_after_steps(c.spec, c.hidden, true, threads, 3);
      EXPECT_EQ(got, want) << c.name << " threads=" << threads;
    }
  }
}

TEST(Fusion, ExecutorRemapsSurvivorsAndRejectsEliminatedTensors) {
  TinyMlp m;
  const Bindings bind{{"batch", 4}};
  rt::ExecutorOptions opt;
  opt.fuse = true;
  rt::Executor ex(m.g, bind, opt);
  ASSERT_NE(ex.fusion_result(), nullptr);
  EXPECT_GT(ex.fusion_result()->gemm_epilogues + ex.fusion_result()->pointwise_groups, 0u);
  EXPECT_LT(ex.executing_graph().num_ops(), m.g.num_ops());

  // Surviving caller-facing tensors keep working through the remap.
  ex.retain(m.loss);
  ex.run_step();
  EXPECT_TRUE(std::isfinite(ex.value(m.loss).f(0)));

  // The fc1 GEMM output was folded into the epilogue: addressing it must
  // throw rather than silently hand back the wrong buffer.
  const Tensor* eliminated = nullptr;
  for (const auto& t : m.g.tensors())
    if (t->name() == "fc1:out") eliminated = t.get();
  ASSERT_NE(eliminated, nullptr);
  EXPECT_THROW(ex.retain(eliminated), std::invalid_argument);
  EXPECT_THROW(ex.resolve(eliminated), std::invalid_argument);

  // Same graph, fusion off: identical bits (clone preserves RNG streams).
  rt::Executor plain(m.g, bind);
  plain.retain(m.loss);
  plain.run_step();
  EXPECT_EQ(ex.value(m.loss).f(0), plain.value(m.loss).f(0));
}

}  // namespace
}  // namespace gf
