// Weight-gradient stacking tests (ir::stack_weight_gradients): on every
// toy built-in model the rewrite stacks exactly the recurrent weights,
// removes exactly the accumulation adds' FLOPs, leaves the full verify
// suite clean before and after fusion, and is idempotent; hand-built add
// chains that break one match condition are left untouched; and the
// executed stacked gradient lies within the GEMM error bound of a
// double-precision sum of the per-timestep products.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/fusion.h"
#include "src/ir/gradients.h"
#include "src/ir/ops.h"
#include "src/ir/serialize.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"
#include "src/verify/pass.h"

namespace gf {
namespace {

using ir::Graph;
using ir::Op;
using ir::OpType;
using ir::Tensor;
using sym::Expr;

/// The MatMul leaves of the add tree producing `gw`, left to right, or
/// empty when `gw` is not produced by an add tree of MatMul products.
std::vector<const Op*> add_tree_leaves(const Tensor* gw) {
  std::vector<const Op*> leaves;
  std::vector<const Tensor*> pending{gw};
  while (!pending.empty()) {
    const Tensor* t = pending.back();
    pending.pop_back();
    const Op* p = t->producer();
    if (p == nullptr) return {};
    if (p->type() == OpType::kPointwise &&
        static_cast<const ir::PointwiseOp*>(p)->fn() == ir::PointwiseFn::kAdd) {
      pending.push_back(p->input(1));
      pending.push_back(p->input(0));
    } else if (p->type() == OpType::kMatMul) {
      leaves.push_back(p);
    } else {
      return {};
    }
  }
  return leaves;
}

struct StackCase {
  const char* name;
  models::ModelSpec spec;
  double hidden;
  std::size_t stacked;  ///< weights the rewrite stacks
  std::size_t weights;  ///< trainable weights in the graph
};

std::vector<StackCase> toy_models() {
  std::vector<StackCase> cases;
  models::WordLmConfig word;
  word.vocab = 40;
  word.seq_length = 5;
  word.layers = 2;
  cases.push_back({"word_lm", models::build_word_lm(word), 8, 2, 7});
  models::WordLmConfig gru = word;
  gru.cell = models::RecurrentCell::kGRU;
  cases.push_back({"word_lm_gru", models::build_word_lm(gru), 8, 4, 11});
  models::WordLmConfig proj = word;
  proj.projection = true;
  cases.push_back({"word_lm_projection", models::build_word_lm(proj), 8, 4, 9});
  cases.push_back({"char_lm",
                   models::build_char_lm({.vocab = 20, .depth = 2, .seq_length = 4}), 8, 4,
                   11});
  cases.push_back({"nmt",
                   models::build_nmt({.vocab_src = 30,
                                      .vocab_tgt = 30,
                                      .src_length = 4,
                                      .tgt_length = 3,
                                      .decoder_layers = 2}),
                   8, 7, 16});
  cases.push_back({"speech",
                   models::build_speech({.audio_frames = 8,
                                         .feature_dim = 5,
                                         .encoder_layers = 2,
                                         .decoder_length = 3,
                                         .vocab = 15}),
                   6, 7, 15});
  cases.push_back(
      {"transformer_lm",
       models::build_transformer_lm({.vocab = 40, .layers = 2, .seq_length = 6}), 8, 0,
       38});
  cases.push_back({"resnet18",
                   models::build_resnet({.depth = 18, .image_size = 32, .classes = 10}), 4,
                   0, 62});
  return cases;
}

std::size_t error_count(const Graph& g) {
  return verify::verify_graph(g).count(verify::Severity::kError);
}

TEST(Stacking, StacksRecurrentWeightsOnEveryToyModel) {
  for (const StackCase& c : toy_models()) {
    const Graph& built = *c.spec.graph;
    const sym::Bindings bind = c.spec.bind(c.hidden, 2);
    EXPECT_EQ(built.weights().size(), c.weights) << c.name;

    // Expected FLOP delta from the builder graph alone: every stacked
    // weight drops its L-1 adds of numel(W) elements.
    double expected_delta = 0;
    std::size_t expected_stacked = 0;
    for (const auto& t : built.tensors()) {
      if (t->role() != ir::TensorRole::kWeightGradient) continue;
      const std::vector<const Op*> leaves = add_tree_leaves(t.get());
      if (leaves.size() < 2) continue;
      ++expected_stacked;
      expected_delta += static_cast<double>(leaves.size() - 1) *
                        t->num_elements().eval(bind);
    }
    EXPECT_EQ(expected_stacked, c.stacked) << c.name;

    const std::unique_ptr<Graph> stacked = ir::clone_graph(built);
    EXPECT_EQ(ir::stack_weight_gradients(*stacked), c.stacked) << c.name;
    EXPECT_EQ(built.total_flops().eval(bind) - stacked->total_flops().eval(bind),
              expected_delta)
        << c.name;
    // Ops: each stacked weight trades L products and L-1 adds for three.
    std::size_t matmuls_before = 0, matmuls_after = 0, concats_before = 0,
                concats_after = 0;
    for (const auto& op : built.ops()) {
      matmuls_before += op->type() == OpType::kMatMul;
      concats_before += op->type() == OpType::kConcat;
    }
    for (const auto& op : stacked->ops()) {
      matmuls_after += op->type() == OpType::kMatMul;
      concats_after += op->type() == OpType::kConcat;
    }
    EXPECT_EQ(concats_after - concats_before, 2 * c.stacked) << c.name;
    if (c.stacked == 0) {
      EXPECT_EQ(ir::serialize(*stacked), ir::serialize(built)) << c.name;
    } else {
      EXPECT_LT(matmuls_after, matmuls_before) << c.name;
    }

    // Idempotent: a second run finds nothing and changes nothing.
    const std::string once = ir::serialize(*stacked);
    EXPECT_EQ(ir::stack_weight_gradients(*stacked), 0u) << c.name;
    EXPECT_EQ(ir::serialize(*stacked), once) << c.name;

    // The full verify suite is clean on the stacked graph and on its
    // fused form (the two graphs the executor runs).
    EXPECT_EQ(error_count(*stacked), 0u) << c.name;
    ir::fuse_graph(*stacked);
    EXPECT_EQ(error_count(*stacked), 0u) << c.name << " fused";
  }
}

TEST(Stacking, StackedMatMulAdoptsTheWeightGradient) {
  models::WordLmConfig cfg;
  cfg.vocab = 40;
  cfg.seq_length = 5;
  cfg.layers = 1;
  const models::ModelSpec spec = models::build_word_lm(cfg);
  std::unordered_map<const Tensor*, Tensor*> clones;
  const std::unique_ptr<Graph> g = ir::clone_graph(*spec.graph, &clones);
  ASSERT_EQ(ir::stack_weight_gradients(*g), 1u);
  std::size_t seen = 0;
  for (const auto& [orig, copy] : clones) {
    const std::vector<const Op*> leaves = add_tree_leaves(orig);
    if (orig->role() != ir::TensorRole::kWeightGradient || leaves.size() < 2) continue;
    ++seen;
    // Same tensor object, id, name and role; now produced by one MatMul
    // over two Concats whose parts are the removed products' operands.
    EXPECT_EQ(copy->id(), orig->id());
    EXPECT_EQ(copy->name(), orig->name());
    EXPECT_EQ(copy->role(), ir::TensorRole::kWeightGradient);
    const Op* mm = copy->producer();
    ASSERT_EQ(mm->type(), OpType::kMatMul);
    const auto& m = static_cast<const ir::MatMulOp&>(*mm);
    EXPECT_TRUE(m.trans_a());
    EXPECT_FALSE(m.trans_b());
    for (std::size_t side = 0; side < 2; ++side) {
      const Op* cat = mm->input(side)->producer();
      ASSERT_EQ(cat->type(), OpType::kConcat);
      ASSERT_EQ(cat->inputs().size(), leaves.size());
      for (std::size_t l = 0; l < leaves.size(); ++l)
        EXPECT_EQ(cat->input(l), clones.at(leaves[l]->input(side))) << side << " " << l;
    }
    // The stacked ops sit where the root Add was: right before the update.
    const std::vector<const Op*> topo = g->topological_order();
    std::size_t at_mm = 0, at_update = 0;
    for (std::size_t i = 0; i < topo.size(); ++i) {
      if (topo[i] == mm) at_mm = i;
      if (topo[i]->type() == OpType::kApplyGradient && topo[i]->input(1) == copy)
        at_update = i;
    }
    EXPECT_LT(at_mm, at_update);
    EXPECT_EQ(topo[at_mm - 1], mm->input(1)->producer());
    EXPECT_EQ(topo[at_mm - 2], mm->input(0)->producer());
  }
  EXPECT_EQ(seen, 1u);
}

// --- negative cases on a hand-built two-product chain ------------------------

/// gw = z0ᵀ·d0 + z1ᵀ·d1, tagged as a weight gradient: the smallest chain
/// the rewrite stacks. Each test breaks one condition and expects the
/// graph untouched.
struct Chain {
  Graph g{"chain"};
  Tensor* z0 = nullptr;
  Tensor* z1 = nullptr;
  Tensor* d0 = nullptr;
  Tensor* d1 = nullptr;

  Chain() {
    z0 = g.add_input("z0", {Expr(2), Expr(4)});
    z1 = g.add_input("z1", {Expr(2), Expr(4)});
    d0 = g.add_input("d0", {Expr(2), Expr(3)});
    d1 = g.add_input("d1", {Expr(2), Expr(3)});
  }
  Tensor* finish(Tensor* p0, Tensor* p1) {
    Tensor* gw = ir::add(g, "acc", p0, p1);
    gw->set_role(ir::TensorRole::kWeightGradient);
    return gw;
  }
};

/// Runs the rewrite; true when it changed nothing.
bool untouched(Graph& g) {
  const std::string before = ir::serialize(g);
  return ir::stack_weight_gradients(g) == 0 && ir::serialize(g) == before;
}

TEST(StackingNegative, PositiveControlStacks) {
  Chain c;
  c.finish(ir::matmul(c.g, "p0", c.z0, c.d0, true), ir::matmul(c.g, "p1", c.z1, c.d1, true));
  EXPECT_EQ(ir::stack_weight_gradients(c.g), 1u);
  EXPECT_EQ(c.g.num_ops(), 3u);
}

TEST(StackingNegative, LeafWithSecondConsumer) {
  Chain c;
  Tensor* p0 = ir::matmul(c.g, "p0", c.z0, c.d0, true);
  c.finish(p0, ir::matmul(c.g, "p1", c.z1, c.d1, true));
  c.g.mark_output(ir::scale(c.g, "reader", p0, Expr(2.0)));
  EXPECT_TRUE(untouched(c.g));
}

TEST(StackingNegative, TransposedB) {
  Chain c;
  Tensor* d1t = c.g.add_input("d1t", {Expr(3), Expr(2)});
  c.finish(ir::matmul(c.g, "p0", c.z0, c.d0, true),
           ir::matmul(c.g, "p1", c.z1, d1t, true, true));
  EXPECT_TRUE(untouched(c.g));
}

TEST(StackingNegative, LeafWithEpilogue) {
  Chain c;
  Tensor* p0 = ir::matmul(c.g, "p0", c.z0, c.d0, true);
  static_cast<ir::MatMulOp*>(const_cast<Op*>(p0->producer()))
      ->restore_epilogue(nullptr, ir::PointwiseFn::kRelu);
  c.finish(p0, ir::matmul(c.g, "p1", c.z1, c.d1, true));
  EXPECT_TRUE(untouched(c.g));
}

TEST(StackingNegative, RankThreeOperands) {
  Graph g("rank3");
  Tensor* parts[2];
  for (int i = 0; i < 2; ++i) {
    Tensor* z = g.add_input("z" + std::to_string(i), {Expr(2), Expr(2), Expr(4)});
    Tensor* d = g.add_input("d" + std::to_string(i), {Expr(2), Expr(2), Expr(3)});
    parts[i] = ir::matmul(g, "p" + std::to_string(i), z, d, true);
  }
  ir::add(g, "acc", parts[0], parts[1])->set_role(ir::TensorRole::kWeightGradient);
  EXPECT_TRUE(untouched(g));
}

TEST(StackingNegative, SingleProduct) {
  Chain c;
  ir::matmul(c.g, "p0", c.z0, c.d0, true)->set_role(ir::TensorRole::kWeightGradient);
  EXPECT_TRUE(untouched(c.g));
}

// --- numeric bound against a double-precision sum ----------------------------

TEST(Stacking, GradientWithinGemmBoundOfDoubleSum) {
  // Toy word LM, T = 5, b = 2: each stacked GEMM has K = T·b = 10. The
  // fp32 GEMM's k-chain contract, (k+2)·2⁻²⁴·Σ|a·b| per element, applied
  // with k = T·b against the exact per-timestep sum Σ_t z_tᵀ·dgates_t.
  models::WordLmConfig cfg;
  cfg.vocab = 40;
  cfg.seq_length = 5;
  cfg.layers = 2;
  const models::ModelSpec spec = models::build_word_lm(cfg);
  const double batch = 2;
  rt::ExecutorOptions opt;
  opt.apply_updates = false;
  rt::Executor ex(*spec.graph, spec.bind(8, batch), opt);

  struct Stacked {
    const Tensor* gw;
    std::vector<const Op*> leaves;
  };
  std::vector<Stacked> grads;
  for (const auto& t : spec.graph->tensors()) {
    if (t->role() != ir::TensorRole::kWeightGradient) continue;
    std::vector<const Op*> leaves = add_tree_leaves(t.get());
    if (leaves.size() < 2) continue;
    for (const Op* leaf : leaves) {
      ex.retain(leaf->input(0));
      ex.retain(leaf->input(1));
    }
    grads.push_back({t.get(), std::move(leaves)});
  }
  ASSERT_EQ(grads.size(), 2u);
  ex.run_step();

  for (const Stacked& s : grads) {
    const rt::DenseTensor& gw = ex.value(s.gw);
    const std::int64_t m = gw.dim(0), n = gw.dim(1);
    const double k = static_cast<double>(s.leaves.size()) * batch;
    EXPECT_EQ(k, 10.0);
    std::vector<double> exact(static_cast<std::size_t>(m * n), 0.0);
    std::vector<double> magnitude(exact.size(), 0.0);
    for (const Op* leaf : s.leaves) {
      const rt::DenseTensor& z = ex.value(leaf->input(0));
      const rt::DenseTensor& dg = ex.value(leaf->input(1));
      ASSERT_EQ(z.dim(0), dg.dim(0));
      for (std::int64_t p = 0; p < z.dim(0); ++p)
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t j = 0; j < n; ++j) {
            const double prod = static_cast<double>(z.f(p * m + i)) * dg.f(p * n + j);
            exact[static_cast<std::size_t>(i * n + j)] += prod;
            magnitude[static_cast<std::size_t>(i * n + j)] += std::fabs(prod);
          }
    }
    const double unit = std::ldexp(1.0, -24);
    for (std::size_t e = 0; e < exact.size(); ++e)
      EXPECT_LE(std::fabs(gw.f(static_cast<std::int64_t>(e)) - exact[e]),
                (k + 2) * unit * magnitude[e])
          << s.gw->name() << " element " << e;
  }
}

}  // namespace
}  // namespace gf
