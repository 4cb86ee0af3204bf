// Static memory planner tests: plan structure (alignment, disjointness,
// determinism, aliasing), the verify-pass cross-check including negative
// cases with hand-broken plans, arena accounting hardening, and end-to-end
// parity — measured arena peak == planned peak == Fig 10 footprint (exactly
// without padding and aliasing, within alignment padding otherwise) on
// every built-in model, bitwise-identical results against an executor
// whose plan shares no storage, across thread counts, and ASan poisoning
// of the slab outside retained extents.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "src/concurrency/thread_pool.h"
#include "src/ir/footprint.h"
#include "src/ir/fusion.h"
#include "src/ir/gradients.h"
#include "src/ir/ops.h"
#include "src/ir/serialize.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"
#include "src/verify/pass.h"

namespace gf::rt {
namespace {

using ir::Graph;
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

std::size_t error_count(const std::vector<verify::Diagnostic>& diags) {
  std::size_t n = 0;
  for (const auto& d : diags)
    if (d.severity == verify::Severity::kError) ++n;
  return n;
}

// --- arena accounting hardening (satellite) -------------------------------

TEST(ArenaAccounting, UnderflowingReleaseThrowsAndLeavesCurrentIntact) {
  ArenaAccounting arena;
  arena.allocate(100);
  // The old fetch_sub-then-check implementation wrapped current_ to a huge
  // value before throwing; the CAS loop must leave it untouched.
  EXPECT_THROW(arena.release(101), std::logic_error);
  EXPECT_EQ(arena.current_bytes(), 100u);
  EXPECT_EQ(arena.peak_bytes(), 100u);
  arena.release(100);
  EXPECT_EQ(arena.current_bytes(), 0u);
  EXPECT_THROW(arena.release(1), std::logic_error);
}

// --- plan structure -------------------------------------------------------

TEST(MemPlan, RegionsAreAlignedDisjointAndWithinSlab) {
  TinyMlp m;
  const Bindings bind{{"batch", 16}};
  const ir::OpDag dag = ir::build_op_dag(m.g);
  const MemoryPlan plan = plan_memory(m.g, dag, bind);

  ASSERT_GT(plan.tensors.size(), 0u);
  EXPECT_GE(plan.slab_bytes, plan.liveness_peak_bytes);
  EXPECT_LE(plan.slab_bytes, plan.gross_bytes);
  for (const PlannedTensor& pt : plan.tensors) {
    EXPECT_EQ(pt.offset % kTensorAlignment, 0u) << pt.tensor->name();
    EXPECT_GT(pt.bytes, 0u) << pt.tensor->name();
    EXPECT_LE(pt.offset + pt.bytes, plan.slab_bytes) << pt.tensor->name();
    EXPECT_LE(pt.def, pt.last_use) << pt.tensor->name();
    EXPECT_LT(pt.last_use, dag.order.size()) << pt.tensor->name();
  }
  // The verify pass re-derives interval/alias/edge safety independently.
  EXPECT_EQ(error_count(verify::check_memory_plan(m.g, dag, plan)), 0u);
}

TEST(MemPlan, PlanIsDeterministic) {
  TinyMlp m;
  const Bindings bind{{"batch", 16}};
  const ir::OpDag dag = ir::build_op_dag(m.g);
  const MemoryPlan a = plan_memory(m.g, dag, bind);
  const MemoryPlan b = plan_memory(m.g, dag, bind);
  ASSERT_EQ(a.tensors.size(), b.tensors.size());
  EXPECT_EQ(a.slab_bytes, b.slab_bytes);
  EXPECT_EQ(a.reuse_edges, b.reuse_edges);
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    EXPECT_EQ(a.tensors[i].tensor, b.tensors[i].tensor);
    EXPECT_EQ(a.tensors[i].offset, b.tensors[i].offset);
    EXPECT_EQ(a.tensors[i].generation, b.tensors[i].generation);
  }
}

TEST(MemPlan, AliasingFindsInPlaceOpsAndCanBeDisabled) {
  TinyMlp m;
  const Bindings bind{{"batch", 16}};
  const ir::OpDag dag = ir::build_op_dag(m.g);
  const MemoryPlan with = plan_memory(m.g, dag, bind);
  EXPECT_GT(with.alias_count, 0u);  // tanh-after-bias_add chains alias

  MemPlanOptions opt;
  opt.enable_aliasing = false;
  const MemoryPlan without = plan_memory(m.g, dag, bind, opt);
  EXPECT_EQ(without.alias_count, 0u);
  for (const PlannedTensor& pt : without.tensors)
    EXPECT_EQ(pt.alias_root, nullptr) << pt.tensor->name();
  EXPECT_EQ(error_count(verify::check_memory_plan(m.g, dag, without)), 0u);
}

TEST(MemPlan, ReuseEdgesAreForwardAndInRange) {
  TinyMlp m;
  const ir::OpDag dag = ir::build_op_dag(m.g);
  const MemoryPlan plan = plan_memory(m.g, dag, Bindings{{"batch", 16}});
  EXPECT_GT(plan.reuse_edges.size(), 0u);  // slab reuse must exist at b=16
  for (const auto& [from, to] : plan.reuse_edges) {
    EXPECT_LT(from, to);
    EXPECT_LT(to, dag.order.size());
  }
}

// --- negative cases: the verify pass must catch broken plans --------------

TEST(MemPlan, VerifyPassCatchesOverlappingLiveRegions) {
  TinyMlp m;
  const ir::OpDag dag = ir::build_op_dag(m.g);
  MemoryPlan plan = plan_memory(m.g, dag, Bindings{{"batch", 16}});

  // Find two concurrently-live region roots at different addresses and
  // force the second onto the first's offset — a use-after-overwrite bug a
  // planner regression could introduce.
  PlannedTensor* a = nullptr;
  PlannedTensor* b = nullptr;
  for (std::size_t i = 0; i < plan.tensors.size() && b == nullptr; ++i) {
    for (std::size_t j = i + 1; j < plan.tensors.size() && b == nullptr; ++j) {
      PlannedTensor& x = plan.tensors[i];
      PlannedTensor& y = plan.tensors[j];
      const bool live_together = x.def <= y.last_use && y.def <= x.last_use;
      if (x.alias_root == nullptr && y.alias_root == nullptr && live_together &&
          x.offset != y.offset) {
        a = &x;
        b = &y;
      }
    }
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  b->offset = a->offset;
  plan.rebuild_index();
  EXPECT_GT(error_count(verify::check_memory_plan(m.g, dag, plan)), 0u);
}

TEST(MemPlan, VerifyPassCatchesBackwardReuseEdge) {
  TinyMlp m;
  const ir::OpDag dag = ir::build_op_dag(m.g);
  MemoryPlan plan = plan_memory(m.g, dag, Bindings{{"batch", 16}});
  ASSERT_GT(dag.order.size(), 1u);
  plan.reuse_edges.emplace_back(dag.order.size() - 1, 0);  // backward
  EXPECT_GT(error_count(verify::check_memory_plan(m.g, dag, plan)), 0u);
}

// --- end-to-end parity (satellite) ----------------------------------------

TEST(MemPlan, UnpaddedUnaliasedLivenessEqualsTopologicalFootprint) {
  // Without alignment padding and in-place aliasing, the plan's liveness
  // peak is exactly the Fig 10 estimator's transient peak: both sweep the
  // same topological schedule. With the measured peak == planned peak
  // check below, this keeps "symbolic = executed" exact for the footprint.
  MemPlanOptions opt;
  opt.alignment = 4;
  opt.enable_aliasing = false;
  for (ModelCase& c : builtin_models()) {
    for (const bool fuse : {false, true}) {
      auto graph = ir::clone_graph(*c.spec.graph);
      if (fuse) ir::fuse_graph(*graph);
      const ir::OpDag dag = ir::build_op_dag(*graph);
      for (const double batch : {2.0, 4.0}) {
        const Bindings bind = c.spec.bind(c.hidden, batch);
        const MemoryPlan plan = plan_memory(*graph, dag, bind, opt);
        const auto fp = ir::minimal_footprint(*graph, bind);
        EXPECT_EQ(static_cast<double>(plan.liveness_peak_bytes), fp.peak_transient_bytes)
            << c.name << " fuse=" << fuse << " b=" << batch;
        EXPECT_EQ(static_cast<double>(plan.persistent_bytes), fp.persistent_bytes)
            << c.name << " fuse=" << fuse << " b=" << batch;
      }
    }
  }
}

TEST(MemPlan, MeasuredPeakEqualsPlannedPeakEqualsFootprintOnAllModels) {
  for (ModelCase& c : builtin_models()) {
    for (const double batch : {2.0, 4.0}) {
      const Bindings bind = c.spec.bind(c.hidden, batch);
      Executor ex(*c.spec.graph, bind);
      // Plan the graph the executor actually runs (the fused clone by
      // default) so all three peaks below are comparable.
      const ir::Graph& xg = ex.executing_graph();
      const ir::OpDag dag = ir::build_op_dag(xg);
      const MemoryPlan plan = plan_memory(xg, dag, bind);
      EXPECT_EQ(error_count(verify::check_memory_plan(xg, dag, plan)), 0u)
          << c.name << " b=" << batch;

      // Planned slab within alignment padding of the analytic sequential
      // footprint: reuse may not cost memory over per-op liveness freeing.
      const auto fp = ir::minimal_footprint(xg, bind);
      EXPECT_LE(static_cast<double>(plan.planned_peak_bytes()),
                fp.total_bytes +
                    static_cast<double>(kTensorAlignment * plan.tensors.size()))
          << c.name << " b=" << batch;

      ex.run_step();  // warm-up: memory plan and kernel scratch
      const ProfileReport report = ex.run_step();
      ASSERT_NE(ex.memory_plan(), nullptr) << c.name;
      EXPECT_EQ(report.peak_allocated_bytes, ex.memory_plan()->planned_peak_bytes())
          << c.name << " b=" << batch;
      EXPECT_EQ(ex.memory_plan()->planned_peak_bytes(), plan.planned_peak_bytes())
          << c.name << " b=" << batch;
    }
  }
}

/// Retains every tensor of `graph`: every live interval then extends to
/// the step's end, so the executor's plan shares no storage (no reuse
/// edges, no aliases). Run unfused, that executor is the reference for
/// "slab reuse does not change bits".
void retain_everything(Executor& ex, const Graph& graph) {
  for (const auto& t : graph.tensors()) ex.retain(t.get());
}

std::uint32_t loss_bits_after_steps(const models::ModelSpec& spec, double hidden,
                                    bool share_nothing, std::size_t threads, int steps) {
  conc::ThreadPool pool(threads);
  ExecutorOptions opt;
  opt.pool = &pool;
  opt.fuse = false;
  Executor ex(*spec.graph, spec.bind(hidden, 2), opt);
  ex.retain(spec.loss);
  if (share_nothing) retain_everything(ex, *spec.graph);
  for (int i = 0; i < steps; ++i) ex.run_step();
  if (share_nothing) {
    const MemoryPlan* plan = ex.memory_plan();
    EXPECT_TRUE(plan->reuse_edges.empty());
    EXPECT_EQ(plan->alias_count, 0u);
    EXPECT_EQ(plan->slab_bytes, plan->gross_bytes);
  }
  std::uint32_t bits = 0;
  std::memcpy(&bits, ex.value(spec.loss).fdata(), sizeof(float));
  return bits;
}

TEST(MemPlan, BitwiseIdenticalToShareNothingPlanAcrossThreadCounts) {
  // Slab reuse, in-place aliasing, and reuse-edge scheduling must not
  // change a single bit of the computation: compare the loss after several
  // training steps against an executor whose plan shares no storage, at 1,
  // 2, and 8 threads. word_lm covers the GEMM/LSTM path, resnet the conv +
  // scatter kernels.
  for (ModelCase& c : builtin_models()) {
    if (std::string(c.name) != "word_lm" && std::string(c.name) != "resnet") continue;
    const std::uint32_t reference =
        loss_bits_after_steps(c.spec, c.hidden, /*share_nothing=*/true, 2, 3);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      EXPECT_EQ(loss_bits_after_steps(c.spec, c.hidden, /*share_nothing=*/false, threads, 3),
                reference)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(MemPlan, SteadyStateStepPerformsNoHeapAllocations) {
  TinyMlp m;
  Executor ex(m.g, Bindings{{"batch", 16}});
  for (int i = 0; i < 3; ++i) ex.run_step();  // slab + grads + scratch warm
  // Min over a few steps: per-thread kernel scratch grows monotonically
  // and may still warm up on whichever pool thread ran cold so far.
  std::size_t min_allocs = std::numeric_limits<std::size_t>::max();
  for (int i = 0; i < 3; ++i) {
    const std::size_t before = aligned_alloc_count();
    ex.run_step();
    min_allocs = std::min(min_allocs, aligned_alloc_count() - before);
  }
  EXPECT_EQ(min_allocs, 0u);
}

TEST(MemPlan, PinnedInputsStayOutOfSlabAndRetainedValuesSurvive) {
  TinyMlp m;
  Executor ex(m.g, Bindings{{"batch", 4}});
  ex.retain(m.loss);
  const Tensor* x = m.g.inputs()[0];
  DenseTensor zeros({4, 6}, ir::DataType::kFloat32);
  ex.set_input(x, std::move(zeros));
  ex.run_step();
  ASSERT_NE(ex.memory_plan(), nullptr);
  // The user owns pinned storage; the plan must leave it out of the slab.
  // Plan entries key the executing graph's tensors (the fused clone's by
  // default), so caller-facing tensors go through resolve().
  EXPECT_EQ(ex.memory_plan()->find(ex.resolve(x)), nullptr);
  EXPECT_NE(ex.memory_plan()->find(ex.resolve(m.loss)), nullptr);

  // A retained tensor's storage must survive the whole step even though
  // later ops could otherwise reuse its slab range.
  const float l1 = ex.value(m.loss).f(0);
  EXPECT_TRUE(std::isfinite(l1));

  ExecutorOptions unshared_opt;
  unshared_opt.fuse = false;
  Executor unshared(m.g, Bindings{{"batch", 4}}, unshared_opt);
  retain_everything(unshared, m.g);
  DenseTensor zeros2({4, 6}, ir::DataType::kFloat32);
  unshared.set_input(x, std::move(zeros2));
  unshared.run_step();
  EXPECT_EQ(ex.value(m.loss).f(0), unshared.value(m.loss).f(0));
}

#if defined(__SANITIZE_ADDRESS__)
#define GF_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GF_TEST_ASAN 1
#endif
#endif

TEST(MemPlan, AsanPoisonsSlabOutsideRetainedExtents) {
#ifndef GF_TEST_ASAN
  GTEST_SKIP() << "slab poisoning is compiled in only under AddressSanitizer";
#else
  TinyMlp m;
  Executor ex(m.g, Bindings{{"batch", 4}});
  ex.retain(m.loss);
  ex.run_step();
  const MemoryPlan& plan = *ex.memory_plan();
  const PlannedTensor& loss = *plan.find(ex.resolve(m.loss));
  const auto* loss_data = reinterpret_cast<const char*>(ex.value(m.loss).fdata());
  const char* slab = loss_data - loss.offset;

  for (std::size_t b = 0; b < loss.bytes; ++b)
    EXPECT_FALSE(__asan_address_is_poisoned(loss_data + b)) << "loss byte " << b;
  // Alignment padding after the loss stays poisoned.
  EXPECT_TRUE(__asan_address_is_poisoned(loss_data + loss.bytes));
  // So does every planned tensor that was not retained, once the step
  // ended; pick one whose range does not overlap the loss's.
  const PlannedTensor* other = nullptr;
  for (const PlannedTensor& pt : plan.tensors)
    if (pt.offset >= loss.offset + loss.aligned_bytes || pt.offset + pt.bytes <= loss.offset)
      other = &pt;
  ASSERT_NE(other, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(slab + other->offset)) << other->tensor->name();
#endif
}

}  // namespace
}  // namespace gf::rt
