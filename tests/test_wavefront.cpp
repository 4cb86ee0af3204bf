// Wavefront-scheduler battery: bitwise determinism across thread counts and
// schedules, randomized-DAG property checks against the symbolic layer,
// scheduler DAG structure (WAR edges for in-place updates), and
// timeline / Chrome-trace sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

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

/// Everything a training run produces that must be schedule-independent:
/// per-step losses and profile totals, final weights, arena peak.
struct RunResult {
  std::vector<std::uint32_t> loss_bits;
  std::vector<std::uint32_t> weight_bits;
  double flops = 0;
  double bytes = 0;
  std::size_t peak = 0;
};

RunResult run_training(const ir::Graph& graph, const ir::Tensor* loss,
                       const Bindings& bind, Schedule schedule, std::size_t threads,
                       int steps) {
  conc::ThreadPool pool(threads);
  ExecutorOptions opt;
  opt.pool = &pool;
  opt.schedule = schedule;
  Executor ex(graph, bind, opt);
  ex.retain(loss);

  RunResult result;
  for (int s = 0; s < steps; ++s) {
    const ProfileReport report = ex.run_step();
    result.loss_bits.push_back(std::bit_cast<std::uint32_t>(ex.value(loss).f(0)));
    result.flops += report.total_flops;
    result.bytes += report.total_bytes;
    result.peak = report.peak_allocated_bytes;
  }
  for (const auto& t : graph.tensors()) {
    if (t->role() != ir::TensorRole::kWeight) continue;
    const DenseTensor& w = ex.value(t.get());
    for (std::int64_t i = 0; i < w.numel(); ++i)
      result.weight_bits.push_back(std::bit_cast<std::uint32_t>(w.f(i)));
  }
  return result;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.loss_bits.size(), b.loss_bits.size()) << label;
  for (std::size_t i = 0; i < a.loss_bits.size(); ++i)
    EXPECT_EQ(a.loss_bits[i], b.loss_bits[i]) << label << " loss step " << i;
  ASSERT_EQ(a.weight_bits.size(), b.weight_bits.size()) << label;
  for (std::size_t i = 0; i < a.weight_bits.size(); ++i)
    ASSERT_EQ(a.weight_bits[i], b.weight_bits[i]) << label << " weight elem " << i;
  EXPECT_EQ(a.flops, b.flops) << label;
  EXPECT_EQ(a.bytes, b.bytes) << label;
  EXPECT_EQ(a.peak, b.peak) << label;
}

TEST(WavefrontDeterminism, WordLmBitwiseIdenticalAcrossThreadCounts) {
  models::WordLmConfig cfg;
  cfg.vocab = 40;
  cfg.seq_length = 5;
  cfg.layers = 2;
  const auto spec = models::build_word_lm(cfg);
  const Bindings bind = spec.bind(8, 2);

  const RunResult reference =
      run_training(*spec.graph, spec.loss, bind, Schedule::kSequential, 1, 4);
  for (std::size_t threads : {1u, 2u, 5u}) {
    const RunResult wf =
        run_training(*spec.graph, spec.loss, bind, Schedule::kWavefront, threads, 4);
    expect_bitwise_equal(reference, wf, "wordlm threads=" + std::to_string(threads));
  }
}

TEST(WavefrontDeterminism, ResNetBitwiseIdenticalAcrossThreadCounts) {
  models::ResNetConfig cfg;
  cfg.depth = 18;
  cfg.image_size = 32;
  cfg.classes = 10;
  const auto spec = models::build_resnet(cfg);
  const Bindings bind = spec.bind(4, 2);

  const RunResult reference =
      run_training(*spec.graph, spec.loss, bind, Schedule::kSequential, 1, 2);
  for (std::size_t threads : {2u, 4u}) {
    const RunResult wf =
        run_training(*spec.graph, spec.loss, bind, Schedule::kWavefront, threads, 2);
    expect_bitwise_equal(reference, wf, "resnet threads=" + std::to_string(threads));
  }
}

TEST(WavefrontDeterminism, RepeatedRunsAreBitwiseIdentical) {
  models::WordLmConfig cfg;
  cfg.vocab = 30;
  cfg.seq_length = 4;
  cfg.layers = 1;
  const auto spec = models::build_word_lm(cfg);
  const Bindings bind = spec.bind(8, 2);
  const RunResult a =
      run_training(*spec.graph, spec.loss, bind, Schedule::kWavefront, 3, 3);
  const RunResult b =
      run_training(*spec.graph, spec.loss, bind, Schedule::kWavefront, 3, 3);
  expect_bitwise_equal(a, b, "repeat");
}

TEST(WavefrontTraining, LossDecreasesUnderParallelSchedule) {
  models::WordLmConfig cfg;
  cfg.vocab = 30;
  cfg.seq_length = 4;
  cfg.layers = 1;
  const auto spec = models::build_word_lm(cfg);
  conc::ThreadPool pool(4);
  ExecutorOptions opt;
  opt.pool = &pool;
  opt.schedule = Schedule::kWavefront;
  opt.learning_rate = 0.5;
  Executor ex(*spec.graph, spec.bind(12, 4), opt);
  ex.retain(spec.loss);
  ex.run_step();
  const float first = ex.value(spec.loss).f(0);
  for (int i = 0; i < 30; ++i) ex.run_step();
  EXPECT_LT(ex.value(spec.loss).f(0), first);
}

// --- randomized DAG schedules -------------------------------------------

/// Builds a random valid training graph: a pool of 2-D activations grown by
/// randomly chosen ops (matmul into fresh weights, bias_add, pointwise,
/// two-input add/mul, concat), closed off with a softmax classifier and a
/// full backward/update pass. Branches that end up unconsumed are left
/// dangling on purpose — the scheduler must free them by liveness.
models::ModelSpec random_training_graph(unsigned seed, int num_random_ops) {
  auto graph = std::make_shared<Graph>("random_" + std::to_string(seed));
  Graph& g = *graph;
  std::mt19937 rng(seed);
  const Expr b = Expr::symbol("batch");
  auto dims = [&](int cols) { return ir::TensorShape{b, Expr(cols)}; };

  std::vector<std::pair<Tensor*, int>> live;  // activation, column count
  live.emplace_back(g.add_input("x", dims(6)), 6);

  auto pick = [&]() -> std::pair<Tensor*, int>& {
    std::uniform_int_distribution<std::size_t> d(0, live.size() - 1);
    return live[d(rng)];
  };

  for (int i = 0; i < num_random_ops; ++i) {
    const std::string suffix = std::to_string(i);
    std::uniform_int_distribution<int> kind_dist(0, 4);
    switch (kind_dist(rng)) {
      case 0: {  // matmul into a fresh weight
        auto& [t, cols] = pick();
        std::uniform_int_distribution<int> width(3, 9);
        const int out_cols = width(rng);
        Tensor* w = g.add_weight("w" + suffix, {Expr(cols), Expr(out_cols)});
        live.emplace_back(ir::matmul(g, "mm" + suffix, t, w), out_cols);
        break;
      }
      case 1: {  // bias_add with a fresh weight
        auto& [t, cols] = pick();
        Tensor* bias = g.add_weight("b" + suffix, {Expr(cols)});
        live.emplace_back(ir::bias_add(g, "ba" + suffix, t, bias), cols);
        break;
      }
      case 2: {  // unary pointwise
        auto& [t, cols] = pick();
        Tensor* out = (i % 2 == 0) ? ir::tanh(g, "pw" + suffix, t)
                                   : ir::relu(g, "pw" + suffix, t);
        live.emplace_back(out, cols);
        break;
      }
      case 3: {  // binary pointwise over equal-width activations
        auto& [t1, cols] = pick();
        Tensor* partner = nullptr;
        for (auto& [t2, c2] : live)
          if (c2 == cols) partner = t2;  // deterministic: last match
        live.emplace_back(ir::add(g, "sum" + suffix, t1, partner), cols);
        break;
      }
      case 4: {  // concat along the feature axis
        auto& [t1, c1] = pick();
        auto& [t2, c2] = pick();
        live.emplace_back(ir::concat(g, "cat" + suffix, {t1, t2}, 1), c1 + c2);
        break;
      }
    }
  }

  const auto& [last, last_cols] = live.back();
  const int classes = 5;
  Tensor* w_out = g.add_weight("w_out", {Expr(last_cols), Expr(classes)});
  Tensor* labels = g.add_input("labels", {b}, ir::DataType::kInt32);
  auto [per_row, probs] =
      ir::softmax_xent(g, "xent", ir::matmul(g, "logits", last, w_out), labels);
  (void)probs;
  Tensor* loss = ir::reduce_mean(g, "loss", per_row);
  ir::build_training_step(g, loss, {});

  models::ModelSpec spec;
  spec.name = g.name();
  spec.graph = graph;
  spec.loss = loss;
  return spec;
}

class RandomDagProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomDagProperty, WavefrontMatchesSymbolicCountsAndFootprintBound) {
  const unsigned seed = GetParam();
  const auto spec = random_training_graph(seed, 14);
  const Bindings bind{{"batch", 3}};

  conc::ThreadPool pool(3);
  ExecutorOptions opt;
  opt.pool = &pool;
  Executor ex(*spec.graph, bind, opt);
  ex.run_step();  // warm-up: memory plan and kernel scratch
  const ProfileReport report = ex.run_step();

  // Formulas come from the graph the executor actually ran (the fused
  // clone by default).
  const double sym_flops = ex.executing_graph().total_flops().eval(bind);
  const double sym_bytes = ex.executing_graph().total_bytes_accessed().eval(bind);
  EXPECT_NEAR(report.total_flops, sym_flops, 1e-6 * sym_flops) << "seed " << seed;
  EXPECT_NEAR(report.total_bytes, sym_bytes, 1e-6 * sym_bytes) << "seed " << seed;

  // Out-of-order retirement must never need more arena than the
  // sequential schedule's analytic footprint: the slab is fixed before
  // the step. At these toy sizes 64-byte padding dominates, so allow
  // per-tensor alignment slack.
  const auto fp = ir::minimal_footprint(ex.executing_graph(), bind);
  const double slack = static_cast<double>(kTensorAlignment * ex.memory_plan()->tensors.size());
  EXPECT_LE(static_cast<double>(report.peak_allocated_bytes), fp.total_bytes + slack)
      << "seed " << seed;
  EXPECT_GT(report.peak_allocated_bytes, 0u);

  // And the whole run must stay schedule-independent.
  const RunResult seq =
      run_training(*spec.graph, spec.loss, bind, Schedule::kSequential, 1, 2);
  const RunResult wf =
      run_training(*spec.graph, spec.loss, bind, Schedule::kWavefront, 3, 2);
  expect_bitwise_equal(seq, wf, "random dag seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

// --- scheduler DAG structure --------------------------------------------

TEST(OpDag, WarEdgesOrderInPlaceUpdatesAfterReaders) {
  // ApplyGradient mutates its weight in place; every other op reading that
  // weight must be a predecessor so the wavefront cannot update too early.
  Graph g("war");
  const Expr b = Expr::symbol("batch");
  Tensor* x = g.add_input("x", {b, Expr(4)});
  Tensor* w = g.add_weight("w", {Expr(4), Expr(3)});
  Tensor* labels = g.add_input("labels", {b}, ir::DataType::kInt32);
  auto [per_row, probs] =
      ir::softmax_xent(g, "xent", ir::matmul(g, "fc", x, w), labels);
  (void)probs;
  ir::build_training_step(g, ir::reduce_mean(g, "loss", per_row), {});

  const ir::OpDag dag = ir::build_op_dag(g);
  ASSERT_EQ(dag.order.size(), g.num_ops());

  std::size_t apply_idx = dag.order.size();
  for (std::size_t i = 0; i < dag.order.size(); ++i)
    if (dag.order[i]->type() == ir::OpType::kApplyGradient) apply_idx = i;
  ASSERT_LT(apply_idx, dag.order.size());
  const ir::Op* apply = dag.order[apply_idx];
  ASSERT_EQ(apply->input(0), w);

  for (std::size_t i = 0; i < dag.order.size(); ++i) {
    const ir::Op* op = dag.order[i];
    if (op == apply) continue;
    bool reads_w = false;
    for (const Tensor* in : op->inputs()) reads_w |= (in == w);
    if (!reads_w) continue;
    const auto& succ = dag.successors[i];
    EXPECT_TRUE(std::find(succ.begin(), succ.end(), apply_idx) != succ.end())
        << "reader " << op->name() << " lacks WAR edge to the weight update";
  }

  // Countdown bookkeeping: at least one source op, and every non-source
  // reachable via someone's successor list.
  std::vector<std::size_t> recomputed(dag.order.size(), 0);
  for (const auto& succ : dag.successors)
    for (std::size_t s : succ) ++recomputed[s];
  EXPECT_EQ(recomputed, dag.predecessor_count);
  EXPECT_NE(std::count(recomputed.begin(), recomputed.end(), 0u), 0);
}

// --- timeline / trace ----------------------------------------------------

TEST(WavefrontTimeline, CoversEveryOpInTopologicalOrder) {
  models::WordLmConfig cfg;
  cfg.vocab = 30;
  cfg.seq_length = 4;
  cfg.layers = 1;
  const auto spec = models::build_word_lm(cfg);
  conc::ThreadPool pool(3);
  ExecutorOptions opt;
  opt.pool = &pool;
  Executor ex(*spec.graph, spec.bind(8, 2), opt);
  const ProfileReport report = ex.run_step();

  ASSERT_EQ(report.timeline.size(), ex.executing_graph().num_ops());
  double flops = 0;
  for (std::size_t i = 0; i < report.timeline.size(); ++i) {
    const TimelineEvent& e = report.timeline[i];
    EXPECT_EQ(e.op_index, i);
    EXPECT_LE(e.start_seconds, e.end_seconds);
    EXPECT_GE(e.worker, 0);  // every op ran on a pool worker
    EXPECT_LT(e.worker, 3);
    flops += e.flops;
  }
  EXPECT_EQ(flops, report.total_flops);  // same fold order: bit-exact
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(SequentialTimeline, RunsEverythingOnCallerThread) {
  models::WordLmConfig cfg;
  cfg.vocab = 30;
  cfg.seq_length = 4;
  cfg.layers = 1;
  const auto spec = models::build_word_lm(cfg);
  ExecutorOptions opt;
  opt.schedule = Schedule::kSequential;
  Executor ex(*spec.graph, spec.bind(8, 2), opt);
  const ProfileReport report = ex.run_step();
  ASSERT_EQ(report.timeline.size(), ex.executing_graph().num_ops());
  for (const TimelineEvent& e : report.timeline) EXPECT_EQ(e.worker, -1);
  // Disjoint op intervals within the step: busy time cannot exceed wall.
  EXPECT_GE(report.wall_seconds, report.total_seconds);
}

TEST(ChromeTrace, EmitsOneDurationEventPerOp) {
  Graph g("trace");
  const Expr b = Expr::symbol("batch");
  Tensor* x = g.add_input("x", {b, Expr(4)});
  Tensor* w = g.add_weight("w", {Expr(4), Expr(3)});
  Tensor* labels = g.add_input("labels", {b}, ir::DataType::kInt32);
  auto [per_row, probs] =
      ir::softmax_xent(g, "xent", ir::matmul(g, "fc\"quoted\"", x, w), labels);
  (void)probs;
  ir::build_training_step(g, ir::reduce_mean(g, "loss", per_row), {});

  Executor ex(g, {{"batch", 2}});
  const ProfileReport report = ex.run_step();

  std::ostringstream os;
  report.write_chrome_trace(os);
  const std::string json = os.str();
  // Header carries the trace-format version so whatif::load_trace can
  // reject drifted exports.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"gfTraceVersion\":" +
                           std::to_string(kGfTraceVersion) + ",\"wallSeconds\":",
                       0),
            0u);

  std::size_t events = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       ++pos)
    ++events;
  EXPECT_EQ(events, report.timeline.size());
  // Escaping: the op name containing quotes must appear backslash-escaped.
  EXPECT_NE(json.find("fc\\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace gf::rt
