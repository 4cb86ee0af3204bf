// Data-parallel runner tests: the bucketing/chunking/tree-reduction
// helpers, and the headline contract — averaged gradients, weights, and
// the step loss are bitwise-identical for every valid worker count, with
// N=1/S=1 degenerating to the plain single-executor path exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/ir/gradients.h"
#include "src/models/models.h"
#include "src/runtime/datapar.h"
#include "src/runtime/executor.h"
#include "src/whatif/trace.h"

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

/// A model with exactly one weight — one gradient, one bucket.
struct OneWeight {
  Graph g{"one"};
  Tensor* loss = nullptr;
  Tensor* w1 = nullptr;  ///< named like TinyMlp's so run_steps works on both

  OneWeight() {
    const Expr b = Expr::symbol("batch");
    Tensor* x = g.add_input("x", {b, Expr(4)});
    w1 = g.add_weight("w", {Expr(4), Expr(1)});
    Tensor* y = ir::tanh(g, "act", ir::matmul(g, "fc", x, w1));
    loss = ir::reduce_mean(g, "loss", y);
    ir::build_training_step(g, loss, {});
  }
};

/// Int ids feed an embedding over 64 rows first, then one over 2 rows.
/// deterministic_fill draws ids below the first consumer's row count, so
/// the second lookup throws "embedding id out of range" on any id >= 2.
struct TwoTableLookup {
  Graph g{"lookup"};
  Tensor* ids = nullptr;
  Tensor* loss = nullptr;

  TwoTableLookup() {
    ids = g.add_input("ids", {Expr::symbol("batch")}, ir::DataType::kInt32);
    Tensor* wide = g.add_weight("wide", {Expr(64), Expr(4)});
    Tensor* narrow = g.add_weight("narrow", {Expr(2), Expr(4)});
    Tensor* wide_rows = ir::embedding_lookup(g, "wide_rows", wide, ids);  // first consumer
    Tensor* narrow_rows = ir::embedding_lookup(g, "narrow_rows", narrow, ids);
    Tensor* sum = ir::add(g, "sum", wide_rows, narrow_rows);
    loss = ir::reduce_mean(g, "loss", ir::tanh(g, "act", sum));
    ir::build_training_step(g, loss, {});
  }
};

std::vector<std::uint32_t> float_bits(const DenseTensor& t) {
  std::vector<std::uint32_t> bits(static_cast<std::size_t>(t.numel()));
  std::memcpy(bits.data(), t.fdata(), bits.size() * sizeof(std::uint32_t));
  return bits;
}

std::uint32_t bits_of(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// ---------------------------------------------------------------------------
// Pure helpers
// ---------------------------------------------------------------------------

TEST(PlanBuckets, PacksGreedilyWithoutSplitting) {
  const auto buckets = plan_buckets({10, 10, 10, 10}, 25);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].elems, 20u);
  EXPECT_EQ(buckets[1].elems, 20u);
  EXPECT_EQ(buckets[0].slices[1].offset, 10u);
  EXPECT_EQ(buckets[1].slices[0].grad_index, 2u);
}

TEST(PlanBuckets, OversizedGradientGetsOwnBucket) {
  const auto buckets = plan_buckets({4, 100, 4}, 16);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].elems, 4u);
  EXPECT_EQ(buckets[1].elems, 100u);
  ASSERT_EQ(buckets[1].slices.size(), 1u);
  EXPECT_EQ(buckets[2].elems, 4u);
}

TEST(PlanBuckets, SingleParameterModel) {
  const auto buckets = plan_buckets({7}, 1024);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].elems, 7u);
}

TEST(PlanBuckets, RejectsZeroTarget) {
  EXPECT_THROW(plan_buckets({1}, 0), std::invalid_argument);
}

TEST(ChunkRanges, EvenSplit) {
  const auto chunks = chunk_ranges(8, 4);
  ASSERT_EQ(chunks.size(), 4u);
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(chunks[w].first, 2 * w);
    EXPECT_EQ(chunks[w].second, 2u);
  }
}

TEST(ChunkRanges, RaggedTail) {
  const auto chunks = chunk_ranges(10, 4);  // ceil = 3: 3, 3, 3, 1
  EXPECT_EQ(chunks[3].first, 9u);
  EXPECT_EQ(chunks[3].second, 1u);
}

TEST(ChunkRanges, BucketSmallerThanWorkerCount) {
  const auto chunks = chunk_ranges(2, 4);  // 1, 1, then empty
  EXPECT_EQ(chunks[0].second, 1u);
  EXPECT_EQ(chunks[1].second, 1u);
  EXPECT_EQ(chunks[2].second, 0u);
  EXPECT_EQ(chunks[3].second, 0u);
}

TEST(PairwiseTreeReduce, SingleSourceIsACopy) {
  const float src[3] = {1.5f, -2.0f, 0.25f};
  const float* srcs[1] = {src};
  float dst[3] = {};
  pairwise_tree_reduce(dst, srcs, 1, 3);
  EXPECT_EQ(std::memcmp(dst, src, sizeof(src)), 0);
}

TEST(PairwiseTreeReduce, UsesAdjacentPairingAssociation) {
  // Values chosen so association changes the rounding: the tree result for
  // 5 leaves must be ((a+b)+(c+d))+e exactly.
  const float v[5] = {1e8f, 1.0f, -1e8f, 1.0f, 0.5f};
  const float* srcs[5] = {&v[0], &v[1], &v[2], &v[3], &v[4]};
  float out = 0;
  pairwise_tree_reduce(&out, srcs, 5, 1);
  const float expected = ((v[0] + v[1]) + (v[2] + v[3])) + v[4];
  EXPECT_EQ(bits_of(out), bits_of(expected));
}

// The property the runner's worker-count independence rests on: reducing
// S leaves directly equals reducing each contiguous power-of-two block
// first and then the block sums — bitwise.
TEST(PairwiseTreeReduce, BlockDecompositionIsExact) {
  constexpr std::size_t kLeaves = 8;
  constexpr std::size_t kElems = 64;
  std::vector<std::vector<float>> leaves(kLeaves, std::vector<float>(kElems));
  unsigned state = 12345;
  for (auto& leaf : leaves)
    for (float& x : leaf) {
      state = state * 1664525u + 1013904223u;
      x = static_cast<float>(static_cast<int>(state >> 8) % 1000) * 1e-3f +
          static_cast<float>(state % 7) * 1e8f;  // mix magnitudes
    }
  std::vector<const float*> all(kLeaves);
  for (std::size_t i = 0; i < kLeaves; ++i) all[i] = leaves[i].data();
  std::vector<float> direct(kElems);
  pairwise_tree_reduce(direct.data(), all.data(), kLeaves, kElems);

  for (std::size_t blocks : {1u, 2u, 4u, 8u}) {
    const std::size_t per = kLeaves / blocks;
    std::vector<std::vector<float>> sums(blocks, std::vector<float>(kElems));
    for (std::size_t b = 0; b < blocks; ++b)
      pairwise_tree_reduce(sums[b].data(), all.data() + b * per, per, kElems);
    std::vector<const float*> tops(blocks);
    for (std::size_t b = 0; b < blocks; ++b) tops[b] = sums[b].data();
    std::vector<float> via_blocks(kElems);
    pairwise_tree_reduce(via_blocks.data(), tops.data(), blocks, kElems);
    EXPECT_EQ(std::memcmp(via_blocks.data(), direct.data(), kElems * sizeof(float)), 0)
        << blocks << " blocks";
  }
}

// ---------------------------------------------------------------------------
// Runner: validation
// ---------------------------------------------------------------------------

TEST(DataParallel, RejectsInvalidShardCounts) {
  TinyMlp m;
  const Bindings bind{{"batch", 32}};
  DataParallelOptions opt;
  opt.workers = 3;  // 8 % 3 != 0
  EXPECT_THROW(DataParallelRunner(m.g, m.loss, bind, opt), std::invalid_argument);
  opt.workers = 4;
  opt.grad_shards = 12;  // 12/4 = 3: not a power of two
  EXPECT_THROW(DataParallelRunner(m.g, m.loss, bind, opt), std::invalid_argument);
  opt.grad_shards = 8;
  EXPECT_THROW(DataParallelRunner(m.g, m.loss, Bindings{{"batch", 20}}, opt),
               std::invalid_argument);  // 20 % 8 != 0
  EXPECT_THROW(DataParallelRunner(m.g, m.loss, Bindings{}, opt), std::invalid_argument);
  opt.workers = 2;
  opt.grad_shards = 128;  // beyond pairwise_tree_reduce's 64-input fan-in
  EXPECT_THROW(DataParallelRunner(m.g, m.loss, Bindings{{"batch", 256}}, opt),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Runner: bitwise worker-count independence
// ---------------------------------------------------------------------------

struct StepRecord {
  std::uint32_t loss_bits = 0;
  std::vector<std::vector<std::uint32_t>> grad_bits;
  std::vector<std::vector<std::uint32_t>> weight_bits;
};

template <typename Model>
std::vector<StepRecord> run_steps(Model& m, int workers, int steps,
                                  DataParallelOptions opt, int batch = 32) {
  opt.workers = workers;
  DataParallelRunner runner(m.g, m.loss, Bindings{{"batch", batch}}, opt);
  std::vector<StepRecord> out;
  for (int s = 0; s < steps; ++s) {
    const DataParallelStepResult res = runner.step();
    StepRecord rec;
    rec.loss_bits = bits_of(res.loss);
    for (const ir::Tensor* grad : runner.gradient_tensors())
      rec.grad_bits.push_back(float_bits(runner.averaged_gradient(grad)));
    for (int w = 0; w < workers; ++w) {
      Executor& ex = runner.worker_executor(w);
      rec.weight_bits.push_back(float_bits(ex.weight_value(m.w1)));
    }
    out.push_back(std::move(rec));
  }
  return out;
}

void expect_identical(const std::vector<StepRecord>& a, const std::vector<StepRecord>& b,
                      const char* label) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].loss_bits, b[s].loss_bits) << label << " loss, step " << s;
    ASSERT_EQ(a[s].grad_bits.size(), b[s].grad_bits.size());
    for (std::size_t g = 0; g < a[s].grad_bits.size(); ++g)
      EXPECT_EQ(a[s].grad_bits[g], b[s].grad_bits[g]) << label << " grad " << g
                                                      << ", step " << s;
    // Every worker must hold the same weights as every reference worker.
    for (const auto& wa : a[s].weight_bits)
      for (const auto& wb : b[s].weight_bits)
        EXPECT_EQ(wa, wb) << label << " weights, step " << s;
  }
}

TEST(DataParallel, BitwiseIdenticalAcrossWorkerCounts) {
  DataParallelOptions opt;
  opt.grad_shards = 8;
  TinyMlp ref_model;
  const auto reference = run_steps(ref_model, 1, 3, opt);
  for (int workers : {2, 4, 8}) {
    TinyMlp m;
    expect_identical(run_steps(m, workers, 3, opt), reference,
                     ("N=" + std::to_string(workers)).c_str());
  }
}

TEST(DataParallel, BitwiseIdenticalWithAdamAndTinyBuckets) {
  // Tiny buckets force many buckets, ragged chunks, and chunks smaller
  // than the worker count; Adam exercises multi-slot optimizer state.
  DataParallelOptions opt;
  opt.grad_shards = 8;
  opt.bucket_bytes = 64;  // 16 floats: every TinyMlp gradient fragments hard
  TinyMlp ref_model(ir::Optimizer::kAdam);
  const auto reference = run_steps(ref_model, 1, 2, opt);
  for (int workers : {2, 4}) {
    TinyMlp m(ir::Optimizer::kAdam);
    expect_identical(run_steps(m, workers, 2, opt), reference, "adam/tiny-bucket");
  }
}

TEST(DataParallel, SingleParameterModelParity) {
  DataParallelOptions opt;
  opt.grad_shards = 4;
  OneWeight ref_model;
  const auto reference = run_steps(ref_model, 1, 2, opt, 16);
  for (int workers : {2, 4}) {
    OneWeight m;
    expect_identical(run_steps(m, workers, 2, opt, 16), reference, "one-weight");
  }
}

TEST(DataParallel, StragglersChangeTimingNotBits) {
  DataParallelOptions jittered;
  jittered.grad_shards = 8;
  jittered.straggler_sigma = 0.2;
  jittered.straggler_scale_seconds = 1e-4;
  DataParallelOptions clean = jittered;
  clean.straggler_sigma = 0;
  TinyMlp m1;
  TinyMlp m2;
  expect_identical(run_steps(m1, 2, 2, jittered), run_steps(m2, 2, 2, clean),
                   "stragglers");
}

TEST(DataParallel, StragglerScheduleIsDeterministic) {
  TinyMlp m1;
  TinyMlp m2;
  DataParallelOptions opt;
  opt.workers = 2;
  opt.grad_shards = 8;
  opt.straggler_sigma = 0.1;
  DataParallelRunner a(m1.g, m1.loss, Bindings{{"batch", 32}}, opt);
  DataParallelRunner b(m2.g, m2.loss, Bindings{{"batch", 32}}, opt);
  double total = 0;
  for (int w = 0; w < 2; ++w)
    for (int s = 0; s < a.micro_steps(); ++s) {
      EXPECT_EQ(a.straggler_delay(w, s), b.straggler_delay(w, s));
      total += a.straggler_delay(w, s);
    }
  EXPECT_GT(total, 0.0);
}

TEST(DataParallel, KernelErrorIsRethrownAndPoisonsTheRunner) {
  // One id per micro-shard. Take the first seed that gives worker 0 only
  // in-range ids and worker 1 an out-of-range one: worker 0 finishes its
  // micro-steps and meets the ring's barrier, which worker 1's kernel
  // error aborts.
  TwoTableLookup m;
  const Bindings bind{{"batch", 4}};
  DataParallelOptions opt;
  opt.workers = 2;
  opt.grad_shards = 4;
  DenseTensor ids({4}, ir::DataType::kInt32);
  for (opt.executor.seed = 1; opt.executor.seed < 100000; ++opt.executor.seed) {
    deterministic_fill(m.ids, bind, opt.executor.seed, ids);
    if (ids.i32(0) < 2 && ids.i32(1) < 2 && (ids.i32(2) >= 2 || ids.i32(3) >= 2)) break;
  }
  ASSERT_LT(opt.executor.seed, 100000u);
  DataParallelRunner runner(m.g, m.loss, bind, opt);

  // The kernel's error, not the barrier abort that released worker 0.
  EXPECT_THROW(runner.step(), std::logic_error);
  try {
    runner.step();
    ADD_FAILURE() << "a poisoned runner stepped again";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("a previous step failed"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Runner: degenerate N=1/S=1 path vs the plain executor
// ---------------------------------------------------------------------------

/// One worker on one shard must step like a plain executor, loss and every
/// weight bit for bit. `plain` and `dp` are two builds of the same model.
void expect_degenerates_to_plain_executor(const Graph& plain, const Tensor* plain_loss,
                                          const Graph& dp, const Tensor* dp_loss,
                                          const Bindings& bind) {
  Executor ex(plain, bind);
  ex.retain(plain_loss);
  DataParallelOptions opt;
  opt.workers = 1;
  opt.grad_shards = 1;
  DataParallelRunner runner(dp, dp_loss, bind, opt);
  ASSERT_EQ(plain.tensors().size(), dp.tensors().size());

  for (int s = 0; s < 3; ++s) {
    ex.run_step();
    const DataParallelStepResult res = runner.step();
    EXPECT_EQ(bits_of(res.loss), bits_of(ex.value(plain_loss).f(0))) << "step " << s;
    for (std::size_t i = 0; i < plain.tensors().size(); ++i) {
      const Tensor* w = plain.tensors()[i].get();
      if (w->role() != ir::TensorRole::kWeight) continue;
      EXPECT_EQ(float_bits(runner.worker_executor(0).weight_value(dp.tensors()[i].get())),
                float_bits(ex.weight_value(w)))
          << "step " << s << " " << w->name();
    }
  }
}

// TinyMlp shares no weight. The toy word LM's recurrent weights are packed
// once per step, and the runner writes its weights outside run_step().
TEST(DataParallel, DegeneratesToPlainExecutorBitwise) {
  {
    TinyMlp plain, dp;
    expect_degenerates_to_plain_executor(plain.g, plain.loss, dp.g, dp.loss,
                                         Bindings{{"batch", 16}});
  }
  models::WordLmConfig cfg;
  cfg.vocab = 40;
  cfg.seq_length = 5;
  cfg.layers = 2;
  const models::ModelSpec plain = models::build_word_lm(cfg);
  const models::ModelSpec dp = models::build_word_lm(cfg);
  expect_degenerates_to_plain_executor(*plain.graph, plain.loss, *dp.graph, dp.loss,
                                       plain.bind(8, 2));
}

// ---------------------------------------------------------------------------
// Runner: merged timeline
// ---------------------------------------------------------------------------

TEST(DataParallel, MergedTimelineIsWhatifLoadable) {
  TinyMlp m;
  DataParallelOptions opt;
  opt.workers = 2;
  opt.grad_shards = 4;
  opt.threads_per_worker = 2;
  DataParallelRunner runner(m.g, m.loss, Bindings{{"batch", 16}}, opt);
  runner.step();
  const DataParallelStepResult res = runner.step();
  const std::vector<TimelineEvent>& events = res.timeline.timeline;

  // Worker w owns lanes [w(T+1), (w+1)(T+1)). Its micro-steps run one
  // after another, so the latest end among its op events is its last
  // micro-step's, and the last event named like the executing graph's
  // final op is that micro-step's final op.
  const int lane_width = static_cast<int>(opt.threads_per_worker) + 1;
  const std::string final_op =
      ir::build_op_dag(runner.worker_executor(0).executing_graph()).order.back()->name();
  std::vector<double> ops_end(2, 0.0);
  std::vector<std::size_t> final_op_index(2, events.size());
  for (const TimelineEvent& e : events) {
    if (e.category == "comm") continue;
    const auto w = static_cast<std::size_t>(e.worker / lane_width);
    ASSERT_LT(w, 2u) << e.name;
    ops_end[w] = std::max(ops_end[w], e.end_seconds);
    if (e.name == final_op) final_op_index[w] = e.op_index;
  }

  // The worker thread runs the ring after backward: every ring event sits
  // on its block's first lane and starts after the worker's last op ends,
  // and its first ring event depends on that micro-step's final op.
  std::vector<std::size_t> ring_events(2, 0);
  for (const TimelineEvent& e : events) {
    if (e.category != "comm") continue;
    EXPECT_EQ(e.kernel_class, "ring-allreduce");
    ASSERT_EQ(e.worker % lane_width, 0) << e.name << " is off its worker thread's lane";
    const auto w = static_cast<std::size_t>(e.worker / lane_width);
    ASSERT_LT(w, 2u) << e.name;
    EXPECT_GE(e.start_seconds, ops_end[w]) << e.name << " starts before backward ends";
    if (ring_events[w]++ == 0) {
      EXPECT_TRUE(std::binary_search(e.deps.begin(), e.deps.end(), final_op_index[w]))
          << e.name << " does not wait for worker " << w << "'s final op";
    }
  }
  for (std::size_t n : ring_events) EXPECT_EQ(n, 2 * runner.buckets().size());

  // Dense, causally ordered indices with forward deps: exactly what
  // whatif::load_trace + validate_trace enforce.
  std::ostringstream json;
  res.timeline.write_chrome_trace(json);
  std::istringstream in(json.str());
  const whatif::Trace trace = whatif::load_trace(in);
  EXPECT_EQ(trace.ops.size(), res.timeline.timeline.size());
  whatif::validate_trace(trace);  // throws on any structural violation
  bool saw_comm = false;
  for (const auto& op : trace.ops)
    if (op.kernel_class == "ring-allreduce") saw_comm = true;
  EXPECT_TRUE(saw_comm);
}

TEST(DataParallel, ReportsBucketAndWorkerStats) {
  TinyMlp m;
  DataParallelOptions opt;
  opt.workers = 2;
  opt.grad_shards = 8;
  DataParallelRunner runner(m.g, m.loss, Bindings{{"batch", 32}}, opt);
  const DataParallelStepResult res = runner.step();
  ASSERT_EQ(res.workers.size(), 2u);
  ASSERT_EQ(res.buckets.size(), runner.buckets().size());
  double payload = 0;
  for (const BucketStats& b : res.buckets) {
    EXPECT_GT(b.payload_bytes, 0u);
    EXPECT_GE(b.ring_seconds(), 0.0);
    payload += static_cast<double>(b.payload_bytes);
  }
  EXPECT_EQ(payload, runner.total_gradient_bytes());

  // compute_seconds times each micro-step's run_step() call, prologue
  // included, so it is at least the sum of the micro reports' walls, and
  // each of those covers its micro-step's op events. Micro-steps run one
  // after another, so a worker's op events in start order fall into
  // consecutive blocks of one step's op count.
  const std::size_t ops =
      ir::build_op_dag(runner.worker_executor(0).executing_graph()).order.size();
  const int lane_width = static_cast<int>(opt.threads_per_worker) + 1;
  for (int w = 0; w < 2; ++w) {
    std::vector<const TimelineEvent*> mine;
    for (const TimelineEvent& e : res.timeline.timeline)
      if (e.category.empty() && e.worker / lane_width == w) mine.push_back(&e);
    ASSERT_EQ(mine.size(), ops * static_cast<std::size_t>(runner.micro_steps()));
    double spans = 0;
    for (std::size_t first = 0; first < mine.size(); first += ops) {
      double lo = mine[first]->start_seconds, hi = 0;
      for (std::size_t i = first; i < first + ops; ++i) {
        lo = std::min(lo, mine[i]->start_seconds);
        hi = std::max(hi, mine[i]->end_seconds);
      }
      spans += hi - lo;
    }
    const WorkerStepStats& ws = res.workers[static_cast<std::size_t>(w)];
    EXPECT_GE(ws.compute_seconds, spans) << "worker " << w;
    EXPECT_LE(ws.compute_seconds, res.wall_seconds) << "worker " << w;
  }
}

}  // namespace
}  // namespace gf::rt
