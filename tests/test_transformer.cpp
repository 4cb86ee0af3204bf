// Transformer-LM extension tests: structure, asymptotics vs the LSTM word
// LM, quadratic attention term, and numeric execution (the whole pipeline
// must hold for a model family the paper did not ship).
#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/first_order.h"
#include "src/ir/footprint.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"

namespace gf::models {
namespace {

using sym::Bindings;
using sym::Expr;

TEST(TransformerLm, ParameterCountMatchesClosedForm) {
  TransformerLmConfig cfg;
  const ModelSpec spec = build_transformer_lm(cfg);
  const double h = 1024;
  // embedding vh + positions qh + per block (4h^2 attn + 8h^2 ffn + biases
  // + 2 norms) + final norm + output (hv + v).
  const double blocks = cfg.layers * (12.0 * h * h + (4 + 2 * cfg.ffn_multiple) * h +
                                      cfg.ffn_multiple * h + 4.0 * h);
  const double expected = cfg.vocab * h + cfg.seq_length * h + blocks + 2.0 * h +
                          h * cfg.vocab + cfg.vocab;
  EXPECT_NEAR(spec.params_at(h), expected, 0.002 * expected);
}

TEST(TransformerLm, FlopsPerParamApproaches6qLikeRecurrentNets) {
  // Every parameter in the GEMM-dominated blocks is used once per token
  // per pass, so FLOPs/param/sample -> 6q as h grows — the same constant
  // as the LSTM, reached via batched GEMMs instead of a serial unroll.
  const ModelSpec spec = build_transformer_lm();
  const double h = spec.hidden_for_params(3e11);
  const Bindings bind = spec.bind(h, 8);
  const double per_param =
      spec.graph->total_flops().eval(bind) / (8.0 * spec.params_at(h));
  EXPECT_NEAR(per_param, 6.0 * 80, 0.08 * 6.0 * 80);
}

TEST(TransformerLm, AttentionAddsQuadraticSequenceTerm) {
  // At fixed h, doubling q more than doubles FLOPs (the q^2 score matmuls),
  // unlike the strictly-linear LSTM unroll.
  TransformerLmConfig small_cfg;
  small_cfg.vocab = 1000;
  small_cfg.seq_length = 64;
  TransformerLmConfig big_cfg = small_cfg;
  big_cfg.seq_length = 128;
  const ModelSpec small = build_transformer_lm(small_cfg);
  const ModelSpec big = build_transformer_lm(big_cfg);
  const double h = 64;  // small h so the q^2 h term is visible
  const double f_small = small.graph->total_flops().eval(small.bind(h, 4));
  const double f_big = big.graph->total_flops().eval(big.bind(h, 4));
  EXPECT_GT(f_big, 2.05 * f_small);

  WordLmConfig lm_small{.vocab = 1000, .layers = 1, .seq_length = 64};
  WordLmConfig lm_big{.vocab = 1000, .layers = 1, .seq_length = 128};
  const ModelSpec rnn_small = build_word_lm(lm_small);
  const ModelSpec rnn_big = build_word_lm(lm_big);
  const double r_small = rnn_small.graph->total_flops().eval(rnn_small.bind(h, 4));
  const double r_big = rnn_big.graph->total_flops().eval(rnn_big.bind(h, 4));
  EXPECT_NEAR(r_big / r_small, 2.0, 0.1);  // the RNN stays linear in q
}

TEST(TransformerLm, HigherOperationalIntensityThanLstmAtSameSize) {
  // The headline hardware consequence: attention re-reads weights once per
  // *sequence* (batched GEMM over B*q rows) instead of once per *timestep*
  // (GEMM over B rows), so the weight-streaming lambda term shrinks and
  // graph-level intensity rises at equal parameters and subbatch.
  const ModelSpec trans = build_transformer_lm();
  const ModelSpec lstm = build_word_lm();
  const double p = 2e9, b = 32;
  const auto oi = [&](const ModelSpec& spec) {
    const Bindings bind = spec.bind(spec.hidden_for_params(p), b);
    return spec.graph->total_flops().eval(bind) /
           spec.graph->total_bytes_accessed().eval(bind);
  };
  EXPECT_GT(oi(trans), 2.0 * oi(lstm));
}

TEST(TransformerLm, ValidatesAndFitsFirstOrderModel) {
  const ModelSpec spec = build_transformer_lm();
  EXPECT_NO_THROW(spec.graph->validate());
  const analysis::ModelAnalyzer analyzer(spec);
  analysis::FitOptions opt;
  opt.min_params = 5e10;
  opt.max_params = 1e12;
  const auto fit = analysis::fit_first_order(analyzer, opt);
  EXPECT_GT(fit.gamma, 0);
  EXPECT_GT(fit.lambda, 0);
  EXPECT_GT(fit.mu, 0);
  EXPECT_GT(fit.r2_flops, 0.99);
}

TEST(TransformerLm, ToyInstanceExecutesAndMatchesSymbolic) {
  TransformerLmConfig cfg;
  cfg.vocab = 40;
  cfg.layers = 2;
  cfg.seq_length = 6;
  const ModelSpec spec = build_transformer_lm(cfg);
  const Bindings bind = spec.bind(8, 2);
  rt::Executor ex(*spec.graph, bind);
  ex.run_step();
  const auto report = ex.run_step();
  const double sym_flops = spec.graph->total_flops().eval(bind);
  EXPECT_NEAR(report.total_flops, sym_flops, 1e-6 * sym_flops);
  // Peak equals the plan, slab within alignment padding of the analytic
  // sequential footprint.
  const auto fp = ir::minimal_footprint(*spec.graph, bind);
  const rt::MemoryPlan& plan = *ex.memory_plan();
  EXPECT_EQ(report.peak_allocated_bytes, plan.planned_peak_bytes());
  EXPECT_LE(static_cast<double>(plan.planned_peak_bytes()),
            fp.total_bytes + static_cast<double>(rt::kTensorAlignment * plan.tensors.size()));
}

TEST(TransformerLm, ToyInstanceTrains) {
  TransformerLmConfig cfg;
  cfg.vocab = 30;
  cfg.layers = 1;
  cfg.seq_length = 4;
  const ModelSpec spec = build_transformer_lm(cfg);
  rt::ExecutorOptions opt;
  opt.learning_rate = 0.2;
  rt::Executor ex(*spec.graph, spec.bind(12, 4), opt);
  ex.retain(spec.loss);
  ex.run_step();
  const float first = ex.value(spec.loss).f(0);
  for (int i = 0; i < 40; ++i) ex.run_step();
  EXPECT_LT(ex.value(spec.loss).f(0), first);
}

TEST(TransformerLm, RejectsBadConfigs) {
  TransformerLmConfig cfg;
  cfg.layers = 0;
  EXPECT_THROW(build_transformer_lm(cfg), std::invalid_argument);
  cfg = {};
  cfg.ffn_multiple = 0;
  EXPECT_THROW(build_transformer_lm(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace gf::models
