// Ablation-knob tests (§6.2.3): half precision halves memory quantities
// without touching algorithmic FLOPs; heavier optimizers add persistent
// slot state; algorithmic IO is batch-proportional and model-size-free.
#include <gtest/gtest.h>

#include "src/ir/footprint.h"
#include "src/models/models.h"
#include "src/verify/pass.h"

namespace gf::models {
namespace {

using sym::Bindings;

TEST(HalfPrecision, HalvesBytesAndFootprintNotFlops) {
  WordLmConfig fp32;
  fp32.vocab = 2000;
  fp32.seq_length = 10;
  WordLmConfig fp16 = fp32;
  fp16.training.half_precision = true;

  const ModelSpec a = build_word_lm(fp32);
  const ModelSpec b = build_word_lm(fp16);
  const Bindings bind_a = a.bind(64, 8);
  const Bindings bind_b = b.bind(64, 8);

  EXPECT_DOUBLE_EQ(a.graph->total_flops().eval(bind_a),
                   b.graph->total_flops().eval(bind_b));
  const double bytes32 = a.graph->total_bytes_accessed().eval(bind_a);
  const double bytes16 = b.graph->total_bytes_accessed().eval(bind_b);
  // Integer id/label tensors don't shrink, so slightly above half.
  EXPECT_GT(bytes16, 0.5 * bytes32);
  EXPECT_LT(bytes16, 0.55 * bytes32);

  const auto fp_a = ir::minimal_footprint(*a.graph, bind_a);
  const auto fp_b = ir::minimal_footprint(*b.graph, bind_b);
  EXPECT_NEAR(fp_b.persistent_bytes, 0.5 * fp_a.persistent_bytes,
              1e-9 * fp_a.persistent_bytes);
  EXPECT_LT(fp_b.total_bytes, 0.56 * fp_a.total_bytes);
}

TEST(HalfPrecision, WorksForEveryFamily) {
  WordLmConfig w{.vocab = 100, .layers = 1, .seq_length = 3};
  w.training.half_precision = true;
  EXPECT_NO_THROW(verify::validate_or_throw(*build_word_lm(w).graph));
  CharLmConfig c{.vocab = 30, .depth = 2, .seq_length = 3};
  c.training.half_precision = true;
  EXPECT_NO_THROW(verify::validate_or_throw(*build_char_lm(c).graph));
  ResNetConfig r{.depth = 18, .image_size = 32, .classes = 10};
  r.training.half_precision = true;
  EXPECT_NO_THROW(verify::validate_or_throw(*build_resnet(r).graph));
  TransformerLmConfig t{.vocab = 50, .layers = 1, .seq_length = 4};
  t.training.half_precision = true;
  EXPECT_NO_THROW(verify::validate_or_throw(*build_transformer_lm(t).graph));
}

TEST(OptimizerChoice, SlotStateScalesPersistentBytes) {
  WordLmConfig base{.vocab = 500, .layers = 1, .seq_length = 4};
  WordLmConfig momentum = base;
  momentum.training.optimizer = ir::Optimizer::kMomentum;
  WordLmConfig adam = base;
  adam.training.optimizer = ir::Optimizer::kAdam;

  const auto fp = [](const ModelSpec& s) {
    return ir::minimal_footprint(*s.graph, s.bind(32, 4)).persistent_bytes;
  };
  const ModelSpec s_sgd = build_word_lm(base);
  const double params = s_sgd.params_at(32);
  const double sgd = fp(s_sgd);
  const double mom = fp(build_word_lm(momentum));
  const double adm = fp(build_word_lm(adam));
  EXPECT_NEAR(sgd, 8.0 * params, 1.0);        // weights + grads
  EXPECT_NEAR(mom, 12.0 * params, 1.0);       // + 1 slot
  EXPECT_NEAR(adm, 16.0 * params, 1.0);       // + 2 slots
}

TEST(OptimizerChoice, UpdateFlopsScaleWithOptimizer) {
  WordLmConfig base{.vocab = 500, .layers = 1, .seq_length = 4};
  WordLmConfig adam = base;
  adam.training.optimizer = ir::Optimizer::kAdam;
  const ModelSpec s = build_word_lm(base);
  const ModelSpec a = build_word_lm(adam);
  // Update ops are batch-independent; difference shows at batch->0.
  const double f_sgd = s.graph->total_flops().eval(s.bind(32, 1));
  const double f_adam = a.graph->total_flops().eval(a.bind(32, 1));
  EXPECT_NEAR(f_adam - f_sgd, 8.0 * s.params_at(32), 1.0);  // (10-2)/elem
}

TEST(AlgorithmicIO, ProportionalToBatchOnly) {
  const ModelSpec spec = build_word_lm({.vocab = 1000, .layers = 1, .seq_length = 10});
  const sym::Expr io = spec.graph->algorithmic_io();
  // ids (B,10) + labels (10B) int32 + two zero-state inputs (B,h) per layer.
  const double io_b8_h32 = io.eval(spec.bind(32, 8));
  const double io_b16_h32 = io.eval(spec.bind(32, 16));
  EXPECT_DOUBLE_EQ(io_b16_h32, 2.0 * io_b8_h32);
  // Token IO specifically (int inputs) is independent of model size.
  const double ids_bytes = 8 * 10 * 4 * 2;  // ids + labels at b=8
  EXPECT_GE(io_b8_h32, ids_bytes);
}

TEST(AlgorithmicIO, TinyRelativeToStepBytes) {
  // §2.1: IO grows very slowly relative to compute/memory traffic.
  const ModelSpec spec = build_word_lm();
  const auto bind = spec.bind(spec.hidden_for_params(1e9), 128);
  const double io = spec.graph->algorithmic_io().eval(bind);
  const double bytes = spec.graph->total_bytes_accessed().eval(bind);
  EXPECT_LT(io, 1e-3 * bytes);
}

}  // namespace
}  // namespace gf::models
