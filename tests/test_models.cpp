// Model-family tests: parameter formulas, FLOP asymptotes against the
// paper's Table 2 constants, and structural sanity of every builder.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "src/ir/footprint.h"
#include "src/ir/fusion.h"
#include "src/models/models.h"
#include "src/verify/pass.h"

namespace gf::models {
namespace {

using sym::Bindings;
using sym::Expr;

double flops_per_param_per_sample(const ModelSpec& spec, double hidden, double batch) {
  const auto bind = spec.bind(hidden, batch);
  return spec.graph->total_flops().eval(bind) / (spec.params_at(hidden) * batch);
}

TEST(WordLm, ParameterFormulaMatchesPaper) {
  // p = 8 h^2 l + 2 h v (+ small biases) for the unprojected LSTM LM.
  const WordLmConfig cfg;
  const ModelSpec spec = build_word_lm(cfg);
  const double h = 2048;
  const double expected = 8.0 * h * h * cfg.layers + 2.0 * h * cfg.vocab;
  const double actual = spec.params_at(h);
  EXPECT_NEAR(actual, expected, 0.01 * expected);  // biases etc. are < 1%
}

TEST(WordLm, FlopAsymptoteIs6qPerParam) {
  // The paper's Table 2: 481 FLOPs/param/sample with q = 80 unroll steps
  // (fwd 2q over recurrent weights, x3 with backward = 6q = 480).
  // The 100K-word embedding keeps the ratio below the asymptote until the
  // recurrent weights dwarf it (the paper notes the same pre-asymptotic
  // effect for large-vocabulary models), so probe deep into the h^2 regime.
  const ModelSpec spec = build_word_lm();
  const double big_h = spec.hidden_for_params(3e11);
  const double ratio = flops_per_param_per_sample(spec, big_h, 16);
  EXPECT_NEAR(ratio, 481.0, 0.05 * 481.0);
}

TEST(WordLm, ProjectionCutsPerStepFlopsAtLargeVocab) {
  // §6.1: with the case-study's large vocabulary, projecting the last
  // hidden layer shrinks the dominant (h x V) output matmul, cutting
  // per-step FLOPs at the same width.
  WordLmConfig plain_cfg;
  plain_cfg.vocab = 800000;
  WordLmConfig proj_cfg = plain_cfg;
  proj_cfg.projection = true;
  const ModelSpec plain = build_word_lm(plain_cfg);
  const ModelSpec projected = build_word_lm(proj_cfg);
  const double h = 8192, b = 128;
  const double f_plain = plain.graph->total_flops().eval(plain.bind(h, b));
  const double f_proj = projected.graph->total_flops().eval(projected.bind(h, b));
  EXPECT_LT(f_proj, 0.5 * f_plain);
}

TEST(CharLm, FlopAsymptoteIs6qPerParam) {
  // Table 2: 900 FLOPs/param/sample with q = 150 (6q = 900).
  const ModelSpec spec = build_char_lm();
  const double big_h = spec.hidden_for_params(1e10);
  const double ratio = flops_per_param_per_sample(spec, big_h, 16);
  EXPECT_NEAR(ratio, 900.0, 0.05 * 900.0);
}

TEST(CharLm, EmbeddingIsSmallFractionOfWeights) {
  const CharLmConfig cfg;
  const ModelSpec spec = build_char_lm(cfg);
  const double h = 1000;
  // vocab*h (embedding) + h*vocab (output) vs 22 h^2 recurrent weights.
  const double embed_fraction = 2.0 * cfg.vocab * h / spec.params_at(h);
  EXPECT_LT(embed_fraction, 0.02);
}

TEST(Nmt, FlopAsymptoteNearPaper) {
  // Table 2: 149 FLOPs/param/sample with 25-step encoder/decoder.
  const ModelSpec spec = build_nmt();
  const double big_h = spec.hidden_for_params(5e10);
  const double ratio = flops_per_param_per_sample(spec, big_h, 16);
  EXPECT_NEAR(ratio, 149.0, 0.10 * 149.0);
}

TEST(Speech, FlopAsymptoteNearPaper) {
  // Table 2: 775 FLOPs/param/sample (300-step pyramidal encoder).
  const ModelSpec spec = build_speech();
  const double big_h = spec.hidden_for_params(1e10);
  const double ratio = flops_per_param_per_sample(spec, big_h, 16);
  EXPECT_NEAR(ratio, 775.0, 0.10 * 775.0);
}

TEST(Speech, EncoderPoolingShrinksTime) {
  SpeechConfig cfg;
  cfg.audio_frames = 80;
  cfg.encoder_layers = 3;
  cfg.decoder_length = 10;
  const ModelSpec spec = build_speech(cfg);
  // Pooled twice: attention runs over 80/4 = 20 encoder states. Indirectly
  // verified: building succeeds and validates (split arithmetic checks).
  EXPECT_NO_THROW(verify::validate_or_throw(*spec.graph));
}

TEST(Speech, RejectsNonDivisibleFrames) {
  SpeechConfig cfg;
  cfg.audio_frames = 301;
  EXPECT_THROW(build_speech(cfg), std::invalid_argument);
}

TEST(ResNet, FlopAsymptoteNearPaper) {
  // Table 2: 1111 FLOPs/param/sample for 224x224 classifiers; dominated by
  // 6 * (output spatial size) over the parameter-heavy stages.
  const ModelSpec spec = build_resnet();
  const double big_h = spec.hidden_for_params(5e9);
  const double ratio = flops_per_param_per_sample(spec, big_h, 16);
  EXPECT_NEAR(ratio, 1111.0, 0.25 * 1111.0);
}

TEST(ResNet, StandardWidthParamCountIsSane) {
  // ResNet-50 at h=64 has ~25.6M parameters.
  const ModelSpec spec = build_resnet();
  EXPECT_NEAR(spec.params_at(64), 25.6e6, 2e6);
}

TEST(ResNet, DepthsBuildAndGrow) {
  double prev = 0.0;
  for (int depth : {18, 34, 50, 101, 152}) {
    ResNetConfig cfg;
    cfg.depth = depth;
    const ModelSpec spec = build_resnet(cfg);
    const double p = spec.params_at(64);
    EXPECT_GT(p, 0.0);
    if (depth > 50) {
      EXPECT_GT(p, prev);  // deeper bottleneck nets are bigger
    }
    prev = p;
  }
  ResNetConfig bad;
  bad.depth = 77;
  EXPECT_THROW(build_resnet(bad), std::invalid_argument);
}

TEST(AllDomains, HiddenForParamsInvertsParams) {
  for (const ModelSpec& spec : build_all_domains()) {
    for (double target : {1e8, 1e9, 2e10}) {
      const double h = spec.hidden_for_params(target);
      EXPECT_NEAR(spec.params_at(h), target, 1e-6 * target) << spec.name;
    }
  }
}

TEST(AllDomains, FlopsLinearInBatch) {
  for (const ModelSpec& spec : build_all_domains()) {
    const Expr flops = spec.graph->total_flops();
    const double h = spec.hidden_for_params(3e8);
    const double f32 = flops.eval(spec.bind(h, 32));
    const double f256 = flops.eval(spec.bind(h, 256));
    // Weight-update terms are batch-independent, so slope is sub-8x but
    // must be within a few percent of linear for real configurations.
    EXPECT_GT(f256 / f32, 7.0) << spec.name;
    EXPECT_LE(f256 / f32, 8.0 + 1e-9) << spec.name;
  }
}

TEST(AllDomains, BytesGrowSublinearlyInBatch) {
  for (const ModelSpec& spec : build_all_domains()) {
    const Expr bytes = spec.graph->total_bytes_accessed();
    const double h = spec.hidden_for_params(3e8);
    const double a32 = bytes.eval(spec.bind(h, 32));
    const double a256 = bytes.eval(spec.bind(h, 256));
    EXPECT_GT(a256, a32) << spec.name;
    EXPECT_LT(a256 / a32, 8.0) << spec.name;  // the λp term does not scale
  }
}

TEST(AllDomains, FootprintHasPersistentFloor) {
  for (const ModelSpec& spec : build_all_domains()) {
    const double h = spec.hidden_for_params(2e8);
    const auto fp = ir::minimal_footprint(*spec.graph, spec.bind(h, 4));
    // SGD training: weights + gradients = 8 bytes/param persistent.
    EXPECT_NEAR(fp.persistent_bytes, 8.0 * spec.params_at(h),
                0.001 * fp.persistent_bytes)
        << spec.name;
    EXPECT_GT(fp.peak_transient_bytes, 0.0) << spec.name;
  }
}

TEST(AllDomains, GraphsValidate) {
  for (const ModelSpec& spec : build_all_domains())
    EXPECT_NO_THROW(verify::validate_or_throw(*spec.graph)) << spec.name;
}

TEST(ModelBuild, SymbolicPassRejectsZeroSizes) {
  // Construction checks none of these sizes. The symbolic pass, one of the
  // four passes every build runs, proves a dim non-positive (or a ratio
  // negative), so the build throws instead of yielding a degenerate model.
  const std::vector<std::pair<std::string, std::function<ModelSpec()>>> cases = {
      {"word LM, vocab 0",
       [] { return build_word_lm({.vocab = 0, .layers = 1, .seq_length = 3}); }},
      {"char LM, vocab 0",
       [] { return build_char_lm({.vocab = 0, .depth = 2, .seq_length = 3}); }},
      {"NMT, source vocab 0",
       [] {
         return build_nmt({.vocab_src = 0, .vocab_tgt = 30, .src_length = 3, .tgt_length = 3,
                           .decoder_layers = 1});
       }},
      {"speech, vocab 0",
       [] {
         return build_speech({.audio_frames = 8, .feature_dim = 4, .encoder_layers = 2,
                              .decoder_length = 3, .vocab = 0});
       }},
      {"transformer, vocab 0",
       [] { return build_transformer_lm({.vocab = 0, .layers = 1, .seq_length = 4}); }},
      {"ResNet, 0 classes",
       [] { return build_resnet({.depth = 18, .image_size = 32, .classes = 0}); }},
      {"projected word LM, ratio 0",
       [] {
         return build_word_lm({.vocab = 50, .layers = 2, .seq_length = 3, .projection = true,
                               .projection_ratio = 0});
       }},
      {"projected word LM, ratio -1",
       [] {
         return build_word_lm({.vocab = 50, .layers = 2, .seq_length = 3, .projection = true,
                               .projection_ratio = -1});
       }},
  };
  for (const auto& [what, build] : cases) {
    try {
      build();
      ADD_FAILURE() << what << ": built";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("error[symbolic]"), std::string::npos)
          << what << ": " << e.what();
    }
  }
}

TEST(BuilderFeatures, FullSuiteCleanFusedAndUnfused) {
  // Builds run four verify passes, and the full suite runs over the
  // default models elsewhere. This runs it, unfused and fused, over the
  // builder features no default model uses, at toy sizes.
  std::vector<std::pair<std::string, std::function<ModelSpec()>>> builds = {
      {"GRU word LM",
       [] {
         return build_word_lm(
             {.vocab = 50, .layers = 2, .seq_length = 3, .cell = RecurrentCell::kGRU});
       }},
      {"projected word LM",
       [] {
         return build_word_lm({.vocab = 50, .layers = 2, .seq_length = 3, .projection = true});
       }},
  };
  for (const ir::Optimizer optimizer : {ir::Optimizer::kMomentum, ir::Optimizer::kAdam})
    builds.emplace_back(
        optimizer == ir::Optimizer::kAdam ? "Adam word LM" : "Momentum word LM", [optimizer] {
          WordLmConfig cfg{.vocab = 50, .layers = 1, .seq_length = 3};
          cfg.training.optimizer = optimizer;
          return build_word_lm(cfg);
        });
  for (const int depth : {18, 34, 101, 152})
    builds.emplace_back("ResNet-" + std::to_string(depth), [depth] {
      return build_resnet({.depth = depth, .image_size = 32, .classes = 10});
    });

  for (const bool fuse : {false, true}) {
    for (const auto& [what, build] : builds) {
      const ModelSpec spec = build();
      if (fuse) ir::fuse_graph(*spec.graph);
      const verify::VerifyResult r = verify::verify_graph(*spec.graph);
      std::string findings;
      for (const verify::Diagnostic& d : r.diagnostics)
        if (d.severity != verify::Severity::kNote) findings += "\n  " + d.str();
      EXPECT_TRUE(findings.empty()) << what << (fuse ? " (fused)" : "") << findings;
    }
  }
}

TEST(AllDomains, ParamsDependOnlyOnHidden) {
  for (const ModelSpec& spec : build_all_domains()) {
    const auto syms = spec.params.free_symbols();
    EXPECT_EQ(syms, std::set<std::string>{kHiddenSymbol}) << spec.name;
  }
}

}  // namespace
}  // namespace gf::models
