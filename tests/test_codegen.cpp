// Codegen subsystem tests: the CPU feature probe and register-tile rule,
// forced-ISA dispatch resolution, the lowering pass (DCE, identity
// forwarding, load dedup, alpha slots, translation validation against
// ir::fused_program_semantics on every built-in model), the compiled
// fused-pointwise executors (bitwise on exact-IEEE programs,
// epsilon-bounded through the polynomial sigmoid/tanh, thread-count
// invariant, special-value semantics), the register-tiled GEMM
// micro-kernel (bitwise vs the scalar seed tile), executor integration
// (every fused op of every built-in model runs compiled; the interpreter
// serves only programs wider than the load slots, bitwise and
// thread-count invariant), and kernel-class tagging through the profiler
// and the Chrome-trace round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/concurrency/thread_pool.h"
#include "src/hw/cpu_features.h"
#include "src/ir/fusion.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"
#include "src/ir/semantics.h"
#include "src/ir/serialize.h"
#include "src/models/models.h"
#include "src/runtime/codegen/dispatch.h"
#include "src/runtime/codegen/lowering.h"
#include "src/runtime/executor.h"
#include "src/runtime/gemm.h"
#include "src/runtime/kernels.h"
#include "src/whatif/trace.h"

namespace gf {
namespace {

using ir::FusedInstr;
using ir::PointwiseFn;
using hw::SimdIsa;

// --- feature probe and register-tile rule -----------------------------------

TEST(CpuFeatures, GenericAlwaysSupported) {
  EXPECT_TRUE(hw::isa_supported(SimdIsa::kGeneric));
  EXPECT_TRUE(hw::isa_supported(hw::best_simd_isa()));
  EXPECT_GE(hw::cpu_features().max_vector_width_floats, 4);
}

TEST(CpuFeatures, RegisterTileRuleMatchesVectorGeometry) {
  // Derived tiles: (regs - 4) / (2 * nr / width) clamped to [4, 8].
  EXPECT_EQ(hw::register_tile_rule(SimdIsa::kGeneric).mr, 6);
  EXPECT_EQ(hw::register_tile_rule(SimdIsa::kGeneric).nr, 8);
  EXPECT_EQ(hw::register_tile_rule(SimdIsa::kAvx2).mr, 6);
  EXPECT_EQ(hw::register_tile_rule(SimdIsa::kAvx2).nr, 8);
  EXPECT_EQ(hw::register_tile_rule(SimdIsa::kAvx512).mr, 8);
  EXPECT_EQ(hw::register_tile_rule(SimdIsa::kAvx512).nr, 16);
  EXPECT_EQ(hw::register_tile_rule(SimdIsa::kNeon).mr, 7);
  EXPECT_EQ(hw::register_tile_rule(SimdIsa::kNeon).nr, 8);
  for (const SimdIsa isa :
       {SimdIsa::kGeneric, SimdIsa::kAvx2, SimdIsa::kAvx512, SimdIsa::kNeon}) {
    const hw::RegisterTile tile = hw::register_tile_rule(isa);
    EXPECT_EQ(tile.nr % hw::simd_width_floats(isa), 0) << hw::simd_isa_name(isa);
    EXPECT_GE(tile.mr, 4);
    EXPECT_LE(tile.mr, 8);
  }
}

// --- dispatch ---------------------------------------------------------------

std::vector<SimdIsa> supported_compiled_isas() {
  std::vector<SimdIsa> isas;
  for (const SimdIsa isa :
       {SimdIsa::kGeneric, SimdIsa::kAvx2, SimdIsa::kAvx512, SimdIsa::kNeon})
    if (hw::isa_supported(isa)) isas.push_back(isa);
  return isas;
}

/// Restores the process-global forced-ISA override after each test.
class DispatchTest : public ::testing::Test {
 protected:
  void TearDown() override { rt::codegen::set_forced_isa(std::nullopt); }
};

TEST_F(DispatchTest, ForcedIsaControlsActiveIsa) {
  EXPECT_EQ(rt::codegen::active_isa(), hw::best_simd_isa());
  for (const SimdIsa isa :
       {SimdIsa::kGeneric, SimdIsa::kAvx2, SimdIsa::kAvx512, SimdIsa::kNeon}) {
    rt::codegen::set_forced_isa(isa);
    if (hw::isa_supported(isa)) {
      EXPECT_EQ(rt::codegen::active_isa(), isa) << hw::simd_isa_name(isa);
    } else {  // never SIGILL: an unsupported request degrades to the best ISA
      EXPECT_EQ(rt::codegen::active_isa(), hw::best_simd_isa())
          << hw::simd_isa_name(isa);
    }
  }
  rt::codegen::set_forced_isa(std::nullopt);
  EXPECT_EQ(rt::codegen::active_isa(), hw::best_simd_isa());
}

TEST_F(DispatchTest, ResolveIsaNeverYieldsUnsupported) {
  for (const SimdIsa isa :
       {SimdIsa::kGeneric, SimdIsa::kAvx2, SimdIsa::kAvx512, SimdIsa::kNeon}) {
    const SimdIsa resolved = rt::codegen::resolve_isa(isa);
    EXPECT_TRUE(hw::isa_supported(resolved));
    if (hw::isa_supported(isa)) {
      EXPECT_EQ(resolved, isa);
    }
  }
}

TEST_F(DispatchTest, GemmMicroKernelRefusesMismatchedTiles) {
  std::vector<float> a(8 * 4, 1.0f), b(8 * 16, 1.0f);
  std::vector<float> acc(8 * 16, 0.0f);
  // No compiled kernel takes the seed tile, so a tiling packed for it
  // always runs blocked_gemm's scalar micro-kernel (the oracle).
  for (const SimdIsa isa : supported_compiled_isas())
    EXPECT_FALSE(rt::codegen::gemm_micro_kernel(isa, a.data(), b.data(), 4,
                                                acc.data(), rt::kGemmMr, rt::kGemmNr))
        << hw::simd_isa_name(isa);
  // A supported ISA with the WRONG tile must refuse, not corrupt.
  const SimdIsa best = hw::best_simd_isa();
  const hw::RegisterTile tile = rt::codegen::gemm_register_tile(best);
  EXPECT_FALSE(rt::codegen::gemm_micro_kernel(best, a.data(), b.data(), 4,
                                              acc.data(), tile.mr + 1, tile.nr));
}

TEST_F(DispatchTest, DefaultGemmTilingFollowsActiveIsa) {
  for (const SimdIsa isa : supported_compiled_isas()) {
    rt::codegen::set_forced_isa(isa);
    const hw::RegisterTile tile = hw::register_tile_rule(isa);
    EXPECT_EQ(rt::default_gemm_tiling().mr, tile.mr) << hw::simd_isa_name(isa);
    EXPECT_EQ(rt::default_gemm_tiling().nr, tile.nr) << hw::simd_isa_name(isa);
    // Cache blocks stay multiples of the register tile.
    EXPECT_EQ(rt::default_gemm_tiling().mc % tile.mr, 0);
    EXPECT_EQ(rt::default_gemm_tiling().nc % tile.nr, 0);
  }
}

// --- lowering ---------------------------------------------------------------

TEST(Lowering, DropsDeadAndIdentityInstructions) {
  // 2: dead sigmoid; 3: identity chain hop; result = relu(x0 + x1).
  const std::vector<FusedInstr> program = {
      {PointwiseFn::kAdd, {0, 1}},       // 2
      {PointwiseFn::kSigmoid, {0}},      // 3: dead
      {PointwiseFn::kIdentity, {2}},     // 4: forwards the add
      {PointwiseFn::kRelu, {4}},         // 5
  };
  const auto low = rt::codegen::lower_program(program, 2);
  ASSERT_EQ(low.body.size(), 2u);  // add + relu survive
  EXPECT_EQ(low.loads.size(), 2u);
  EXPECT_EQ(rt::codegen::lowered_program_semantics(low, program).str(),
            ir::fused_program_semantics(program, 2).str());
}

TEST(Lowering, PureIdentityLowersToBareLoad) {
  const std::vector<FusedInstr> program = {{PointwiseFn::kIdentity, {0}}};
  const auto low = rt::codegen::lower_program(program, 1);
  EXPECT_TRUE(low.body.empty());
  ASSERT_EQ(low.loads.size(), 1u);
  EXPECT_EQ(low.result, 0);
  EXPECT_EQ(rt::codegen::lowered_program_semantics(low, program).str(),
            ir::fused_program_semantics(program, 1).str());
}

TEST(Lowering, DedupsLoadsAndKeepsAlphaSlots) {
  // x0 read twice -> one load; kScale at source index 1 keeps that key.
  const std::vector<FusedInstr> program = {
      {PointwiseFn::kMul, {0, 0}},
      {PointwiseFn::kScale, {1}, sym::Expr(0.5)},
  };
  const auto low = rt::codegen::lower_program(program, 1);
  EXPECT_EQ(low.loads.size(), 1u);
  ASSERT_EQ(low.body.size(), 2u);
  EXPECT_EQ(low.body[0].alpha_slot, -1);
  EXPECT_EQ(low.body[1].alpha_slot, 1);
  EXPECT_EQ(rt::codegen::lowered_program_semantics(low, program).str(),
            ir::fused_program_semantics(program, 1).str());
}

TEST(Lowering, RejectsMalformedPrograms) {
  EXPECT_THROW(rt::codegen::lower_program({}, 1), std::invalid_argument);
  EXPECT_THROW(rt::codegen::lower_program({{PointwiseFn::kAdd, {0}}}, 1),
               std::invalid_argument);  // wrong arity
  EXPECT_THROW(rt::codegen::lower_program({{PointwiseFn::kRelu, {3}}}, 1),
               std::invalid_argument);  // operand out of range
}

/// All six built-in model families at toy sizes (test_fusion's set).
struct ModelCase {
  const char* name;
  models::ModelSpec spec;
  double hidden;
};

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

TEST(Lowering, TranslationValidatesOnAllBuiltinModels) {
  for (ModelCase& c : builtin_models()) {
    const auto fused = ir::clone_graph(*c.spec.graph);
    ir::fuse_graph(*fused);
    std::size_t checked = 0;
    for (const auto& op : fused->ops()) {
      if (op->type() != ir::OpType::kFusedPointwise) continue;
      const auto& f = static_cast<const ir::FusedPointwiseOp&>(*op);
      const auto low = rt::codegen::lower_program(f.program(), f.inputs().size());
      EXPECT_TRUE(rt::codegen::compilable(low)) << c.name << " " << f.name();
      EXPECT_EQ(rt::codegen::lowered_program_semantics(low, f.program()).str(),
                f.certificate())
          << c.name << " " << f.name();
      ++checked;
    }
    EXPECT_GT(checked, 0u) << c.name;
  }
}

// --- compiled kernels vs the interpreter ------------------------------------

std::vector<float> random_vec(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  std::uint32_t s = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    v[i] = static_cast<float>(s % 20011u) / 10005.5f - 1.0f;
  }
  return v;
}

struct FusedCase {
  std::vector<rt::DenseTensor> storage;
  std::vector<const rt::DenseTensor*> inputs;
  std::vector<float> alphas;

  FusedCase(const std::vector<std::int64_t>& elems,
            const std::vector<FusedInstr>& program) {
    storage.reserve(elems.size());
    for (std::size_t i = 0; i < elems.size(); ++i) {
      storage.emplace_back(std::vector<std::int64_t>{elems[i]},
                           ir::DataType::kFloat32);
      const auto v = random_vec(static_cast<std::size_t>(elems[i]),
                                static_cast<std::uint32_t>(91 + 3 * i));
      std::memcpy(storage.back().fdata(), v.data(), v.size() * sizeof(float));
    }
    for (const rt::DenseTensor& t : storage) inputs.push_back(&t);
    for (const FusedInstr& ins : program)
      alphas.push_back(static_cast<float>(ins.alpha.eval(sym::Bindings{})));
  }
};

std::vector<float> run_interp(const std::vector<FusedInstr>& program,
                              const FusedCase& c, std::int64_t n,
                              std::size_t threads) {
  conc::ThreadPool pool(threads);
  rt::DenseTensor out({n}, ir::DataType::kFloat32);
  rt::KernelStats stats;
  rt::fused_pointwise(program, c.inputs, c.alphas, out, pool, stats);
  return {out.fdata(), out.fdata() + n};
}

std::vector<float> run_simd(const std::vector<FusedInstr>& program,
                            const FusedCase& c, std::int64_t n,
                            std::size_t threads, SimdIsa isa) {
  conc::ThreadPool pool(threads);
  rt::DenseTensor out({n}, ir::DataType::kFloat32);
  rt::KernelStats stats;
  rt::fused_pointwise_simd(rt::codegen::lower_program(program, c.inputs.size()),
                           c.inputs, c.alphas, out, pool, stats, isa);
  return {out.fdata(), out.fdata() + n};
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double max_rel_err(const std::vector<float>& a, const std::vector<float>& b) {
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom = std::max(std::abs(static_cast<double>(b[i])), 1.0);
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) - b[i]) / denom);
  }
  return worst;
}

/// Exact-IEEE program touching every bitwise-guaranteed fn, with a rank-1
/// broadcast input (periodic loads) and a splat input (one element).
std::vector<FusedInstr> exact_program() {
  return {
      {PointwiseFn::kAddN, {0, 1, 2}},               // 4
      {PointwiseFn::kScale, {4}, sym::Expr(0.125)},  // 5
      {PointwiseFn::kRelu, {5}},                     // 6
      {PointwiseFn::kSub, {6, 0}},                   // 7
      {PointwiseFn::kMul, {7, 3}},                   // 8: splat input
      {PointwiseFn::kReluGrad, {6, 8}},              // 9
      {PointwiseFn::kSigmoidGrad, {9, 7}},           // 10
      {PointwiseFn::kTanhGrad, {10, 9}},             // 11
      {PointwiseFn::kOneMinus, {11}},                // 12
      {PointwiseFn::kAdd, {12, 1}},                  // 13
  };
}

TEST(CompiledPointwise, ExactOpsBitwiseEqualInterpreterAcrossIsasAndThreads) {
  // Ragged n: not a multiple of any vector width or of the 4096 block.
  const std::int64_t n = 2 * 4096 + 37;
  const std::vector<FusedInstr> program = exact_program();
  const FusedCase c({n, n, 64, 1}, program);
  const std::vector<float> want = run_interp(program, c, n, 1);
  for (const SimdIsa isa : supported_compiled_isas())
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}})
      EXPECT_TRUE(bitwise_equal(run_simd(program, c, n, threads, isa), want))
          << hw::simd_isa_name(isa) << " threads=" << threads;
}

TEST(CompiledPointwise, SigmoidTanhEpsilonBoundedAcrossIsas) {
  const std::int64_t n = 4096 + 111;
  const std::vector<FusedInstr> program = {
      {PointwiseFn::kSigmoid, {0}},  // 2
      {PointwiseFn::kTanh, {1}},     // 3
      {PointwiseFn::kMul, {2, 3}},   // 4
      {PointwiseFn::kTanh, {4}},     // 5
  };
  const FusedCase c({n, n}, program);
  const std::vector<float> want = run_interp(program, c, n, 1);
  for (const SimdIsa isa : supported_compiled_isas()) {
    const double err = max_rel_err(run_simd(program, c, n, 1, isa), want);
    EXPECT_LE(err, 1e-5) << hw::simd_isa_name(isa);
  }
}

TEST(CompiledPointwise, SpecialValuesMatchInterpreterSemantics) {
  const std::int64_t n = 64;
  const std::vector<FusedInstr> program = {{PointwiseFn::kSigmoid, {0}},
                                           {PointwiseFn::kTanh, {1}}};
  FusedCase c({n, n}, program);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float v : {inf, -inf, nan, 1e30f, -1e30f, 0.0f, -0.0f, 200.0f}) {
    c.storage[0].fdata()[0] = v;  // through sigmoid
    c.storage[1].fdata()[1] = v;  // through (outer) tanh
    const std::vector<float> want = run_interp(program, c, n, 1);
    for (const SimdIsa isa : supported_compiled_isas()) {
      const std::vector<float> got = run_simd(program, c, n, 1, isa);
      // NaN propagates; saturating values land within epsilon of the
      // interpreter's limit (0, 1, or ±1) — never UB, never garbage.
      EXPECT_EQ(std::isnan(got[0]), std::isnan(want[0]))
          << hw::simd_isa_name(isa) << " v=" << v;
      EXPECT_EQ(std::isnan(got[1]), std::isnan(want[1]))
          << hw::simd_isa_name(isa) << " v=" << v;
      EXPECT_LE(max_rel_err(got, want), 1e-5) << hw::simd_isa_name(isa) << " v=" << v;
    }
  }
}

TEST(CompiledPointwise, ThreadCountInvariantWithinEachIsa) {
  const std::int64_t n = 3 * 4096 + 1023;
  const std::vector<FusedInstr> program = {
      {PointwiseFn::kSigmoid, {0}},
      {PointwiseFn::kMul, {2, 1}},
      {PointwiseFn::kTanh, {3}},
  };
  const FusedCase c({n, 128}, program);
  for (const SimdIsa isa : supported_compiled_isas()) {
    const std::vector<float> want = run_simd(program, c, n, 1, isa);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}})
      EXPECT_TRUE(bitwise_equal(run_simd(program, c, n, threads, isa), want))
          << hw::simd_isa_name(isa) << " threads=" << threads;
  }
}

/// One kAddN over more external inputs than the vector executor has load
/// slots (FusedPointwiseOp::kMaxInputs, 96). No FusedPointwiseOp can carry
/// it; only a hand-lowered program reaches codegen this wide.
constexpr std::size_t kWideInputs = 100;

std::vector<FusedInstr> wide_add_program() {
  std::vector<int> args(kWideInputs);
  for (std::size_t i = 0; i < kWideInputs; ++i) args[i] = static_cast<int>(i);
  return {{PointwiseFn::kAddN, args}};
}

TEST(CompiledPointwise, RefusesOversizedLoadSets) {
  // run_lowered guards its fixed-size load-slot array.
  const std::vector<FusedInstr> program = wide_add_program();
  const auto low = rt::codegen::lower_program(program, kWideInputs);
  EXPECT_FALSE(rt::codegen::compilable(low));

  const std::int64_t n = 256;
  FusedCase c(std::vector<std::int64_t>(kWideInputs, n), program);
  conc::ThreadPool pool(1);
  rt::DenseTensor out({n}, ir::DataType::kFloat32);
  rt::KernelStats stats;
  EXPECT_THROW(rt::fused_pointwise_simd(low, c.inputs, c.alphas, out, pool, stats,
                                        hw::best_simd_isa()),
               std::invalid_argument);
}

// --- GEMM micro-kernel ------------------------------------------------------

TEST(GemmTileTest, CompiledMicroKernelBitwiseEqualsScalarTile) {
  conc::ThreadPool pool(2);
  struct Shape {
    std::int64_t m, n, k;
    bool ta, tb;
  };
  // Odd extents force ragged edge tiles through both micro-kernels. The
  // seed tiling runs the scalar micro-kernel; the default one the compiled
  // kernel of the active ISA.
  const rt::GemmTiling seed = rt::select_gemm_tiling(
      rt::kGemmModelCacheBytes, sizeof(float), {rt::kGemmMr, rt::kGemmNr});
  const std::vector<Shape> shapes = {
      {67, 35, 129, false, false},
      {64, 64, 64, true, false},
      {33, 130, 47, false, true},
  };
  for (const Shape& s : shapes) {
    const auto a = random_vec(static_cast<std::size_t>(s.m * s.k), 3);
    const auto b = random_vec(static_cast<std::size_t>(s.k * s.n), 5);
    std::vector<float> c_scalar(static_cast<std::size_t>(s.m * s.n));
    std::vector<float> c_simd(c_scalar.size());

    rt::blocked_gemm(a.data(), b.data(), c_scalar.data(), 1, s.m, s.n, s.k, s.ta,
                     s.tb, 0, 0, 0, seed, pool);
    rt::blocked_gemm(a.data(), b.data(), c_simd.data(), 1, s.m, s.n, s.k, s.ta,
                     s.tb, 0, 0, 0, rt::default_gemm_tiling(), pool);
    EXPECT_TRUE(bitwise_equal(c_scalar, c_simd))
        << s.m << "x" << s.n << "x" << s.k << " ta=" << s.ta << " tb=" << s.tb;
  }
}

// --- executor integration ---------------------------------------------------

TEST(SimdExecutor, TimelineTagsKernelClassByServingPath) {
  // Every program fusion forms fits the vector executor's load slots, so
  // every fused op of every built-in model runs compiled.
  for (ModelCase& c : builtin_models()) {
    conc::ThreadPool pool(2);
    rt::ExecutorOptions opt;
    opt.pool = &pool;
    opt.fuse = true;
    rt::Executor ex(*c.spec.graph, c.spec.bind(c.hidden, 2), opt);
    const whatif::Trace trace = whatif::from_report(ex.run_step());
    std::size_t fused_ops = 0;
    for (const whatif::TraceOp& op : trace.ops) {
      if (op.type != "FusedPointwise") continue;
      ++fused_ops;
      EXPECT_EQ(op.kernel_class, "pointwise-simd") << c.name << " " << op.name;
    }
    EXPECT_GT(fused_ops, 0u) << c.name;
  }
}

TEST(SimdExecutor, ChromeTraceRoundTripPreservesKernelClass) {
  ModelCase c = builtin_models().front();
  conc::ThreadPool pool(1);
  rt::ExecutorOptions opt;
  opt.pool = &pool;
  opt.fuse = true;
  rt::Executor ex(*c.spec.graph, c.spec.bind(c.hidden, 2), opt);
  const rt::ProfileReport report = ex.run_step();

  std::stringstream ss;
  report.write_chrome_trace(ss);
  const whatif::Trace loaded = whatif::load_trace(ss);
  const whatif::Trace direct = whatif::from_report(report);
  ASSERT_EQ(loaded.ops.size(), direct.ops.size());
  std::size_t tagged = 0;
  for (std::size_t i = 0; i < loaded.ops.size(); ++i) {
    EXPECT_EQ(loaded.ops[i].kernel_class, direct.ops[i].kernel_class)
        << direct.ops[i].name;
    if (!loaded.ops[i].kernel_class.empty()) ++tagged;
  }
  EXPECT_GT(tagged, 0u);
}

}  // namespace
}  // namespace gf
