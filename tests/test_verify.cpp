// Static-analysis (verify) subsystem tests: the collect-all engine, each
// built-in pass's negative paths (mutated graphs produce diagnostics, not
// crashes), the throwing entry point, corrupted serialized graphs, the
// executor's opt-in pre-dispatch hook, and the headline race checker —
// including the "deleted WAR edge" scenario the pass exists to catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/ir/gradients.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"
#include "src/ir/serialize.h"
#include "src/runtime/executor.h"
#include "src/verify/pass.h"

namespace gf::verify {
namespace {

using ir::DataType;
using ir::Graph;
using ir::Op;
using ir::OpType;
using ir::Tensor;
using sym::Expr;

/// Small trainable MLP (concrete dims so the executor can run it too).
struct Mlp {
  Graph g{"mlp"};
  Tensor* x = nullptr;
  Tensor* w1 = nullptr;
  Tensor* loss = nullptr;

  Mlp() {
    x = g.add_input("x", {Expr(4), Expr(8)});
    Tensor* labels = g.add_input("labels", {Expr(4)}, DataType::kInt32);
    w1 = g.add_weight("w1", {Expr(8), Expr(16)});
    Tensor* w2 = g.add_weight("w2", {Expr(16), Expr(4)});
    Tensor* h = ir::relu(g, "relu", ir::matmul(g, "fc1", x, w1));
    Tensor* logits = ir::matmul(g, "fc2", h, w2);
    auto [per_row, probs] = ir::softmax_xent(g, "xent", logits, labels);
    (void)probs;
    loss = ir::reduce_mean(g, "loss", per_row);
  }
};

bool has_diag(const std::vector<Diagnostic>& diags, Severity sev,
              const std::string& pass, const std::string& needle) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.severity == sev && d.pass == pass &&
           (d.message.find(needle) != std::string::npos ||
            d.location.find(needle) != std::string::npos);
  });
}

// --- engine ----------------------------------------------------------------

TEST(VerifyEngine, CleanTrainingGraphHasNoFindings) {
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  const VerifyResult result = verify_graph(m.g);
  EXPECT_EQ(result.count(Severity::kError), 0u);
  EXPECT_EQ(result.count(Severity::kWarning), 0u);
  ASSERT_EQ(result.passes_run.size(), 11u);
  EXPECT_EQ(result.passes_run.front(), "structure");
  EXPECT_EQ(result.passes_run.back(), "equiv");
}

TEST(VerifyEngine, PassSelectionAndUnknownPass) {
  Mlp m;
  const VerifyResult result = verify_graph(m.g, {.passes = {"races", "structure"}});
  EXPECT_EQ(result.passes_run, (std::vector<std::string>{"races", "structure"}));
  EXPECT_THROW(verify_graph(m.g, {.passes = {"nonsense"}}), std::invalid_argument);
}

TEST(VerifyEngine, CollectsFindingsAcrossPasses) {
  // One mutation visible to shapes AND gradients: both report, neither
  // aborts the other — the collect-all contract.
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  m.w1->set_shape({Expr(8), Expr(15)});
  const VerifyResult result = verify_graph(m.g);
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "shapes", "fc1"));
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "gradients", "w1"));
}

TEST(VerifyEngine, JsonOutputIsWellFormedEnough) {
  // The mutation of CollectsFindingsAcrossPasses: diagnostics from two passes.
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  m.w1->set_shape({Expr(8), Expr(15)});
  const VerifyResult result = verify_graph(m.g);
  ASSERT_FALSE(result.diagnostics.empty());

  const util::Json json = util::Json::parse(result.to_json().dump());
  EXPECT_EQ(json.string_or("graph", ""), "mlp");
  const util::Json* passes = json.find("passes");
  ASSERT_NE(passes, nullptr);
  ASSERT_EQ(passes->items().size(), result.passes_run.size());
  for (std::size_t i = 0; i < result.passes_run.size(); ++i)
    EXPECT_EQ(passes->items()[i].as_string(), result.passes_run[i]);
  const util::Json* counts = json.find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->number_or("error", -1), result.count(Severity::kError));
  EXPECT_EQ(counts->number_or("warning", -1), result.count(Severity::kWarning));
  EXPECT_EQ(counts->number_or("note", -1), result.count(Severity::kNote));
  const util::Json* diags = json.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_EQ(diags->items().size(), result.diagnostics.size());
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    const util::Json& j = diags->items()[i];
    EXPECT_EQ(j.string_or("severity", ""), severity_name(d.severity)) << i;
    EXPECT_EQ(j.string_or("pass", ""), d.pass) << i;
    EXPECT_EQ(j.string_or("location", ""), d.location) << i;
    EXPECT_EQ(j.string_or("message", ""), d.message) << i;
    EXPECT_EQ(j.string_or("fix_hint", ""), d.fix_hint) << i;
  }
}

// --- validate_or_throw -----------------------------------------------------

TEST(ValidateOrThrow, ThrowsListingAllErrors) {
  Mlp m;
  m.g.make_tensor("orphan1", {Expr(2)}, DataType::kFloat32, ir::TensorRole::kActivation);
  m.g.make_tensor("orphan2", {Expr(3)}, DataType::kFloat32, ir::TensorRole::kActivation);
  try {
    validate_or_throw(m.g);
    FAIL() << "validate_or_throw() must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("orphan1"), std::string::npos);
    EXPECT_NE(what.find("orphan2"), std::string::npos);  // not just the first
  }
}

TEST(ValidateOrThrow, AcceptsCleanGraph) {
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  EXPECT_NO_THROW(validate_or_throw(m.g));
}

TEST(ValidateOrThrow, RunsOnlyTheSelectedPasses) {
  // A seeded defect only the range pass catches: the four passes a model
  // build runs let it through, the full suite (the default) throws.
  std::ifstream in(std::string(GF_TEST_DATA_DIR) + "/lint/range__scale_overflow.txt");
  ASSERT_TRUE(in.good());
  const std::unique_ptr<Graph> g = ir::deserialize(in, /*validate=*/false);
  EXPECT_NO_THROW(validate_or_throw(
      *g, {.passes = {"structure", "shapes", "symbolic", "gradients"}}));
  EXPECT_THROW(validate_or_throw(*g), std::logic_error);
  EXPECT_THROW(validate_or_throw(*g, {.passes = {"range"}}), std::logic_error);
}

// --- structure -------------------------------------------------------------

TEST(VerifyStructure, InconsistentWiringCycleIsDiagnosedNotFatal) {
  Mlp m;
  // Claim the graph input is produced by the loss op: creates a cycle and
  // a producer/output inconsistency. verify_graph must survive both.
  const Op* loss_op = m.loss->producer();
  m.x->set_producer(loss_op);
  VerifyResult result;
  ASSERT_NO_THROW(result = verify_graph(m.g));
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "structure", "cycle"));
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "structure",
                       "does not list it as an output"));
  // The race pass cannot topo-sort a cyclic graph; that is a finding too.
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "races", "scheduler DAG"));
}

TEST(VerifyStructure, TensorsOnlyGraphWarnsAboutTruncation) {
  Graph g("stub");
  g.add_weight("w", {Expr(3)});
  const VerifyResult result = verify_graph(g);
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kWarning, "structure", "no ops"));
}

// --- shapes ----------------------------------------------------------------

TEST(VerifyShapes, MutatedWeightShapeIsCaught) {
  Mlp m;
  m.w1->set_shape({Expr(9), Expr(16)});  // fc1 contraction dim now 8 vs 9
  const VerifyResult result = verify_graph(m.g, {.passes = {"shapes"}});
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "shapes", "fc1"));
}

TEST(VerifyShapes, MutatedReshapeElementCountIsCaught) {
  Graph g("reshape");
  Tensor* x = g.add_input("x", {Expr(4), Expr(6)});
  Tensor* y = ir::reshape(g, "flat", x, {Expr(24)});
  y->set_shape({Expr(23)});
  const VerifyResult result = verify_graph(g, {.passes = {"shapes"}});
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "shapes", "element count"));
}

// --- symbolic --------------------------------------------------------------

TEST(VerifySymbolic, NonPositiveDimensionIsAnError) {
  Graph g("dims");
  const Expr h = Expr::symbol("h");
  g.add_weight("w", {h, h - h});  // second dim is provably 0
  const VerifyResult result = verify_graph(g, {.passes = {"symbolic"}});
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "symbolic",
                       "provably non-positive"));
}

TEST(VerifySymbolic, UnprovableDimensionIsAWarning) {
  Graph g("dims");
  const Expr h = Expr::symbol("h");
  g.add_weight("w", {h - Expr(1)});  // h > 0 does not make h-1 positive
  const VerifyResult result = verify_graph(g, {.passes = {"symbolic"}});
  EXPECT_EQ(result.count(Severity::kError), 0u);
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kWarning, "symbolic",
                       "cannot prove"));
}

// --- gradients -------------------------------------------------------------

TEST(VerifyGradients, WeightWithoutUpdateIsCaught) {
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  m.g.add_weight("w_dead", {Expr(5)});
  const VerifyResult result = verify_graph(m.g, {.passes = {"gradients"}});
  EXPECT_TRUE(has_diag(result.diagnostics, Severity::kError, "gradients", "w_dead"));
}

TEST(VerifyGradients, ForwardOnlyGraphIsExempt) {
  Mlp m;  // weights but no ApplyGradient ops: inference graph, not broken
  const VerifyResult result = verify_graph(m.g, {.passes = {"gradients"}});
  EXPECT_EQ(result.diagnostics.size(), 0u);
}

// --- races -----------------------------------------------------------------

/// Training graph plus a "probe" op that reads w1 but whose result never
/// reaches the loss: the probe's only ordering against the weight update
/// is the WAR hazard edge itself (no transitive path via the gradient
/// chain), so deleting that edge is a real, detectable schedule race.
struct ProbedMlp {
  Mlp m;
  std::string update_name;

  ProbedMlp() {
    ir::relu(m.g, "probe", m.w1);
    ir::build_training_step(m.g, m.loss);
    update_name = "update_w1";
  }
};

TEST(VerifyRaces, IntactTrainingGraphIsRaceFree) {
  ProbedMlp p;
  const ir::OpDag dag = ir::build_op_dag(p.m.g);
  EXPECT_TRUE(check_races(p.m.g, dag).empty());
  const VerifyResult result = verify_graph(p.m.g, {.passes = {"races"}});
  EXPECT_EQ(result.count(Severity::kError), 0u);
}

TEST(VerifyRaces, DeletedWarEdgeIsReported) {
  ProbedMlp p;
  ir::OpDag dag = ir::build_op_dag(p.m.g);
  std::size_t probe = dag.order.size(), update = dag.order.size();
  for (std::size_t i = 0; i < dag.order.size(); ++i) {
    if (dag.order[i]->name() == "probe") probe = i;
    if (dag.order[i]->name() == p.update_name) update = i;
  }
  ASSERT_LT(probe, dag.order.size());
  ASSERT_LT(update, dag.order.size());
  auto& succ = dag.successors[probe];
  ASSERT_TRUE(std::binary_search(succ.begin(), succ.end(), update))
      << "probe -> update must be a direct WAR edge";

  // Delete the hazard edge, as a buggy DAG builder would.
  succ.erase(std::find(succ.begin(), succ.end(), update));
  --dag.predecessor_count[update];

  const std::vector<Diagnostic> races = check_races(p.m.g, dag);
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].severity, Severity::kError);
  EXPECT_EQ(races[0].pass, "races");
  EXPECT_EQ(races[0].location, "tensor 'w1'");
  EXPECT_NE(races[0].message.find("'probe' (reads)"), std::string::npos);
  EXPECT_NE(races[0].message.find("'update_w1' (updates in place)"),
            std::string::npos);
  EXPECT_NE(races[0].message.find("unordered"), std::string::npos);
}

TEST(VerifyRaces, TransitivelyOrderedPairIsNotARace) {
  // fc1 reads w1 and update_w1 writes it; besides the direct WAR edge
  // there is a transitive path through the gradient chain. Deleting only
  // the direct edge must NOT produce a finding.
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  ir::OpDag dag = ir::build_op_dag(m.g);
  std::size_t fc1 = dag.order.size(), update = dag.order.size();
  for (std::size_t i = 0; i < dag.order.size(); ++i) {
    if (dag.order[i]->name() == "fc1") fc1 = i;
    if (dag.order[i]->name() == "update_w1") update = i;
  }
  ASSERT_LT(fc1, dag.order.size());
  ASSERT_LT(update, dag.order.size());
  auto& succ = dag.successors[fc1];
  auto it = std::find(succ.begin(), succ.end(), update);
  if (it != succ.end()) {
    succ.erase(it);
    --dag.predecessor_count[update];
  }
  EXPECT_TRUE(check_races(m.g, dag).empty());
}

// --- serialized graphs -----------------------------------------------------

TEST(VerifySerialized, GarbageFileYieldsLoadDiagnostic) {
  std::istringstream is("this is not a graph\n");
  const VerifyResult result = verify_serialized(is);
  EXPECT_EQ(result.passes_run, std::vector<std::string>{"load"});
  EXPECT_TRUE(result.has_errors());
  EXPECT_EQ(result.diagnostics.at(0).pass, "load");
}

TEST(VerifySerialized, TruncatedMidLineYieldsLoadDiagnostic) {
  Mlp m;
  const std::string text = ir::serialize(m.g);
  std::istringstream is(text.substr(0, text.size() / 2));
  const VerifyResult result = verify_serialized(is);
  // Either the cut line fails to parse (load error) or the prefix parses
  // and the structure pass flags the dangling remainder; never a crash,
  // never silently clean.
  EXPECT_GT(result.diagnostics.size(), 0u);
}

TEST(VerifySerialized, IntactRoundTripIsClean) {
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  std::istringstream is(ir::serialize(m.g));
  const VerifyResult result = verify_serialized(is);
  EXPECT_EQ(result.count(Severity::kError), 0u);
  EXPECT_EQ(result.graph_name, "mlp");
}

// --- executor hook ---------------------------------------------------------

TEST(VerifyExecutorHook, CleanGraphConstructs) {
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  rt::ExecutorOptions opt;
  opt.verify = true;
  rt::Executor ex(m.g, {}, opt);
  EXPECT_NO_THROW(ex.run_step());
}

TEST(VerifyExecutorHook, BrokenGraphIsRejectedBeforeDispatch) {
  Mlp m;
  ir::build_training_step(m.g, m.loss);
  m.g.make_tensor("orphan", {Expr(2)}, DataType::kFloat32, ir::TensorRole::kActivation);
  rt::ExecutorOptions opt;
  opt.verify = true;
  EXPECT_THROW(rt::Executor(m.g, {}, opt), std::logic_error);
  opt.verify = false;  // hook is opt-in: without it construction proceeds
  EXPECT_NO_THROW(rt::Executor(m.g, {}, opt));
}

}  // namespace
}  // namespace gf::verify
