// Static-analysis pass framework over ir::Graph.
//
// The paper's whole pipeline trusts the compute graph: algorithmic
// FLOPs / bytes / footprint are derived from graph structure, so a
// malformed or mis-annotated graph silently corrupts every downstream
// table, and the wavefront executor additionally trusts the op DAG's
// hazard edges for correctness. This module proves those properties
// statically: a registry of diagnostic passes runs over a graph and
// collects *all* findings instead of throwing at the first.
//
// Built-in suite (registration order):
//   structure  — wiring: cycles, dangling tensors, orphan ops, dup names
//   shapes     — per-op shape/dim contracts re-derived from the inputs
//   symbolic   — dims provably positive, FLOP/byte formulas non-negative
//   gradients  — every trainable weight gets one matching-shape update
//   races      — no unordered op pair may touch the same buffer with a
//                write (proves every wavefront schedule race-free)
//   memplan    — the static memory plan is sound: disjoint slab
//                intervals, race-checker-justified in-place aliases,
//                forward reuse edges
//   fusion     — fused ops are cost-transparent: programs connected and
//                internally single-consumer, FLOPs conserved, byte
//                formulas counting only surviving tensors
//   range      — interval abstract interpretation proves numerical
//                stability: no reachable NaN/Inf into softmax, no scale
//                coefficient that can blow up, no proven dtype overflow
//   deadcode   — backward demand: every op's results can reach a weight
//                update or a marked graph output
//   cost-audit — every op's claimed FLOPs/bytes re-derived from abstract
//                shapes by an independent copy of the cost model
//   equiv      — translation validation: each fused program is
//                symbolically equivalent to its rewrite certificate, and
//                memory-plan aliases respect re-derived liveness
//
// The last four are built on the generic dataflow engine in
// src/verify/dataflow.h (lattice + per-op transfer functions iterated to
// a fixpoint); see DESIGN.md for a guide to writing new passes.
//
// Entry points: verify_graph() for structured diagnostics (gfctl lint,
// serve's lint kind, the executor's debug hook); validate_or_throw() where
// a finding must abort, with the full suite on ir::deserialize's untrusted
// input and only the four cheap passes on every model build.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/graph.h"
#include "src/verify/diagnostics.h"

namespace gf::rt {
struct MemoryPlan;  // src/runtime/memplan.h
}

namespace gf::verify {

struct VerifyOptions {
  /// Pass names to run; empty means every registered pass, in
  /// registration order. Unknown names throw std::invalid_argument.
  std::vector<std::string> passes;
};

class Pass {
 public:
  virtual ~Pass() = default;

  virtual const char* name() const = 0;
  virtual const char* description() const = 0;

  /// Appends findings for `graph`. Passes must tolerate arbitrarily
  /// malformed graphs without throwing; the engine converts escaping
  /// exceptions into an error diagnostic as a backstop.
  virtual void run(const ir::Graph& graph, std::vector<Diagnostic>& out) const = 0;
};

/// Process-wide pass registry, seeded with the built-in suite on first
/// use. add() is not thread-safe; register custom passes at startup.
class PassRegistry {
 public:
  static PassRegistry& instance();

  void add(std::unique_ptr<Pass> pass);
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }
  const Pass* find(const std::string& name) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Runs the selected passes and collects every diagnostic.
VerifyResult verify_graph(const ir::Graph& graph, const VerifyOptions& options = {});

/// Runs the selected passes (every pass by default) and throws
/// std::logic_error describing the error-severity diagnostics (all of
/// them, not just the first).
void validate_or_throw(const ir::Graph& graph, const VerifyOptions& options = {});

/// Deserializes and verifies a saved graph. Corrupt or truncated input
/// becomes an error diagnostic from the "load" pseudo-pass instead of an
/// exception, so linting untrusted files never crashes.
VerifyResult verify_serialized(std::istream& is, const VerifyOptions& options = {});

/// The race checker on an explicit scheduler DAG. The registered "races"
/// pass builds the DAG itself via ir::build_op_dag; this overload exists
/// so tests can delete a hazard edge and prove the checker reports the
/// resulting schedule race.
std::vector<Diagnostic> check_races(const ir::Graph& graph, const ir::OpDag& dag);

/// The memory-plan checker on an explicit plan (rt::plan_memory output or
/// hand-built): every planned tensor non-persistent and inside the slab,
/// intervals consistent with the graph, no two time-overlapping regions
/// sharing slab addresses, every in-place alias justified by the race
/// checker's sole-reader criterion, every reuse edge a forward edge. The
/// registered "memplan" pass plans the graph itself under canonical
/// bindings; this overload exists so tests can hand-break a plan and
/// prove the breakage is caught.
std::vector<Diagnostic> check_memory_plan(const ir::Graph& graph, const ir::OpDag& dag,
                                          const rt::MemoryPlan& plan);

/// The built-in suite, in registration order (used once by
/// PassRegistry::instance(); exposed for tools that list passes).
std::vector<std::unique_ptr<Pass>> make_builtin_passes();

}  // namespace gf::verify
