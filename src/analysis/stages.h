// The analysis pipeline as explicit pure stages.
//
// ModelAnalyzer historically fused the whole characterization pipeline —
// build the training graph, sum the symbolic totals, evaluate at a
// binding — into one constructor-plus-methods blob.
// That shape is fine for a one-shot CLI run but wrong for a service: the
// stages have wildly different costs (graph build and symbolic counting
// are seconds; evaluating the counted expressions at one more binding is
// microseconds), and every stage is a *pure function* of its inputs, so a
// server can memoize each one independently (DeepDSL makes the same
// observation compiler-side: static DL-program analysis is reusable
// across queries).
//
// This header names the stages and their serializable boundary types:
//
//   build    family name              -> training-step ModelSpec
//   count    graph                    -> CountResult (symbolic totals)
//   project  CountResult x binding    -> Projection (concrete numbers)
//
// Each output is serializable (graphs via src/ir/serialize.h, CountResult
// via the s-expression codec, Projection as plain numbers), so stage
// results can be cached content-addressed (src/serve/cache.h keys them on
// ir::canonical_hash of the stage input) or shipped across processes.
// ModelAnalyzer is now a thin veneer over count+project; the fig/table
// benches are bit-identical to the pre-split pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/footprint.h"
#include "src/ir/graph.h"
#include "src/models/models.h"
#include "src/symbolic/expr.h"

namespace gf::analysis::stages {

/// Symbolic totals for one training-step graph — the expensive stage's
/// output (summing ~40k per-op expressions), cacheable per graph hash.
struct CountResult {
  sym::Expr flops;   ///< algorithmic FLOPs per step
  sym::Expr bytes;   ///< algorithmic bytes accessed per step
  sym::Expr params;  ///< trainable parameter count

  /// Line-oriented s-expression form ("counts v1\nflops <sexpr>\n...").
  std::string serialize() const;
  /// Inverse of serialize(); throws std::invalid_argument on malformed
  /// input. Round-trips exactly (the sexpr codec prints %.17g doubles).
  static CountResult deserialize(const std::string& text);
};

/// Concrete numbers at one binding — the cheap tail every sweep re-runs.
struct Projection {
  double flops = 0.0;
  double bytes = 0.0;
  double params = 0.0;

  double operational_intensity() const { return bytes > 0 ? flops / bytes : 0.0; }
};

/// build: constructs the named built-in family's full training-step spec
/// ("wordlm", "charlm", "nmt", "speech", "image", "transformer").
/// Deterministic: two calls produce structurally identical graphs (equal
/// ir::canonical_hash). Throws std::invalid_argument on unknown names.
models::ModelSpec build_stage(const std::string& family);

/// Family names build_stage accepts, in canonical order.
const std::vector<std::string>& builtin_families();

/// count: sums the graph's per-op symbolic FLOP/byte formulas and the
/// trainable-parameter total. Pure, and about half of build_stage on charlm
/// (0.5 s against 1.0 s in a Release build on a 4-core AVX-512 host); serve
/// caches it per canonical graph hash so a sweep pays it once.
CountResult count_stage(const ir::Graph& graph);

/// project: evaluates the counted totals at one binding. Evaluating with
/// bindings beyond an expression's free symbols is harmless (identical
/// arithmetic), so one binding map serves all three expressions.
Projection project_stage(const CountResult& counts, const sym::Bindings& bindings);

/// Footprint companion to project: the §4.5 minimal-footprint traversal
/// at one binding. Separate from project_stage because it needs the graph
/// itself, not just the counted totals (cache key: graph hash x binding).
ir::FootprintResult footprint_stage(const ir::Graph& graph,
                                    const sym::Bindings& bindings);

}  // namespace gf::analysis::stages
