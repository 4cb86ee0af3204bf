// Graph serialization.
//
// The original Catamount artifact's core workflow is loading saved compute
// graphs (TensorFlow MetaGraphDefs) for offline analysis. This module is
// the equivalent for this IR: a line-oriented text format that round-trips
// graphs exactly (symbolic shapes included, via the s-expression codec),
// plus a GraphViz export for inspection.
//
// Format sketch (one record per line, names contain no whitespace):
//   graph <name>
//   tensor <id> <role> <dtype> <name> <dim-sexpr>|<dim-sexpr>|...
//   op <type> <name>
//   in <tensor-id> ...
//   out <tensor-id> ...
//   attr <key> <payload-to-end-of-line>
// Only producerless tensors (inputs, weights, gradient seeds) get tensor
// records; op outputs and optimizer slots are re-created by the op
// constructors on load and re-keyed via the recorded ids.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/ir/graph.h"

namespace gf::ir {

/// Serializes `graph` to the text format above.
std::string serialize(const Graph& graph);
void serialize(const Graph& graph, std::ostream& os);

/// Reconstructs a graph from serialize()'s output. The result validates
/// and is analytically identical (FLOPs/bytes/footprint/params) to the
/// original. Throws std::invalid_argument with a line number on malformed
/// input. Pass validate=false to skip the post-load full verify suite
/// (verify::verify_serialized does, so a reconstructable-but-broken graph
/// yields structured diagnostics instead of one thrown error).
std::unique_ptr<Graph> deserialize(const std::string& text, bool validate = true);
std::unique_ptr<Graph> deserialize(std::istream& is, bool validate = true);

/// Deep-copies a graph via a serialize/deserialize round trip, then
/// restores the ORIGINAL tensor ids on the copy (the executor keys its
/// deterministic per-tensor RNG streams on Tensor::id(), so a rewritten
/// clone must keep the ids for bitwise-identical numerics). If `mapping`
/// is non-null it is filled with original-tensor -> clone-tensor pairs.
/// The clone is independently owned; rewrite passes (ir::fuse_graph) may
/// mutate it without touching the original.
std::unique_ptr<Graph> clone_graph(
    const Graph& graph,
    std::unordered_map<const Tensor*, Tensor*>* mapping = nullptr);

/// GraphViz DOT rendering (ops as boxes, tensors as edges), for
/// inspection of small graphs.
std::string to_dot(const Graph& graph, std::size_t max_ops = 400);

/// The `attr` lines serialize() would write for `op` (exactly, including
/// trailing newlines; empty for attribute-free ops). Attribute payloads
/// never reference tensor ids, so this is the id-independent part of an
/// op's serialized form — ir::canonical_hash builds on it.
std::string op_attr_text(const Op& op);

}  // namespace gf::ir
