// Reverse-mode gradient-graph construction.
//
// Given a forward graph ending in a scalar loss, appends the backward ops
// (each forward op emits its own gradients via Op::build_backward) and one
// optimizer-update op per trainable weight. After this call the graph
// models one full *training step*, which is the unit all of the paper's
// compute/memory characterization is expressed in.
#pragma once

#include <unordered_map>

#include "src/ir/graph.h"
#include "src/ir/ops.h"

namespace gf::ir {

struct TrainingStepOptions {
  /// Optimizer applied to every weight; determines persistent slot state
  /// (SGD: none — the configuration the paper's footprint numbers match).
  Optimizer optimizer = Optimizer::kSGD;
};

struct TrainingStepResult {
  /// Final (accumulated) gradient tensor per weight.
  std::unordered_map<const Tensor*, Tensor*> weight_gradients;
  /// Number of backward/update ops appended.
  std::size_t ops_added = 0;
};

/// Appends backward and update ops for `loss` (must be a scalar produced by
/// an op of the graph). Throws std::logic_error if some weight on the path
/// cannot receive a gradient or if the loss has free batch semantics that
/// prevent seeding.
TrainingStepResult build_training_step(Graph& graph, Tensor* loss,
                                       const TrainingStepOptions& options = {});

/// Undoes the eager fold for recurrent weights, on a graph the caller owns
/// (the executor runs it on its clone; builder graphs keep the folded form
/// every paper table counts). A weight shared across T timesteps gets its
/// gradient as T products z_tᵀ·dgates_t with inner dimension b (the batch)
/// summed by T−1 adds of the weight's shape; this rewrite computes the same
/// sum as one GEMM with inner dimension T·b:
///
///   Concat(z_ℓ, axis 0), Concat(dgates_ℓ, axis 0) -> MatMul(trans_a)
///
/// Match: a kWeightGradient tensor produced by a two-input Pointwise kAdd.
/// Interior nodes are such Adds whose outputs are activations with exactly
/// one consumer. Every leaf must be a rank-2 MatMul with trans_a, without
/// trans_b and without an epilogue, whose output is a single-consumer
/// activation of the weight gradient's shape; there must be at least two
/// leaves. Anything else is left alone.
///
/// Leaves are stacked in the order the add tree reads them: a left-to-right
/// walk, which for autodiff's left fold is the order their contributions
/// were emitted (last timestep first). The MatMul adopts the
/// weight-gradient tensor (id, name, role, persistence and consumers
/// unchanged), and the three new ops take the removed root Add's place in
/// the op list, so the stacked copies are made where the sum used to finish
/// rather than right after the forward pass.
///
/// FLOPs fall by exactly (L−1)·numel(W) per stacked weight with L leaves:
/// the adds. GEMM FLOPs are unchanged and the Concats cost none. Returns
/// the number of weights stacked; idempotent (a second run finds none).
std::size_t stack_weight_gradients(Graph& graph);

}  // namespace gf::ir
