// Shared infrastructure for the five paper model families.
//
// Every model is built as a full *training-step* graph (forward + backward +
// weight update) over two symbolic dimensions:
//   "batch"  — the per-device subbatch size b of the paper, and
//   "hidden" — the width knob grown to fit larger datasets (hidden units for
//              recurrent nets, base channel count for ResNets),
// so one graph instance serves a whole model-size sweep via re-binding.
// Sequence lengths, depths, and vocabularies are concrete per-config values,
// matching the paper's methodology (§4.1): recurrent nets grow width, not
// depth; unroll lengths are properties of the dataset.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/ir/gradients.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"

namespace gf::models {

inline constexpr const char* kBatchSymbol = "batch";
inline constexpr const char* kHiddenSymbol = "hidden";

enum class Domain : std::uint8_t { kWordLM, kCharLM, kNMT, kSpeech, kImage };
const char* domain_name(Domain domain);

/// Cross-cutting training configuration shared by all model builders.
struct TrainingOptions {
  /// Optimizer for the weight-update ops (persistent slot state: SGD none,
  /// momentum 1x params, Adam 2x — a footprint ablation knob, §6.2.3).
  ir::Optimizer optimizer = ir::Optimizer::kSGD;
  /// Build the whole model in 16-bit floating point (§6.2.3 low-precision
  /// ablation: weights, activations, gradients, and traffic all halve).
  bool half_precision = false;
};

/// A fully built training-step graph plus the metadata analyses need.
struct ModelSpec {
  std::string name;
  Domain domain = Domain::kWordLM;
  std::shared_ptr<ir::Graph> graph;

  /// The scalar training loss (mean cross-entropy) the step minimizes.
  ir::Tensor* loss = nullptr;

  /// Trainable parameter count as a function of "hidden".
  sym::Expr params;

  /// Dataset samples consumed per batch row per step (sequence length for
  /// recurrent models, 1 for images). Used to convert steps <-> epoch.
  int samples_per_batch_row = 1;

  /// Binds the two model symbols.
  sym::Bindings bind(double hidden, double batch) const;

  /// Parameter count at a concrete width.
  double params_at(double hidden) const;

  /// Smallest width whose parameter count reaches `target_params`:
  /// solve_for_params over `params` and the hidden symbol.
  double hidden_for_params(double target_params) const;
};

/// Smallest value of `symbol` at which `params` reaches `target_params`: a
/// monotone bisection whose result is continuous, not rounded, because the
/// paper's projections treat model size as continuous. Serves built-in
/// specs and submitted graphs alike. Throws if the target is non-positive
/// or unreachable.
double solve_for_params(const sym::Expr& params, const std::string& symbol,
                        double target_params);

// --- recurrent building blocks ------------------------------------------------

/// Runs an unrolled LSTM layer over per-timestep inputs xs (each (B, E)).
/// Weights: fused gate matrix (E+H, 4H) + bias (4H); optional output
/// projection (H, P) (the paper's §6.1 "LSTM projection" optimization).
/// `reverse` processes timesteps back-to-front (for bidirectional stacks).
/// Returns per-timestep outputs (B, H) — or (B, P) when projected.
std::vector<ir::Tensor*> lstm_layer(ir::Graph& g, const std::string& name,
                                    const std::vector<ir::Tensor*>& xs,
                                    const sym::Expr& input_dim,
                                    const sym::Expr& hidden_dim, bool reverse = false,
                                    const sym::Expr* projection_dim = nullptr);

/// Bidirectional LSTM: forward and backward passes concatenated per step.
/// Returns per-timestep outputs (B, 2H).
std::vector<ir::Tensor*> bilstm_layer(ir::Graph& g, const std::string& name,
                                      const std::vector<ir::Tensor*>& xs,
                                      const sym::Expr& input_dim,
                                      const sym::Expr& hidden_dim);

/// Gated recurrent unit layer (Cho et al.): fused update/reset gate matrix
/// (E+H, 2H) plus candidate matrix (E+H, H) — 3/4 of the LSTM's weights
/// per layer. Used for the cell-choice ablation: the paper's asymptotic
/// constants are architecture-robust, and the GRU's land on the same 6q.
std::vector<ir::Tensor*> gru_layer(ir::Graph& g, const std::string& name,
                                   const std::vector<ir::Tensor*>& xs,
                                   const sym::Expr& input_dim,
                                   const sym::Expr& hidden_dim);

/// Recurrent highway network layer (Zilly et al.): `depth` stacked highway
/// sublayers per timestep, state carried across timesteps.
/// xs are (B, E); returns per-timestep states (B, H).
std::vector<ir::Tensor*> rhn_layer(ir::Graph& g, const std::string& name,
                                   const std::vector<ir::Tensor*>& xs,
                                   const sym::Expr& input_dim,
                                   const sym::Expr& hidden_dim, int depth);

/// Luong-style dot attention for one decoder step.
/// enc (B, T, He) [already concatenated], query (B, Hd).
/// Returns the attentional output tanh(Wc [ctx; query]) of size (B, Hd).
ir::Tensor* attention_step(ir::Graph& g, const std::string& name, ir::Tensor* enc,
                           int enc_steps, ir::Tensor* query, const sym::Expr& enc_dim,
                           const sym::Expr& query_dim, ir::Tensor* w_query,
                           ir::Tensor* w_combine);

/// Splits an embedded sequence (B, T, E) into T per-timestep (B, E) tensors.
std::vector<ir::Tensor*> split_timesteps(ir::Graph& g, const std::string& name,
                                         ir::Tensor* seq, int steps);

/// Stacks per-timestep tensors (B, D) into (B, T, D).
ir::Tensor* stack_timesteps(ir::Graph& g, const std::string& name,
                            const std::vector<ir::Tensor*>& steps);

/// Vocabulary projection + softmax cross-entropy over all timesteps:
/// states (B, T, D) -> logits (B*T, V) vs labels (B*T) -> scalar mean loss.
ir::Tensor* sequence_output_loss(ir::Graph& g, const std::string& name,
                                 ir::Tensor* states, int steps, const sym::Expr& dim,
                                 int vocab, ir::Tensor* labels);

/// Finishes a model: appends backward + update ops, runs the structure,
/// shapes, symbolic and gradients verify passes, wraps.
ModelSpec finalize_model(std::string name, Domain domain,
                         std::unique_ptr<ir::Graph> graph, ir::Tensor* loss,
                         int samples_per_batch_row,
                         const TrainingOptions& training = {});

}  // namespace gf::models
