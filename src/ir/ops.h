// Concrete compute-graph ops and the builder functions models use.
//
// Each op defines: symbolic output shapes, algorithmic FLOPs, algorithmic
// bytes accessed (overridden where the default all-tensors rule is wrong,
// e.g. embedding lookups touch only the gathered rows), and its own
// reverse-mode gradient construction.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/graph.h"
#include "src/ir/op.h"

namespace gf::ir {

// ---------------------------------------------------------------------------
// Pointwise function vocabulary (shared by PointwiseOp, FusedPointwiseOp,
// and the MatMul epilogue; defined ahead of MatMul for that reason)
// ---------------------------------------------------------------------------

enum class PointwiseFn : std::uint8_t {
  kAdd,         // 2 inputs
  kSub,         // 2 inputs
  kMul,         // 2 inputs
  kAddN,        // n inputs (n >= 2)
  kSigmoid,     // 1 input
  kTanh,        // 1 input
  kRelu,        // 1 input
  kOneMinus,    // 1 input: 1 - x (RHN carry gate)
  kScale,       // 1 input: alpha * x (alpha possibly symbolic)
  kIdentity,    // 1 input
  kSigmoidGrad, // 2 inputs (y, dy) -> dy * y * (1-y)
  kTanhGrad,    // 2 inputs (y, dy) -> dy * (1 - y^2)
  kReluGrad,    // 2 inputs (y, dy) -> dy * [y > 0]
};

const char* pointwise_fn_name(PointwiseFn fn);
/// Algorithmic FLOPs per output element for the function applied at the
/// given arity. Throws std::invalid_argument if the arity is wrong for the
/// function (kAddN needs >= 2, binary fns exactly 2, unary fns exactly 1).
double pointwise_fn_flops_per_element(PointwiseFn fn, std::size_t arity);

// ---------------------------------------------------------------------------
// MatMul
// ---------------------------------------------------------------------------

/// Dense (optionally batched / transposed) matrix multiply.
/// A: (M,K) or (B0,M,K); B: (K,N) or (B0,K,N); transpose flags swap the
/// trailing two dims of the respective operand. A rank-2 B against a rank-3
/// A broadcasts over the batch (shared weights).
class MatMulOp final : public Op {
 public:
  MatMulOp(Graph* g, std::string name, Tensor* a, Tensor* b, bool trans_a, bool trans_b);

  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;

  bool trans_a() const { return trans_a_; }
  bool trans_b() const { return trans_b_; }
  /// Effective GEMM dimensions: (batch x) (M x K) . (K x N).
  const sym::Expr& batch_dim() const { return batch_; }
  const sym::Expr& m() const { return m_; }
  const sym::Expr& n() const { return n_; }
  const sym::Expr& k() const { return k_; }

  /// Folds a bias add and/or a unary activation into the GEMM's per-tile
  /// output pass (rewrite-pass hook; see src/ir/fusion.h). `bias` may be
  /// null for an activation-only epilogue and otherwise becomes input 2
  /// (rank-1 of length N); `activation` is kIdentity, kSigmoid, kTanh, or
  /// kRelu. The op adopts `adopted_output` — the final tensor of the
  /// folded chain — in place of its own ":out" tensor, which the caller
  /// must remove from the graph along with the folded ops.
  void fuse_epilogue(Tensor* bias, PointwiseFn activation, Tensor* adopted_output);

  /// Takes over `adopted` (shaped like the GEMM output) in place of the
  /// op's own ":out" tensor, which the caller must remove from the graph.
  /// Rewrite-pass hook: fuse_epilogue adopts its chain's final tensor, and
  /// ir::stack_weight_gradients adopts the weight gradient it recomputes.
  void adopt_result(Tensor* adopted);

  /// Deserialization-side variant of fuse_epilogue(): restores the
  /// epilogue state on a freshly constructed op, keeping the op's own
  /// output tensor (the loader has no folded chain to adopt from).
  void restore_epilogue(Tensor* bias, PointwiseFn activation);

  bool has_epilogue() const {
    return epilogue_bias_ || epilogue_activation_ != PointwiseFn::kIdentity;
  }
  /// Whether input 2 is a fused epilogue bias.
  bool epilogue_bias() const { return epilogue_bias_; }
  PointwiseFn epilogue_activation() const { return epilogue_activation_; }

 private:
  bool trans_a_;
  bool trans_b_;
  bool epilogue_bias_ = false;
  PointwiseFn epilogue_activation_ = PointwiseFn::kIdentity;
  sym::Expr batch_, m_, n_, k_;
};

// ---------------------------------------------------------------------------
// Convolution (NHWC, "same" padding, square stride)
// ---------------------------------------------------------------------------

class Conv2DOp final : public Op {
 public:
  Conv2DOp(Graph* g, std::string name, Tensor* input, Tensor* filter, int stride);

  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;

  int stride() const { return stride_; }

 private:
  int stride_;
};

/// dInput of a convolution; same algorithmic FLOPs as the forward op.
class Conv2DGradInputOp final : public Op {
 public:
  Conv2DGradInputOp(Graph* g, std::string name, Tensor* grad_out, Tensor* filter,
                    TensorShape input_shape, int stride);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;

  int stride() const { return stride_; }

 private:
  int stride_;
};

/// dFilter of a convolution; same algorithmic FLOPs as the forward op.
class Conv2DGradFilterOp final : public Op {
 public:
  Conv2DGradFilterOp(Graph* g, std::string name, Tensor* input, Tensor* grad_out,
                     TensorShape filter_shape, int stride);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;

  int stride() const { return stride_; }

 private:
  int stride_;
};

// ---------------------------------------------------------------------------
// Pointwise
// ---------------------------------------------------------------------------

class PointwiseOp final : public Op {
 public:
  PointwiseOp(Graph* g, std::string name, PointwiseFn fn, std::vector<Tensor*> inputs,
              sym::Expr scale_alpha = sym::Expr(1.0));

  PointwiseFn fn() const { return fn_; }
  const sym::Expr& scale_alpha() const { return scale_alpha_; }

  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;

 private:
  PointwiseFn fn_;
  sym::Expr scale_alpha_;
};

/// input (..., N) + bias (N).
class BiasAddOp final : public Op {
 public:
  BiasAddOp(Graph* g, std::string name, Tensor* input, Tensor* bias);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;
};

// ---------------------------------------------------------------------------
// Fused pointwise program (created by ir::fuse_graph, never by models)
// ---------------------------------------------------------------------------

/// One step of a FusedPointwiseOp program. `args` index the op's operand
/// space: values < num_inputs name external input tensors; values >=
/// num_inputs name results of earlier instructions (arg - num_inputs).
struct FusedInstr {
  PointwiseFn fn;
  std::vector<int> args;
  sym::Expr alpha = sym::Expr(1.0);  // kScale multiplier; ignored otherwise
};

/// A single-consumer chain/tree of PointwiseOp/BiasAddOp members (plus
/// absorbed Broadcasts) collapsed into one per-element interpreter
/// program: each eliminated intermediate lives in a register for the
/// current element instead of round-tripping through a slab tensor, which
/// is the paper's §4 intensity fix. External inputs are addressed modulo
/// their element count, implementing rank-1 biases and trailing-dims
/// broadcasts without materializing them. The last instruction's value is
/// the output element.
///
/// FLOP and byte formulas are derived from the program once at
/// construction and cached, so the "fusion" verify pass can detect a
/// program edited out from under its formulas (negative tests do exactly
/// that via mutable_program()).
class FusedPointwiseOp final : public Op {
 public:
  /// Upper bound on program length: the kernel interprets programs with a
  /// fixed-size per-element register file on the stack.
  static constexpr std::size_t kMaxInstrs = 64;
  /// Upper bound on external inputs: the compiled executor keeps one
  /// vector register image per input in a fixed-size array, so every op
  /// that constructs also compiles.
  static constexpr std::size_t kMaxInputs = 96;

  /// `adopt`, when non-null, is an existing tensor (the fused root's
  /// output) taken over as this op's output so downstream consumers keep
  /// their pointers; otherwise a fresh ":out" tensor is created.
  FusedPointwiseOp(Graph* g, std::string name, std::vector<Tensor*> inputs,
                   std::vector<FusedInstr> program, TensorShape out_shape,
                   Tensor* adopt = nullptr);

  const std::vector<FusedInstr>& program() const { return program_; }
  /// Test escape hatch for hand-breaking a fused group; run verify_graph()
  /// after any such edit.
  std::vector<FusedInstr>& mutable_program() { return program_; }

  /// Re-derives the FLOP formula from the current program (the cached
  /// flops() must agree; the "fusion" verify pass checks exactly that).
  sym::Expr derive_flops() const;

  /// Translation-validation certificate: the canonical per-element
  /// semantics (src/ir/semantics.h) of the *source subgraph* this op
  /// replaced, minted by ir::fuse_graph before the members were unwired
  /// and carried verbatim through serialization. The "equiv" verify pass
  /// re-derives the program's semantics and diffs it against this string,
  /// so a program edited out from under its certificate — or a tampered
  /// serialized file — is caught without re-running the fuser. Empty for
  /// hand-built ops (nothing was replaced, nothing to certify).
  const std::string& certificate() const { return certificate_; }
  void set_certificate(std::string cert) { certificate_ = std::move(cert); }

  sym::Expr flops() const override { return flops_; }
  sym::Expr bytes_accessed() const override { return bytes_; }
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;

 private:
  std::vector<FusedInstr> program_;
  std::string certificate_;
  sym::Expr flops_{0.0};
  sym::Expr bytes_{0.0};
};

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

/// table (V, E), ids (integral, any shape S) -> output (S..., E).
/// Algorithmic bytes touch only the gathered rows, not the whole table.
class EmbeddingLookupOp final : public Op {
 public:
  EmbeddingLookupOp(Graph* g, std::string name, Tensor* table, Tensor* ids);
  sym::Expr flops() const override { return sym::Expr(0.0); }
  sym::Expr bytes_accessed() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;
};

/// Dense gradient of an embedding table: scatter-add of grad rows into a
/// (V, E) buffer. Inputs: ids, grad_out.
class EmbeddingGradOp final : public Op {
 public:
  EmbeddingGradOp(Graph* g, std::string name, Tensor* ids, Tensor* grad_out,
                  TensorShape table_shape);
  sym::Expr flops() const override;
  sym::Expr bytes_accessed() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;
};

// ---------------------------------------------------------------------------
// Softmax / cross-entropy
// ---------------------------------------------------------------------------

/// Softmax over the last axis.
class SoftmaxOp final : public Op {
 public:
  SoftmaxOp(Graph* g, std::string name, Tensor* logits);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;
};

class SoftmaxGradOp final : public Op {
 public:
  SoftmaxGradOp(Graph* g, std::string name, Tensor* y, Tensor* dy);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;
};

/// Fused softmax + cross-entropy against integer labels.
/// logits (R, C), labels (R) -> outputs: loss (R), probs (R, C).
class SoftmaxXentOp final : public Op {
 public:
  SoftmaxXentOp(Graph* g, std::string name, Tensor* logits, Tensor* labels);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;
  Tensor* loss() const { return output(0); }
  Tensor* probs() const { return output(1); }
};

/// dlogits = (probs - onehot(labels)) * dloss. Inputs: probs, labels, dloss.
class SoftmaxXentGradOp final : public Op {
 public:
  SoftmaxXentGradOp(Graph* g, std::string name, Tensor* probs, Tensor* labels,
                    Tensor* dloss);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;
};

// ---------------------------------------------------------------------------
// Reduce / broadcast
// ---------------------------------------------------------------------------

enum class ReduceKind : std::uint8_t { kSum, kMean };

/// Reduces leading axes, keeping the last `keep_last_n` dims.
class ReduceOp final : public Op {
 public:
  ReduceOp(Graph* g, std::string name, Tensor* input, ReduceKind kind,
           std::size_t keep_last_n);
  ReduceKind reduce_kind() const { return kind_; }
  std::size_t keep_last_n() const { return keep_last_n_; }
  /// Number of elements folded into each output element (symbolic).
  sym::Expr reduction_factor() const;
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;

 private:
  ReduceKind kind_;
  std::size_t keep_last_n_;
};

/// Replicates the input across new leading axes to reach `target_shape`
/// (the inverse data movement of ReduceOp).
class BroadcastOp final : public Op {
 public:
  BroadcastOp(Graph* g, std::string name, Tensor* input, TensorShape target_shape);
  sym::Expr flops() const override { return sym::Expr(0.0); }
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;
};

// ---------------------------------------------------------------------------
// Batch normalization
// ---------------------------------------------------------------------------

/// input (..., C), scale (C), shift (C) -> normalized output (..., C).
class BatchNormOp final : public Op {
 public:
  BatchNormOp(Graph* g, std::string name, Tensor* input, Tensor* scale, Tensor* shift);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;
};

/// Inputs: input, scale, grad_out -> outputs: dinput, dscale, dshift.
class BatchNormGradOp final : public Op {
 public:
  BatchNormGradOp(Graph* g, std::string name, Tensor* input, Tensor* scale,
                  Tensor* grad_out);
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;
};

// ---------------------------------------------------------------------------
// Pooling (NHWC, square window == stride, non-overlapping)
// ---------------------------------------------------------------------------

enum class PoolKind : std::uint8_t { kMax, kAvg };

class PoolOp final : public Op {
 public:
  PoolOp(Graph* g, std::string name, Tensor* input, PoolKind kind, int window_h,
         int window_w);
  PoolKind pool_kind() const { return kind_; }
  int window_h() const { return window_h_; }
  int window_w() const { return window_w_; }
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;

 private:
  PoolKind kind_;
  int window_h_;
  int window_w_;
};

/// Inputs: input, output, grad_out -> dinput.
class PoolGradOp final : public Op {
 public:
  PoolGradOp(Graph* g, std::string name, Tensor* input, Tensor* output, Tensor* grad_out,
             PoolKind kind, int window_h, int window_w);
  PoolKind pool_kind() const { return kind_; }
  int window_h() const { return window_h_; }
  int window_w() const { return window_w_; }
  sym::Expr flops() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;

 private:
  PoolKind kind_;
  int window_h_;
  int window_w_;
};

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

class ConcatOp final : public Op {
 public:
  ConcatOp(Graph* g, std::string name, std::vector<Tensor*> inputs, std::size_t axis);
  std::size_t axis() const { return axis_; }
  sym::Expr flops() const override { return sym::Expr(0.0); }
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;

 private:
  std::size_t axis_;
};

/// Partitions `axis` into `parts` equal pieces; one output per piece.
class SplitOp final : public Op {
 public:
  SplitOp(Graph* g, std::string name, Tensor* input, std::size_t axis, std::size_t parts);
  std::size_t axis() const { return axis_; }
  std::size_t parts() const { return parts_; }
  sym::Expr flops() const override { return sym::Expr(0.0); }
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;

 private:
  std::size_t axis_;
  std::size_t parts_;
};

/// Contiguous slice along `axis` (created only by Concat's backward; offsets
/// and sizes are the concat member shapes, so no padding op is ever needed).
class SliceOp final : public Op {
 public:
  SliceOp(Graph* g, std::string name, Tensor* input, std::size_t axis, sym::Expr offset,
          sym::Expr size);
  std::size_t axis() const { return axis_; }
  const sym::Expr& offset() const { return offset_; }
  sym::Expr flops() const override { return sym::Expr(0.0); }
  sym::Expr bytes_accessed() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;

 private:
  std::size_t axis_;
  sym::Expr offset_;
};

/// Element-count-preserving view change; moves no data (0 flops, 0 bytes).
class ReshapeOp final : public Op {
 public:
  ReshapeOp(Graph* g, std::string name, Tensor* input, TensorShape new_shape);
  sym::Expr flops() const override { return sym::Expr(0.0); }
  sym::Expr bytes_accessed() const override { return sym::Expr(0.0); }
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>& grad_outputs) override;
};

// ---------------------------------------------------------------------------
// Optimizer update
// ---------------------------------------------------------------------------

enum class Optimizer : std::uint8_t { kSGD, kMomentum, kAdam };

/// In-place weight update: reads the weight and its gradient, writes the
/// weight (plus per-optimizer persistent slot state). No outputs.
class ApplyGradientOp final : public Op {
 public:
  ApplyGradientOp(Graph* g, std::string name, Tensor* weight, Tensor* grad,
                  Optimizer optimizer);
  Optimizer optimizer() const { return optimizer_; }
  std::size_t num_slots() const;
  sym::Expr flops() const override;
  sym::Expr bytes_accessed() const override;
  std::vector<Tensor*> build_backward(const std::vector<Tensor*>&) override;

 private:
  Optimizer optimizer_;
};

// ---------------------------------------------------------------------------
// Builder functions: the public graph-construction API used by models.
// Each creates the op and returns its output tensor(s).
// ---------------------------------------------------------------------------

Tensor* matmul(Graph& g, const std::string& name, Tensor* a, Tensor* b,
               bool trans_a = false, bool trans_b = false);
Tensor* conv2d(Graph& g, const std::string& name, Tensor* input, Tensor* filter,
               int stride = 1);
Tensor* pointwise(Graph& g, const std::string& name, PointwiseFn fn,
                  std::vector<Tensor*> inputs);
Tensor* add(Graph& g, const std::string& name, Tensor* a, Tensor* b);
Tensor* sub(Graph& g, const std::string& name, Tensor* a, Tensor* b);
Tensor* mul(Graph& g, const std::string& name, Tensor* a, Tensor* b);
Tensor* add_n(Graph& g, const std::string& name, std::vector<Tensor*> inputs);
Tensor* sigmoid(Graph& g, const std::string& name, Tensor* x);
Tensor* tanh(Graph& g, const std::string& name, Tensor* x);
Tensor* relu(Graph& g, const std::string& name, Tensor* x);
Tensor* one_minus(Graph& g, const std::string& name, Tensor* x);
Tensor* scale(Graph& g, const std::string& name, Tensor* x, sym::Expr alpha);
Tensor* bias_add(Graph& g, const std::string& name, Tensor* input, Tensor* bias);
Tensor* embedding_lookup(Graph& g, const std::string& name, Tensor* table, Tensor* ids);
Tensor* softmax(Graph& g, const std::string& name, Tensor* logits);
/// Returns {loss (R), probs (R, C)}.
std::pair<Tensor*, Tensor*> softmax_xent(Graph& g, const std::string& name,
                                         Tensor* logits, Tensor* labels);
Tensor* reduce_sum(Graph& g, const std::string& name, Tensor* input,
                   std::size_t keep_last_n = 0);
Tensor* reduce_mean(Graph& g, const std::string& name, Tensor* input,
                    std::size_t keep_last_n = 0);
Tensor* batch_norm(Graph& g, const std::string& name, Tensor* input, Tensor* scale,
                   Tensor* shift);
Tensor* pool(Graph& g, const std::string& name, Tensor* input, PoolKind kind,
             int window_h, int window_w);
Tensor* concat(Graph& g, const std::string& name, std::vector<Tensor*> inputs,
               std::size_t axis);
std::vector<Tensor*> split(Graph& g, const std::string& name, Tensor* input,
                           std::size_t axis, std::size_t parts);
Tensor* reshape(Graph& g, const std::string& name, Tensor* input, TensorShape new_shape);

}  // namespace gf::ir
