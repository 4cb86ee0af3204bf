#include "src/ir/ops.h"

#include <stdexcept>

namespace gf::ir {
namespace {

using sym::Expr;

void require(bool cond, const std::string& op_name, const std::string& what) {
  if (!cond) throw std::invalid_argument(op_name + ": " + what);
}

bool is_integral(DataType t) { return t == DataType::kInt32 || t == DataType::kInt64; }

/// Constant dimension as positive int, for structurally-constant dims
/// (filter sizes, windows) that must be concrete at build time.
int const_dim(const Expr& e, const std::string& op_name, const std::string& what) {
  require(e.is_constant(), op_name, what + " must be a concrete constant");
  const double v = e.constant_value();
  require(v > 0 && v == static_cast<double>(static_cast<int>(v)), op_name,
          what + " must be a positive integer");
  return static_cast<int>(v);
}

}  // namespace

// --- MatMul -----------------------------------------------------------------

MatMulOp::MatMulOp(Graph* g, std::string name, Tensor* a, Tensor* b, bool trans_a,
                   bool trans_b)
    : Op(g, OpType::kMatMul, std::move(name)), trans_a_(trans_a), trans_b_(trans_b) {
  require(a && b, this->name(), "null operand");
  const std::size_t ra = a->shape().rank(), rb = b->shape().rank();
  require(ra == 2 || ra == 3, this->name(), "A must be rank 2 or 3");
  require(rb == 2 || rb == 3, this->name(), "B must be rank 2 or 3");
  require(!(ra == 2 && rb == 3), this->name(), "rank-2 A with rank-3 B is unsupported");
  require(!(ra == 3 && rb == 2 && trans_a), this->name(),
          "transposed rank-3 A with shared rank-2 B is unsupported");

  const auto& sa = a->shape();
  const auto& sb = b->shape();
  const std::size_t oa = ra - 2, ob = rb - 2;  // offset of the matrix dims
  m_ = trans_a ? sa.dim(oa + 1) : sa.dim(oa);
  k_ = trans_a ? sa.dim(oa) : sa.dim(oa + 1);
  const Expr kb = trans_b ? sb.dim(ob + 1) : sb.dim(ob);
  n_ = trans_b ? sb.dim(ob) : sb.dim(ob + 1);
  require(k_.equals(kb), this->name(),
          "inner dimensions disagree: " + k_.str() + " vs " + kb.str());
  if (ra == 3 && rb == 3)
    require(sa.dim(0).equals(sb.dim(0)), this->name(), "batch dimensions disagree");
  batch_ = (ra == 3) ? sa.dim(0) : Expr(1.0);

  bind_input(a);
  bind_input(b);
  TensorShape out_shape = (ra == 3) ? TensorShape{batch_, m_, n_} : TensorShape{m_, n_};
  make_output(":out", std::move(out_shape), a->dtype());
}

sym::Expr MatMulOp::flops() const {
  Expr f = Expr(2.0) * batch_ * m_ * n_ * k_;
  const Expr out_elems = batch_ * m_ * n_;
  if (epilogue_bias_) f = f + out_elems;
  if (epilogue_activation_ != PointwiseFn::kIdentity)
    f = f + Expr(pointwise_fn_flops_per_element(epilogue_activation_, 1)) * out_elems;
  return f;
}

void MatMulOp::fuse_epilogue(Tensor* bias, PointwiseFn activation, Tensor* adopted_output) {
  require(!has_epilogue(), name(), "epilogue already fused");
  require(activation == PointwiseFn::kIdentity || activation == PointwiseFn::kSigmoid ||
              activation == PointwiseFn::kTanh || activation == PointwiseFn::kRelu,
          name(), "unsupported epilogue activation");
  require(bias != nullptr || activation != PointwiseFn::kIdentity, name(),
          "epilogue must fold a bias or an activation");
  require(adopted_output != nullptr, name(), "null adopted output");
  require(adopted_output->shape().equals(output(0)->shape()), name(),
          "adopted output shape must match the GEMM output");
  if (bias != nullptr) {
    require(bias->shape().rank() == 1 && bias->shape().dim(0).equals(n_), name(),
            "epilogue bias must be rank-1 of length N");
    bind_input(bias);
    epilogue_bias_ = true;
  }
  epilogue_activation_ = activation;
  drop_output(0);
  adopt_output(adopted_output);
}

void MatMulOp::restore_epilogue(Tensor* bias, PointwiseFn activation) {
  require(!has_epilogue(), name(), "epilogue already fused");
  require(activation == PointwiseFn::kIdentity || activation == PointwiseFn::kSigmoid ||
              activation == PointwiseFn::kTanh || activation == PointwiseFn::kRelu,
          name(), "unsupported epilogue activation");
  require(bias != nullptr || activation != PointwiseFn::kIdentity, name(),
          "epilogue must fold a bias or an activation");
  if (bias != nullptr) {
    require(bias->shape().rank() == 1 && bias->shape().dim(0).equals(n_), name(),
            "epilogue bias must be rank-1 of length N");
    bind_input(bias);
    epilogue_bias_ = true;
  }
  epilogue_activation_ = activation;
}

std::vector<Tensor*> MatMulOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* a = input(0);
  Tensor* b = input(1);
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  Graph& g = graph();
  const std::size_t ra = a->shape().rank(), rb = b->shape().rank();

  Tensor* da = nullptr;
  Tensor* db = nullptr;
  if (ra == 3 && rb == 2) {
    // Shared weights: flatten the batched operand, so dB sums over batch.
    const Expr rows = a->shape().dim(0) * a->shape().dim(1);
    Tensor* a2 = reshape(g, name() + ":a_flat", a, TensorShape{rows, a->shape().dim(2)});
    Tensor* dy2 =
        reshape(g, name() + ":dy_flat", dy, TensorShape{rows, dy->shape().dim(2)});
    Tensor* da2 = matmul(g, name() + ":dA", dy2, b, false, !trans_b_);
    da = reshape(g, name() + ":dA_unflat", da2, a->shape());
    db = trans_b_ ? matmul(g, name() + ":dB", dy2, a2, true, false)
                  : matmul(g, name() + ":dB", a2, dy2, true, false);
    return {da, db};
  }

  // Uniform rank (2-2 or 3-3): standard transpose-flag-aware formulas.
  da = trans_a_ ? matmul(g, name() + ":dA", b, dy, trans_b_, true)
                : matmul(g, name() + ":dA", dy, b, false, !trans_b_);
  db = trans_b_ ? matmul(g, name() + ":dB", dy, a, true, trans_a_)
                : matmul(g, name() + ":dB", a, dy, !trans_a_, false);
  return {da, db};
}

// --- Conv2D -----------------------------------------------------------------

Conv2DOp::Conv2DOp(Graph* g, std::string name, Tensor* input, Tensor* filter, int stride)
    : Op(g, OpType::kConv2D, std::move(name)), stride_(stride) {
  require(input && filter, this->name(), "null operand");
  require(input->shape().rank() == 4, this->name(), "input must be NHWC rank 4");
  require(filter->shape().rank() == 4, this->name(), "filter must be KhKwCinCout rank 4");
  require(stride >= 1, this->name(), "stride must be >= 1");
  require(input->shape().dim(3).equals(filter->shape().dim(2)), this->name(),
          "channel mismatch between input and filter");
  const_dim(filter->shape().dim(0), this->name(), "filter height");
  const_dim(filter->shape().dim(1), this->name(), "filter width");

  bind_input(input);
  bind_input(filter);
  const Expr s(static_cast<double>(stride));
  make_output(":out",
              TensorShape{input->shape().dim(0), input->shape().dim(1) / s,
                          input->shape().dim(2) / s, filter->shape().dim(3)},
              input->dtype());
}

sym::Expr Conv2DOp::flops() const {
  const auto& out = output(0)->shape();
  const auto& f = input(1)->shape();
  // 2 * N * Ho * Wo * Kh * Kw * Cin * Cout (multiply-accumulate = 2 FLOPs).
  return Expr(2.0) * out.num_elements() * f.dim(0) * f.dim(1) * f.dim(2);
}

std::vector<Tensor*> Conv2DOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  Graph& g = graph();
  auto* dinput = g.add_op<Conv2DGradInputOp>(name() + ":dIn", dy, input(1),
                                             input(0)->shape(), stride_);
  auto* dfilter = g.add_op<Conv2DGradFilterOp>(name() + ":dW", input(0), dy,
                                               input(1)->shape(), stride_);
  return {dinput->output(0), dfilter->output(0)};
}

Conv2DGradInputOp::Conv2DGradInputOp(Graph* g, std::string name, Tensor* grad_out,
                                     Tensor* filter, TensorShape input_shape, int stride)
    : Op(g, OpType::kConv2DGradInput, std::move(name)), stride_(stride) {
  bind_input(grad_out);
  bind_input(filter);
  make_output(":out", std::move(input_shape), grad_out->dtype());
}

sym::Expr Conv2DGradInputOp::flops() const {
  const auto& dy = input(0)->shape();
  const auto& f = input(1)->shape();
  return Expr(2.0) * dy.num_elements() * f.dim(0) * f.dim(1) * f.dim(2);
}

std::vector<Tensor*> Conv2DGradInputOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": gradient ops are not differentiable");
}

Conv2DGradFilterOp::Conv2DGradFilterOp(Graph* g, std::string name, Tensor* input,
                                       Tensor* grad_out, TensorShape filter_shape,
                                       int stride)
    : Op(g, OpType::kConv2DGradFilter, std::move(name)), stride_(stride) {
  bind_input(input);
  bind_input(grad_out);
  make_output(":out", std::move(filter_shape), input->dtype());
}

sym::Expr Conv2DGradFilterOp::flops() const {
  const auto& dy = input(1)->shape();
  const auto& f = output(0)->shape();
  return Expr(2.0) * dy.num_elements() * f.dim(0) * f.dim(1) * f.dim(2);
}

std::vector<Tensor*> Conv2DGradFilterOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": gradient ops are not differentiable");
}

// --- Pointwise ---------------------------------------------------------------

const char* pointwise_fn_name(PointwiseFn fn) {
  switch (fn) {
    case PointwiseFn::kAdd: return "add";
    case PointwiseFn::kSub: return "sub";
    case PointwiseFn::kMul: return "mul";
    case PointwiseFn::kAddN: return "add_n";
    case PointwiseFn::kSigmoid: return "sigmoid";
    case PointwiseFn::kTanh: return "tanh";
    case PointwiseFn::kRelu: return "relu";
    case PointwiseFn::kOneMinus: return "one_minus";
    case PointwiseFn::kScale: return "scale";
    case PointwiseFn::kIdentity: return "identity";
    case PointwiseFn::kSigmoidGrad: return "sigmoid_grad";
    case PointwiseFn::kTanhGrad: return "tanh_grad";
    case PointwiseFn::kReluGrad: return "relu_grad";
  }
  return "?";
}

namespace {
std::size_t pointwise_arity(PointwiseFn fn) {
  switch (fn) {
    case PointwiseFn::kAdd:
    case PointwiseFn::kSub:
    case PointwiseFn::kMul:
    case PointwiseFn::kSigmoidGrad:
    case PointwiseFn::kTanhGrad:
    case PointwiseFn::kReluGrad:
      return 2;
    case PointwiseFn::kAddN:
      return 0;  // variadic, but needs >= 2
    default:
      return 1;
  }
}

void require_pointwise_arity(PointwiseFn fn, std::size_t arity, const std::string& who) {
  const std::size_t expected = pointwise_arity(fn);
  const bool ok = expected == 0 ? arity >= 2 : arity == expected;
  if (!ok)
    throw std::invalid_argument(who + ": wrong arity for " + pointwise_fn_name(fn) +
                                " (got " + std::to_string(arity) + ", need " +
                                (expected == 0 ? ">= 2" : std::to_string(expected)) + ")");
}
}  // namespace

double pointwise_fn_flops_per_element(PointwiseFn fn, std::size_t arity) {
  require_pointwise_arity(fn, arity, "pointwise_fn_flops_per_element");
  switch (fn) {
    case PointwiseFn::kAdd:
    case PointwiseFn::kSub:
    case PointwiseFn::kMul:
    case PointwiseFn::kRelu:
    case PointwiseFn::kOneMinus:
    case PointwiseFn::kScale:
    case PointwiseFn::kReluGrad:
      return 1.0;
    case PointwiseFn::kIdentity:
      return 0.0;
    case PointwiseFn::kAddN:
      return static_cast<double>(arity - 1);
    case PointwiseFn::kSigmoid:
      return 4.0;  // exp, add, div, negate
    case PointwiseFn::kTanh:
      return 6.0;
    case PointwiseFn::kSigmoidGrad:
    case PointwiseFn::kTanhGrad:
      return 3.0;
  }
  return 1.0;
}

PointwiseOp::PointwiseOp(Graph* g, std::string name, PointwiseFn fn,
                         std::vector<Tensor*> inputs, sym::Expr scale_alpha)
    : Op(g, OpType::kPointwise, std::move(name)), fn_(fn),
      scale_alpha_(std::move(scale_alpha)) {
  require(!inputs.empty(), this->name(), "needs at least one input");
  require_pointwise_arity(fn, inputs.size(), this->name());
  for (Tensor* t : inputs) {
    require(t != nullptr, this->name(), "null input");
    require(t->shape().equals(inputs[0]->shape()), this->name(),
            "pointwise inputs must share a shape");
  }
  for (Tensor* t : inputs) bind_input(t);
  make_output(":out", inputs[0]->shape(), inputs[0]->dtype());
}

sym::Expr PointwiseOp::flops() const {
  return Expr(pointwise_fn_flops_per_element(fn_, inputs().size())) *
         output(0)->num_elements();
}

std::vector<Tensor*> PointwiseOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  Graph& g = graph();
  switch (fn_) {
    case PointwiseFn::kAdd:
      return {dy, dy};
    case PointwiseFn::kSub:
      return {dy, scale(g, name() + ":dB", dy, Expr(-1.0))};
    case PointwiseFn::kMul:
      return {mul(g, name() + ":dA", dy, input(1)), mul(g, name() + ":dB", dy, input(0))};
    case PointwiseFn::kAddN:
      return std::vector<Tensor*>(inputs().size(), dy);
    case PointwiseFn::kSigmoid:
      return {pointwise(g, name() + ":dX", PointwiseFn::kSigmoidGrad, {output(0), dy})};
    case PointwiseFn::kTanh:
      return {pointwise(g, name() + ":dX", PointwiseFn::kTanhGrad, {output(0), dy})};
    case PointwiseFn::kRelu:
      return {pointwise(g, name() + ":dX", PointwiseFn::kReluGrad, {output(0), dy})};
    case PointwiseFn::kOneMinus:
      return {scale(g, name() + ":dX", dy, Expr(-1.0))};
    case PointwiseFn::kScale:
      return {scale(g, name() + ":dX", dy, scale_alpha_)};
    case PointwiseFn::kIdentity:
      return {dy};
    case PointwiseFn::kSigmoidGrad:
    case PointwiseFn::kTanhGrad:
    case PointwiseFn::kReluGrad:
      throw std::logic_error(name() + ": gradient ops are not differentiable");
  }
  throw std::logic_error(name() + ": unknown pointwise fn");
}

// --- BiasAdd -----------------------------------------------------------------

BiasAddOp::BiasAddOp(Graph* g, std::string name, Tensor* input, Tensor* bias)
    : Op(g, OpType::kBiasAdd, std::move(name)) {
  require(input && bias, this->name(), "null operand");
  require(bias->shape().rank() == 1, this->name(), "bias must be rank 1");
  require(input->shape().rank() >= 1, this->name(), "input must be rank >= 1");
  require(input->shape().dim(input->shape().rank() - 1).equals(bias->shape().dim(0)),
          this->name(), "bias length must match trailing dim");
  bind_input(input);
  bind_input(bias);
  make_output(":out", input->shape(), input->dtype());
}

sym::Expr BiasAddOp::flops() const { return output(0)->num_elements(); }

std::vector<Tensor*> BiasAddOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  Tensor* dbias = reduce_sum(graph(), name() + ":dBias", dy, /*keep_last_n=*/1);
  return {dy, dbias};
}

// --- FusedPointwise ----------------------------------------------------------

FusedPointwiseOp::FusedPointwiseOp(Graph* g, std::string name,
                                   std::vector<Tensor*> inputs,
                                   std::vector<FusedInstr> program, TensorShape out_shape,
                                   Tensor* adopt)
    : Op(g, OpType::kFusedPointwise, std::move(name)), program_(std::move(program)) {
  require(!inputs.empty(), this->name(), "needs at least one input");
  require(!program_.empty(), this->name(), "empty program");
  require(program_.size() <= kMaxInstrs, this->name(),
          "program exceeds kMaxInstrs (" + std::to_string(kMaxInstrs) + ")");
  const std::size_t nin = inputs.size();
  require(nin <= kMaxInputs, this->name(),
          "inputs exceed kMaxInputs (" + std::to_string(kMaxInputs) + ")");

  // Program well-formedness: per-fn arity, no forward/out-of-range operand
  // references, and connectivity (every external input and every
  // non-final intermediate result is read somewhere).
  std::vector<bool> used(nin + program_.size(), false);
  for (std::size_t j = 0; j < program_.size(); ++j) {
    const FusedInstr& instr = program_[j];
    require_pointwise_arity(instr.fn, instr.args.size(),
                            this->name() + " instruction " + std::to_string(j));
    for (const int a : instr.args) {
      require(a >= 0 && static_cast<std::size_t>(a) < nin + j, this->name(),
              "instruction " + std::to_string(j) + " references operand " +
                  std::to_string(a) + " out of range");
      used[static_cast<std::size_t>(a)] = true;
    }
  }
  for (std::size_t i = 0; i < nin; ++i)
    require(used[i], this->name(),
            "external input " + std::to_string(i) + " is never read");
  for (std::size_t j = 0; j + 1 < program_.size(); ++j)
    require(used[nin + j], this->name(),
            "instruction " + std::to_string(j) + " result is never read");

  for (Tensor* t : inputs) {
    require(t != nullptr, this->name(), "null input");
    require(!is_integral(t->dtype()), this->name(), "inputs must be floating point");
    // Modulo addressing is only exact for inputs matching the trailing
    // dims of the output (full shape, rank-1 bias, broadcast source).
    const std::size_t rin = t->shape().rank(), rout = out_shape.rank();
    require(rin <= rout, this->name(), "input rank exceeds output rank");
    for (std::size_t d = 0; d < rin; ++d)
      require(t->shape().dim(d).equals(out_shape.dim(rout - rin + d)), this->name(),
              "input must match the trailing dims of the output");
  }

  for (Tensor* t : inputs) bind_input(t);
  if (adopt != nullptr) {
    require(adopt->shape().equals(out_shape), this->name(),
            "adopted output shape must match out_shape");
    adopt_output(adopt);
  } else {
    make_output(":out", std::move(out_shape), inputs[0]->dtype());
  }
  flops_ = derive_flops();
  bytes_ = Op::bytes_accessed();
}

sym::Expr FusedPointwiseOp::derive_flops() const {
  const Expr out_elems = output(0)->num_elements();
  Expr total(0.0);
  for (const FusedInstr& instr : program_)
    total = total +
            Expr(pointwise_fn_flops_per_element(instr.fn, instr.args.size())) * out_elems;
  return total;
}

std::vector<Tensor*> FusedPointwiseOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": fusion runs after gradient construction; fused "
                                  "ops are not differentiable");
}

// --- Embedding ---------------------------------------------------------------

EmbeddingLookupOp::EmbeddingLookupOp(Graph* g, std::string name, Tensor* table,
                                     Tensor* ids)
    : Op(g, OpType::kEmbeddingLookup, std::move(name)) {
  require(table && ids, this->name(), "null operand");
  require(table->shape().rank() == 2, this->name(), "table must be (V, E)");
  require(is_integral(ids->dtype()), this->name(), "ids must be integral");
  bind_input(table);
  bind_input(ids);
  std::vector<Expr> out_dims = ids->shape().dims();
  out_dims.push_back(table->shape().dim(1));
  make_output(":out", TensorShape(std::move(out_dims)), table->dtype());
}

sym::Expr EmbeddingLookupOp::bytes_accessed() const {
  // Gather reads only the selected rows (== output size), not the table.
  return Expr(2.0) * output(0)->bytes() + input(1)->bytes();
}

std::vector<Tensor*> EmbeddingLookupOp::build_backward(
    const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  auto* op = graph().add_op<EmbeddingGradOp>(name() + ":dTable", input(1), dy,
                                             input(0)->shape());
  return {op->output(0), nullptr};
}

EmbeddingGradOp::EmbeddingGradOp(Graph* g, std::string name, Tensor* ids,
                                 Tensor* grad_out, TensorShape table_shape)
    : Op(g, OpType::kEmbeddingGrad, std::move(name)) {
  bind_input(ids);
  bind_input(grad_out);
  make_output(":out", std::move(table_shape), grad_out->dtype());
}

sym::Expr EmbeddingGradOp::flops() const {
  // One accumulate per gathered element.
  return input(1)->num_elements();
}

sym::Expr EmbeddingGradOp::bytes_accessed() const {
  // Dense accumulation buffer write plus the gathered gradient rows and ids.
  return input(0)->bytes() + input(1)->bytes() + output(0)->bytes();
}

std::vector<Tensor*> EmbeddingGradOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": gradient ops are not differentiable");
}

// --- Softmax -----------------------------------------------------------------

SoftmaxOp::SoftmaxOp(Graph* g, std::string name, Tensor* logits)
    : Op(g, OpType::kSoftmax, std::move(name)) {
  require(logits != nullptr, this->name(), "null logits");
  require(logits->shape().rank() >= 1, this->name(), "softmax needs rank >= 1");
  bind_input(logits);
  make_output(":out", logits->shape(), logits->dtype());
}

sym::Expr SoftmaxOp::flops() const {
  // max, subtract, exp, accumulate, divide.
  return Expr(5.0) * output(0)->num_elements();
}

std::vector<Tensor*> SoftmaxOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  auto* op = graph().add_op<SoftmaxGradOp>(name() + ":dX", output(0), dy);
  return {op->output(0)};
}

SoftmaxGradOp::SoftmaxGradOp(Graph* g, std::string name, Tensor* y, Tensor* dy)
    : Op(g, OpType::kSoftmaxGrad, std::move(name)) {
  bind_input(y);
  bind_input(dy);
  make_output(":out", y->shape(), y->dtype());
}

sym::Expr SoftmaxGradOp::flops() const {
  // dx = (dy - sum(dy * y)) * y: mul, accumulate, subtract, mul.
  return Expr(4.0) * output(0)->num_elements();
}

std::vector<Tensor*> SoftmaxGradOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": gradient ops are not differentiable");
}

// --- Softmax cross-entropy ----------------------------------------------------

SoftmaxXentOp::SoftmaxXentOp(Graph* g, std::string name, Tensor* logits, Tensor* labels)
    : Op(g, OpType::kSoftmaxXent, std::move(name)) {
  require(logits && labels, this->name(), "null operand");
  require(logits->shape().rank() == 2, this->name(), "logits must be (rows, classes)");
  require(labels->shape().rank() == 1, this->name(), "labels must be (rows)");
  require(is_integral(labels->dtype()), this->name(), "labels must be integral");
  require(logits->shape().dim(0).equals(labels->shape().dim(0)), this->name(),
          "row count mismatch");
  bind_input(logits);
  bind_input(labels);
  make_output(":loss", TensorShape{logits->shape().dim(0)}, logits->dtype());
  make_output(":probs", logits->shape(), logits->dtype());
}

sym::Expr SoftmaxXentOp::flops() const {
  // Softmax (5/elem) plus the log-prob pick per row (amortized ~1/elem).
  return Expr(6.0) * input(0)->num_elements();
}

std::vector<Tensor*> SoftmaxXentOp::build_backward(
    const std::vector<Tensor*>& grad_outputs) {
  Tensor* dloss = grad_outputs.at(0);
  require(dloss != nullptr, name(), "missing loss gradient");
  require(grad_outputs.size() < 2 || grad_outputs[1] == nullptr, name(),
          "gradients flowing into cached probs are unsupported");
  auto* op =
      graph().add_op<SoftmaxXentGradOp>(name() + ":dLogits", probs(), input(1), dloss);
  return {op->output(0), nullptr};
}

SoftmaxXentGradOp::SoftmaxXentGradOp(Graph* g, std::string name, Tensor* probs,
                                     Tensor* labels, Tensor* dloss)
    : Op(g, OpType::kSoftmaxXentGrad, std::move(name)) {
  bind_input(probs);
  bind_input(labels);
  bind_input(dloss);
  make_output(":out", probs->shape(), probs->dtype());
}

sym::Expr SoftmaxXentGradOp::flops() const {
  // (probs - onehot) * dloss: subtract + scale per element.
  return Expr(2.0) * output(0)->num_elements();
}

std::vector<Tensor*> SoftmaxXentGradOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": gradient ops are not differentiable");
}

// --- Reduce / broadcast --------------------------------------------------------

ReduceOp::ReduceOp(Graph* g, std::string name, Tensor* input, ReduceKind kind,
                   std::size_t keep_last_n)
    : Op(g, OpType::kReduce, std::move(name)), kind_(kind), keep_last_n_(keep_last_n) {
  require(input != nullptr, this->name(), "null input");
  require(keep_last_n < input->shape().rank(), this->name(),
          "keep_last_n must drop at least one axis");
  bind_input(input);
  std::vector<Expr> out_dims;
  const std::size_t rank = input->shape().rank();
  for (std::size_t i = rank - keep_last_n; i < rank; ++i)
    out_dims.push_back(input->shape().dim(i));
  make_output(":out", TensorShape(std::move(out_dims)), input->dtype());
}

sym::Expr ReduceOp::reduction_factor() const {
  return input(0)->num_elements() / output(0)->num_elements();
}

sym::Expr ReduceOp::flops() const {
  Expr f = input(0)->num_elements();
  if (kind_ == ReduceKind::kMean) f = f + output(0)->num_elements();
  return f;
}

std::vector<Tensor*> ReduceOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  Graph& g = graph();
  auto* bcast = g.add_op<BroadcastOp>(name() + ":dX_bcast", dy, input(0)->shape());
  Tensor* dx = bcast->output(0);
  if (kind_ == ReduceKind::kMean)
    dx = scale(g, name() + ":dX", dx, Expr(1.0) / reduction_factor());
  return {dx};
}

BroadcastOp::BroadcastOp(Graph* g, std::string name, Tensor* input,
                         TensorShape target_shape)
    : Op(g, OpType::kBroadcast, std::move(name)) {
  require(input != nullptr, this->name(), "null input");
  const std::size_t rin = input->shape().rank(), rout = target_shape.rank();
  require(rin <= rout, this->name(), "target rank must be >= input rank");
  for (std::size_t i = 0; i < rin; ++i)
    require(input->shape().dim(i).equals(target_shape.dim(rout - rin + i)), this->name(),
            "input must match the trailing dims of the target");
  bind_input(input);
  make_output(":out", std::move(target_shape), input->dtype());
}

std::vector<Tensor*> BroadcastOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  if (input(0)->shape().rank() == output(0)->shape().rank()) return {dy};
  // Sum the replicated leading axes back out.
  return {reduce_sum(graph(), name() + ":dX", dy, input(0)->shape().rank())};
}

// --- BatchNorm -----------------------------------------------------------------

BatchNormOp::BatchNormOp(Graph* g, std::string name, Tensor* input, Tensor* scale,
                         Tensor* shift)
    : Op(g, OpType::kBatchNorm, std::move(name)) {
  require(input && scale && shift, this->name(), "null operand");
  require(input->shape().rank() >= 2, this->name(), "input must be rank >= 2");
  const Expr& c = input->shape().dim(input->shape().rank() - 1);
  require(scale->shape().rank() == 1 && scale->shape().dim(0).equals(c), this->name(),
          "scale must be (C)");
  require(shift->shape().rank() == 1 && shift->shape().dim(0).equals(c), this->name(),
          "shift must be (C)");
  bind_input(input);
  bind_input(scale);
  bind_input(shift);
  make_output(":out", input->shape(), input->dtype());
}

sym::Expr BatchNormOp::flops() const {
  // mean, variance, normalize, affine: ~8 FLOPs per element.
  return Expr(8.0) * output(0)->num_elements();
}

std::vector<Tensor*> BatchNormOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  auto* op = graph().add_op<BatchNormGradOp>(name() + ":grad", input(0), input(1), dy);
  return {op->output(0), op->output(1), op->output(2)};
}

BatchNormGradOp::BatchNormGradOp(Graph* g, std::string name, Tensor* input, Tensor* scale,
                                 Tensor* grad_out)
    : Op(g, OpType::kBatchNormGrad, std::move(name)) {
  bind_input(input);
  bind_input(scale);
  bind_input(grad_out);
  make_output(":dX", input->shape(), input->dtype());
  make_output(":dScale", scale->shape(), scale->dtype());
  make_output(":dShift", scale->shape(), scale->dtype());
}

sym::Expr BatchNormGradOp::flops() const {
  return Expr(12.0) * input(0)->num_elements();
}

std::vector<Tensor*> BatchNormGradOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": gradient ops are not differentiable");
}

// --- Pool -----------------------------------------------------------------------

PoolOp::PoolOp(Graph* g, std::string name, Tensor* input, PoolKind kind, int window_h,
               int window_w)
    : Op(g, OpType::kPool, std::move(name)), kind_(kind), window_h_(window_h),
      window_w_(window_w) {
  require(input != nullptr, this->name(), "null input");
  require(input->shape().rank() == 4, this->name(), "input must be NHWC rank 4");
  require(window_h >= 1 && window_w >= 1, this->name(), "window must be >= 1");
  bind_input(input);
  make_output(":out",
              TensorShape{input->shape().dim(0),
                          input->shape().dim(1) / Expr(static_cast<double>(window_h)),
                          input->shape().dim(2) / Expr(static_cast<double>(window_w)),
                          input->shape().dim(3)},
              input->dtype());
}

sym::Expr PoolOp::flops() const {
  // Each input element is compared/accumulated once.
  return input(0)->num_elements();
}

std::vector<Tensor*> PoolOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  auto* op = graph().add_op<PoolGradOp>(name() + ":dX", input(0), output(0), dy, kind_,
                                        window_h_, window_w_);
  return {op->output(0)};
}

PoolGradOp::PoolGradOp(Graph* g, std::string name, Tensor* input, Tensor* output,
                       Tensor* grad_out, PoolKind kind, int window_h, int window_w)
    : Op(g, OpType::kPoolGrad, std::move(name)), kind_(kind), window_h_(window_h),
      window_w_(window_w) {
  bind_input(input);
  bind_input(output);
  bind_input(grad_out);
  make_output(":out", input->shape(), input->dtype());
}

sym::Expr PoolGradOp::flops() const { return output(0)->num_elements(); }

std::vector<Tensor*> PoolGradOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": gradient ops are not differentiable");
}

// --- Concat / Split / Slice / Reshape --------------------------------------------

ConcatOp::ConcatOp(Graph* g, std::string name, std::vector<Tensor*> inputs,
                   std::size_t axis)
    : Op(g, OpType::kConcat, std::move(name)), axis_(axis) {
  require(inputs.size() >= 2, this->name(), "concat needs >= 2 inputs");
  const TensorShape& first = inputs[0]->shape();
  require(axis < first.rank(), this->name(), "axis out of range");
  Expr axis_total(0.0);
  for (Tensor* t : inputs) {
    require(t != nullptr, this->name(), "null input");
    require(t->shape().rank() == first.rank(), this->name(), "rank mismatch");
    for (std::size_t d = 0; d < first.rank(); ++d)
      if (d != axis)
        require(t->shape().dim(d).equals(first.dim(d)), this->name(),
                "non-axis dims must match");
    axis_total = axis_total + t->shape().dim(axis);
  }
  for (Tensor* t : inputs) bind_input(t);
  std::vector<Expr> out_dims = first.dims();
  out_dims[axis] = axis_total;
  make_output(":out", TensorShape(std::move(out_dims)), inputs[0]->dtype());
}

std::vector<Tensor*> ConcatOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  Graph& g = graph();
  std::vector<Tensor*> grads;
  grads.reserve(inputs().size());
  Expr offset(0.0);
  for (std::size_t i = 0; i < inputs().size(); ++i) {
    const Expr size = input(i)->shape().dim(axis_);
    auto* slice = g.add_op<SliceOp>(name() + ":d" + std::to_string(i), dy, axis_, offset,
                                    size);
    grads.push_back(slice->output(0));
    offset = offset + size;
  }
  return grads;
}

SplitOp::SplitOp(Graph* g, std::string name, Tensor* input, std::size_t axis,
                 std::size_t parts)
    : Op(g, OpType::kSplit, std::move(name)), axis_(axis), parts_(parts) {
  require(input != nullptr, this->name(), "null input");
  require(parts >= 1, this->name(), "parts must be >= 1");
  require(axis < input->shape().rank(), this->name(), "axis out of range");
  bind_input(input);
  std::vector<Expr> out_dims = input->shape().dims();
  out_dims[axis] = out_dims[axis] / Expr(static_cast<double>(parts));
  for (std::size_t i = 0; i < parts; ++i)
    make_output(":out" + std::to_string(i), TensorShape(out_dims), input->dtype());
}

std::vector<Tensor*> SplitOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  std::vector<Tensor*> grads(grad_outputs);
  for (std::size_t i = 0; i < grads.size(); ++i)
    require(grads[i] != nullptr, name(),
            "missing gradient for split output " + std::to_string(i) +
                " (every split piece must reach the loss)");
  Tensor* dx = concat(graph(), name() + ":dX", std::move(grads), axis_);
  return {dx};
}

SliceOp::SliceOp(Graph* g, std::string name, Tensor* input, std::size_t axis,
                 sym::Expr offset, sym::Expr size)
    : Op(g, OpType::kSlice, std::move(name)), axis_(axis), offset_(std::move(offset)) {
  require(input != nullptr, this->name(), "null input");
  require(axis < input->shape().rank(), this->name(), "axis out of range");
  bind_input(input);
  std::vector<Expr> out_dims = input->shape().dims();
  out_dims[axis] = std::move(size);
  make_output(":out", TensorShape(std::move(out_dims)), input->dtype());
}

sym::Expr SliceOp::bytes_accessed() const {
  // Reads only the sliced region and writes it out.
  return Expr(2.0) * output(0)->bytes();
}

std::vector<Tensor*> SliceOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": slices appear only in gradient paths");
}

ReshapeOp::ReshapeOp(Graph* g, std::string name, Tensor* input, TensorShape new_shape)
    : Op(g, OpType::kReshape, std::move(name)) {
  require(input != nullptr, this->name(), "null input");
  require(input->num_elements().equals(new_shape.num_elements()), this->name(),
          "reshape must preserve element count: " + input->shape().str() + " -> " +
              new_shape.str());
  bind_input(input);
  make_output(":out", std::move(new_shape), input->dtype());
}

std::vector<Tensor*> ReshapeOp::build_backward(const std::vector<Tensor*>& grad_outputs) {
  Tensor* dy = grad_outputs.at(0);
  require(dy != nullptr, name(), "missing output gradient");
  return {reshape(graph(), name() + ":dX", dy, input(0)->shape())};
}

// --- ApplyGradient -----------------------------------------------------------------

ApplyGradientOp::ApplyGradientOp(Graph* g, std::string name, Tensor* weight, Tensor* grad,
                                 Optimizer optimizer)
    : Op(g, OpType::kApplyGradient, std::move(name)), optimizer_(optimizer) {
  require(weight && grad, this->name(), "null operand");
  require(weight->role() == TensorRole::kWeight, this->name(),
          "first operand must be a weight");
  require(weight->shape().equals(grad->shape()), this->name(),
          "gradient shape must match weight");
  bind_input(weight);
  bind_input(grad);
  for (std::size_t s = 0; s < num_slots(); ++s) {
    Tensor* slot =
        graph().make_tensor(this->name() + ":slot" + std::to_string(s), weight->shape(),
                            weight->dtype(), TensorRole::kOptimizerState);
    bind_input(slot);
  }
}

std::size_t ApplyGradientOp::num_slots() const {
  switch (optimizer_) {
    case Optimizer::kSGD:
      return 0;
    case Optimizer::kMomentum:
      return 1;
    case Optimizer::kAdam:
      return 2;
  }
  return 0;
}

sym::Expr ApplyGradientOp::flops() const {
  double per_element = 2.0;  // SGD: scale + subtract
  if (optimizer_ == Optimizer::kMomentum) per_element = 4.0;
  if (optimizer_ == Optimizer::kAdam) per_element = 10.0;
  return Expr(per_element) * input(0)->num_elements();
}

sym::Expr ApplyGradientOp::bytes_accessed() const {
  // Weight read + write, gradient read, each slot read + written.
  const Expr w = input(0)->bytes();
  return Expr(2.0) * w + input(1)->bytes() +
         Expr(2.0 * static_cast<double>(num_slots())) * w;
}

std::vector<Tensor*> ApplyGradientOp::build_backward(const std::vector<Tensor*>&) {
  throw std::logic_error(name() + ": weight updates are not differentiable");
}

// --- builder functions ----------------------------------------------------------------

Tensor* matmul(Graph& g, const std::string& name, Tensor* a, Tensor* b, bool trans_a,
               bool trans_b) {
  return g.add_op<MatMulOp>(name, a, b, trans_a, trans_b)->output(0);
}

Tensor* conv2d(Graph& g, const std::string& name, Tensor* input, Tensor* filter,
               int stride) {
  return g.add_op<Conv2DOp>(name, input, filter, stride)->output(0);
}

Tensor* pointwise(Graph& g, const std::string& name, PointwiseFn fn,
                  std::vector<Tensor*> inputs) {
  return g.add_op<PointwiseOp>(name, fn, std::move(inputs))->output(0);
}

Tensor* add(Graph& g, const std::string& name, Tensor* a, Tensor* b) {
  return pointwise(g, name, PointwiseFn::kAdd, {a, b});
}
Tensor* sub(Graph& g, const std::string& name, Tensor* a, Tensor* b) {
  return pointwise(g, name, PointwiseFn::kSub, {a, b});
}
Tensor* mul(Graph& g, const std::string& name, Tensor* a, Tensor* b) {
  return pointwise(g, name, PointwiseFn::kMul, {a, b});
}
Tensor* add_n(Graph& g, const std::string& name, std::vector<Tensor*> inputs) {
  if (inputs.size() == 1) return inputs[0];
  return pointwise(g, name, PointwiseFn::kAddN, std::move(inputs));
}
Tensor* sigmoid(Graph& g, const std::string& name, Tensor* x) {
  return pointwise(g, name, PointwiseFn::kSigmoid, {x});
}
Tensor* tanh(Graph& g, const std::string& name, Tensor* x) {
  return pointwise(g, name, PointwiseFn::kTanh, {x});
}
Tensor* relu(Graph& g, const std::string& name, Tensor* x) {
  return pointwise(g, name, PointwiseFn::kRelu, {x});
}
Tensor* one_minus(Graph& g, const std::string& name, Tensor* x) {
  return pointwise(g, name, PointwiseFn::kOneMinus, {x});
}
Tensor* scale(Graph& g, const std::string& name, Tensor* x, sym::Expr alpha) {
  return g.add_op<PointwiseOp>(name, PointwiseFn::kScale, std::vector<Tensor*>{x},
                               std::move(alpha))
      ->output(0);
}
Tensor* bias_add(Graph& g, const std::string& name, Tensor* input, Tensor* bias) {
  return g.add_op<BiasAddOp>(name, input, bias)->output(0);
}
Tensor* embedding_lookup(Graph& g, const std::string& name, Tensor* table, Tensor* ids) {
  return g.add_op<EmbeddingLookupOp>(name, table, ids)->output(0);
}
Tensor* softmax(Graph& g, const std::string& name, Tensor* logits) {
  return g.add_op<SoftmaxOp>(name, logits)->output(0);
}
std::pair<Tensor*, Tensor*> softmax_xent(Graph& g, const std::string& name,
                                         Tensor* logits, Tensor* labels) {
  auto* op = g.add_op<SoftmaxXentOp>(name, logits, labels);
  return {op->loss(), op->probs()};
}
Tensor* reduce_sum(Graph& g, const std::string& name, Tensor* input,
                   std::size_t keep_last_n) {
  return g.add_op<ReduceOp>(name, input, ReduceKind::kSum, keep_last_n)->output(0);
}
Tensor* reduce_mean(Graph& g, const std::string& name, Tensor* input,
                    std::size_t keep_last_n) {
  return g.add_op<ReduceOp>(name, input, ReduceKind::kMean, keep_last_n)->output(0);
}
Tensor* batch_norm(Graph& g, const std::string& name, Tensor* input, Tensor* scale,
                   Tensor* shift) {
  return g.add_op<BatchNormOp>(name, input, scale, shift)->output(0);
}
Tensor* pool(Graph& g, const std::string& name, Tensor* input, PoolKind kind,
             int window_h, int window_w) {
  return g.add_op<PoolOp>(name, input, kind, window_h, window_w)->output(0);
}
Tensor* concat(Graph& g, const std::string& name, std::vector<Tensor*> inputs,
               std::size_t axis) {
  return g.add_op<ConcatOp>(name, std::move(inputs), axis)->output(0);
}
std::vector<Tensor*> split(Graph& g, const std::string& name, Tensor* input,
                           std::size_t axis, std::size_t parts) {
  return g.add_op<SplitOp>(name, input, axis, parts)->outputs();
}
Tensor* reshape(Graph& g, const std::string& name, Tensor* input, TensorShape new_shape) {
  return g.add_op<ReshapeOp>(name, input, std::move(new_shape))->output(0);
}

}  // namespace gf::ir
