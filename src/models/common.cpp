#include "src/models/common.h"

#include <cmath>
#include <stdexcept>

#include "src/verify/pass.h"

namespace gf::models {

using ir::Graph;
using ir::Tensor;
using ir::TensorShape;
using sym::Expr;

const char* domain_name(Domain domain) {
  switch (domain) {
    case Domain::kWordLM: return "Word LMs (LSTM)";
    case Domain::kCharLM: return "Character LMs (RHN)";
    case Domain::kNMT: return "NMT (enc/dec+attn)";
    case Domain::kSpeech: return "Speech Recogn. (enc/dec+attn)";
    case Domain::kImage: return "Image Classification (ResNet)";
  }
  return "?";
}

sym::Bindings ModelSpec::bind(double hidden, double batch) const {
  return {{kHiddenSymbol, hidden}, {kBatchSymbol, batch}};
}

double ModelSpec::params_at(double hidden) const {
  return params.eval({{kHiddenSymbol, hidden}});
}

double ModelSpec::hidden_for_params(double target_params) const {
  return solve_for_params(params, kHiddenSymbol, target_params);
}

double solve_for_params(const sym::Expr& params, const std::string& symbol,
                        double target_params) {
  if (target_params <= 0) throw std::invalid_argument("target_params must be positive");
  sym::Bindings bind;
  const auto params_at = [&](double value) {
    bind[symbol] = value;
    return params.eval(bind);
  };
  double lo = 1.0, hi = 2.0;
  while (params_at(hi) < target_params) {
    hi *= 2.0;
    if (hi > 1e12) throw std::runtime_error("solve_for_params: target unreachable");
  }
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-9 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (params_at(mid) < target_params ? lo : hi) = mid;
  }
  return hi;
}

namespace {

/// Zero-initialized recurrent state enters the graph as an input tensor.
Tensor* zero_state(Graph& g, const std::string& name, const Expr& dim) {
  return g.add_input(name, TensorShape{Expr::symbol(kBatchSymbol), dim});
}

}  // namespace

std::vector<Tensor*> lstm_layer(Graph& g, const std::string& name,
                                const std::vector<Tensor*>& xs, const Expr& input_dim,
                                const Expr& hidden_dim, bool reverse,
                                const Expr* projection_dim) {
  if (xs.empty()) throw std::invalid_argument(name + ": empty input sequence");
  const Expr out_dim = projection_dim ? *projection_dim : hidden_dim;

  Tensor* w = g.add_weight(name + ":W", {input_dim + out_dim, Expr(4) * hidden_dim});
  Tensor* b = g.add_weight(name + ":b", {Expr(4) * hidden_dim});
  Tensor* w_proj =
      projection_dim ? g.add_weight(name + ":Wp", {hidden_dim, *projection_dim}) : nullptr;

  Tensor* h = zero_state(g, name + ":h0", out_dim);
  Tensor* c = zero_state(g, name + ":c0", hidden_dim);

  std::vector<Tensor*> outputs(xs.size(), nullptr);
  for (std::size_t step = 0; step < xs.size(); ++step) {
    const std::size_t t = reverse ? xs.size() - 1 - step : step;
    const std::string sn = name + ":t" + std::to_string(t);
    Tensor* z = ir::concat(g, sn + ":z", {xs[t], h}, 1);
    Tensor* pre = ir::bias_add(g, sn + ":pre", ir::matmul(g, sn + ":gates", z, w), b);
    const auto gates = ir::split(g, sn + ":split", pre, 1, 4);
    Tensor* i = ir::sigmoid(g, sn + ":i", gates[0]);
    Tensor* f = ir::sigmoid(g, sn + ":f", gates[1]);
    Tensor* gg = ir::tanh(g, sn + ":g", gates[2]);
    Tensor* o = ir::sigmoid(g, sn + ":o", gates[3]);
    c = ir::add(g, sn + ":c", ir::mul(g, sn + ":fc", f, c), ir::mul(g, sn + ":ig", i, gg));
    Tensor* ht = ir::mul(g, sn + ":h", o, ir::tanh(g, sn + ":tc", c));
    if (w_proj) ht = ir::matmul(g, sn + ":proj", ht, w_proj);
    h = ht;
    outputs[t] = ht;
  }
  return outputs;
}

std::vector<Tensor*> bilstm_layer(Graph& g, const std::string& name,
                                  const std::vector<Tensor*>& xs, const Expr& input_dim,
                                  const Expr& hidden_dim) {
  const auto fwd = lstm_layer(g, name + ":fwd", xs, input_dim, hidden_dim, false);
  const auto bwd = lstm_layer(g, name + ":bwd", xs, input_dim, hidden_dim, true);
  std::vector<Tensor*> out(xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t)
    out[t] = ir::concat(g, name + ":cat" + std::to_string(t), {fwd[t], bwd[t]}, 1);
  return out;
}

std::vector<Tensor*> gru_layer(Graph& g, const std::string& name,
                               const std::vector<Tensor*>& xs, const Expr& input_dim,
                               const Expr& hidden_dim) {
  if (xs.empty()) throw std::invalid_argument(name + ": empty input sequence");

  Tensor* w_gates = g.add_weight(name + ":Wzr", {input_dim + hidden_dim,
                                                 Expr(2) * hidden_dim});
  Tensor* b_gates = g.add_weight(name + ":bzr", {Expr(2) * hidden_dim});
  Tensor* w_cand = g.add_weight(name + ":Wh", {input_dim + hidden_dim, hidden_dim});
  Tensor* b_cand = g.add_weight(name + ":bh", {hidden_dim});

  Tensor* h = zero_state(g, name + ":h0", hidden_dim);
  std::vector<Tensor*> outputs;
  outputs.reserve(xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const std::string sn = name + ":t" + std::to_string(t);
    Tensor* zcat = ir::concat(g, sn + ":z", {xs[t], h}, 1);
    Tensor* pre = ir::bias_add(g, sn + ":pre",
                               ir::matmul(g, sn + ":gates", zcat, w_gates), b_gates);
    const auto gates = ir::split(g, sn + ":split", pre, 1, 2);
    Tensor* z = ir::sigmoid(g, sn + ":zg", gates[0]);  // update gate
    Tensor* r = ir::sigmoid(g, sn + ":rg", gates[1]);  // reset gate
    Tensor* rh = ir::mul(g, sn + ":rh", r, h);
    Tensor* ccat = ir::concat(g, sn + ":cc", {xs[t], rh}, 1);
    Tensor* cand = ir::tanh(
        g, sn + ":cand",
        ir::bias_add(g, sn + ":cb", ir::matmul(g, sn + ":cm", ccat, w_cand), b_cand));
    // h' = (1-z)*h + z*cand
    Tensor* keep = ir::mul(g, sn + ":keep", ir::one_minus(g, sn + ":nz", z), h);
    h = ir::add(g, sn + ":h", keep, ir::mul(g, sn + ":upd", z, cand));
    outputs.push_back(h);
  }
  return outputs;
}

std::vector<Tensor*> rhn_layer(Graph& g, const std::string& name,
                               const std::vector<Tensor*>& xs, const Expr& input_dim,
                               const Expr& hidden_dim, int depth) {
  if (depth < 1) throw std::invalid_argument(name + ": depth must be >= 1");
  if (xs.empty()) throw std::invalid_argument(name + ": empty input sequence");

  // Sublayer 0 consumes [x_t, s]; deeper sublayers transform s alone.
  std::vector<Tensor*> wh(depth), wt(depth), bh(depth), bt(depth);
  for (int d = 0; d < depth; ++d) {
    const Expr in_dim = (d == 0) ? input_dim + hidden_dim : hidden_dim;
    const std::string dn = name + ":d" + std::to_string(d);
    wh[d] = g.add_weight(dn + ":Wh", {in_dim, hidden_dim});
    wt[d] = g.add_weight(dn + ":Wt", {in_dim, hidden_dim});
    bh[d] = g.add_weight(dn + ":bh", {hidden_dim});
    bt[d] = g.add_weight(dn + ":bt", {hidden_dim});
  }

  Tensor* s = zero_state(g, name + ":s0", hidden_dim);
  std::vector<Tensor*> outputs;
  outputs.reserve(xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    for (int d = 0; d < depth; ++d) {
      const std::string sn =
          name + ":t" + std::to_string(t) + ":d" + std::to_string(d);
      Tensor* in = (d == 0) ? ir::concat(g, sn + ":z", {xs[t], s}, 1) : s;
      Tensor* hh = ir::tanh(
          g, sn + ":h",
          ir::bias_add(g, sn + ":hb", ir::matmul(g, sn + ":hm", in, wh[d]), bh[d]));
      Tensor* tt = ir::sigmoid(
          g, sn + ":t",
          ir::bias_add(g, sn + ":tb", ir::matmul(g, sn + ":tm", in, wt[d]), bt[d]));
      // s' = h*t + s*(1-t)  (coupled carry gate c = 1 - t).
      Tensor* carry = ir::mul(g, sn + ":sc", s, ir::one_minus(g, sn + ":c", tt));
      s = ir::add(g, sn + ":s", ir::mul(g, sn + ":ht", hh, tt), carry);
    }
    outputs.push_back(s);
  }
  return outputs;
}

Tensor* attention_step(Graph& g, const std::string& name, Tensor* enc, int enc_steps,
                       Tensor* query, const Expr& enc_dim, const Expr& query_dim,
                       Tensor* w_query, Tensor* w_combine) {
  const Expr batch = Expr::symbol(kBatchSymbol);
  const Expr steps(static_cast<double>(enc_steps));
  (void)query_dim;

  // Projected query scores every encoder state via a batched dot product.
  Tensor* q_proj = ir::matmul(g, name + ":qp", query, w_query);  // (B, He)
  Tensor* q3 = ir::reshape(g, name + ":q3", q_proj, TensorShape{batch, enc_dim, Expr(1)});
  Tensor* scores3 = ir::matmul(g, name + ":scores", enc, q3);  // (B, T, 1)
  Tensor* scores = ir::reshape(g, name + ":s2", scores3, TensorShape{batch, steps});
  Tensor* probs = ir::softmax(g, name + ":probs", scores);
  Tensor* p3 = ir::reshape(g, name + ":p3", probs, TensorShape{batch, steps, Expr(1)});
  // context = enc^T . probs : (B, He, 1)
  Tensor* ctx3 = ir::matmul(g, name + ":ctx", enc, p3, /*trans_a=*/true);
  Tensor* ctx = ir::reshape(g, name + ":ctx2", ctx3, TensorShape{batch, enc_dim});
  // Attentional output: tanh(Wc [ctx; query]).
  Tensor* cat = ir::concat(g, name + ":cat", {ctx, query}, 1);
  return ir::tanh(g, name + ":out", ir::matmul(g, name + ":comb", cat, w_combine));
}

std::vector<Tensor*> split_timesteps(Graph& g, const std::string& name, Tensor* seq,
                                     int steps) {
  const Expr batch = Expr::symbol(kBatchSymbol);
  const Expr dim = seq->shape().dim(2);
  auto parts = ir::split(g, name + ":split", seq, 1, static_cast<std::size_t>(steps));
  std::vector<Tensor*> out(parts.size());
  for (std::size_t t = 0; t < parts.size(); ++t)
    out[t] = ir::reshape(g, name + ":x" + std::to_string(t), parts[t],
                         TensorShape{batch, dim});
  return out;
}

Tensor* stack_timesteps(Graph& g, const std::string& name,
                        const std::vector<Tensor*>& steps) {
  if (steps.empty()) throw std::invalid_argument(name + ": empty sequence");
  const Expr batch = Expr::symbol(kBatchSymbol);
  std::vector<Tensor*> lifted(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t)
    lifted[t] = ir::reshape(g, name + ":l" + std::to_string(t), steps[t],
                            TensorShape{batch, Expr(1), steps[t]->shape().dim(1)});
  return ir::concat(g, name + ":stack", std::move(lifted), 1);
}

Tensor* sequence_output_loss(Graph& g, const std::string& name, Tensor* states,
                             int steps, const Expr& dim, int vocab, Tensor* labels) {
  const Expr batch = Expr::symbol(kBatchSymbol);
  const Expr rows = batch * Expr(steps);
  Tensor* flat = ir::reshape(g, name + ":flat", states, TensorShape{rows, dim});
  Tensor* w_out = g.add_weight(name + ":Wout", {dim, Expr(vocab)});
  Tensor* b_out = g.add_weight(name + ":bout", {Expr(vocab)});
  Tensor* logits =
      ir::bias_add(g, name + ":logits_b", ir::matmul(g, name + ":logits", flat, w_out),
                   b_out);
  auto [per_row, probs] = ir::softmax_xent(g, name + ":xent", logits, labels);
  (void)probs;
  return ir::reduce_mean(g, name + ":loss", per_row);
}

ModelSpec finalize_model(std::string name, Domain domain, std::unique_ptr<Graph> graph,
                         Tensor* loss, int samples_per_batch_row,
                         const TrainingOptions& training) {
  ir::build_training_step(*graph, loss, {.optimizer = training.optimizer});
  // Builds run the four cheap passes that guard what construction cannot:
  // wiring, shapes, dims provably positive (symbolic is the only check that
  // rejects a zero vocab, class count or projection width) and one update
  // per weight. The other seven cost 77-98% of a full run and run where
  // their report is read: gfctl lint, serve's lint kind, the executor's
  // verify option, ir::deserialize, and the tests that lint every model.
  verify::validate_or_throw(
      *graph, {.passes = {"structure", "shapes", "symbolic", "gradients"}});
  ModelSpec spec;
  spec.name = std::move(name);
  spec.domain = domain;
  spec.loss = loss;
  spec.params = graph->parameter_count();
  spec.graph = std::move(graph);
  spec.samples_per_batch_row = samples_per_batch_row;
  if (!spec.params.free_symbols().empty() &&
      spec.params.free_symbols() != std::set<std::string>{kHiddenSymbol})
    throw std::logic_error(spec.name + ": parameters must depend on 'hidden' only");
  return spec;
}

}  // namespace gf::models
