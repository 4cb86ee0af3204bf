#include "src/ir/fusion.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ir/ops.h"
#include "src/ir/semantics.h"

namespace gf::ir {
namespace {

bool is_integral_dtype(DataType t) {
  return t == DataType::kInt32 || t == DataType::kInt64;
}

bool is_unary_act(const Op& op) {
  if (op.type() != OpType::kPointwise || op.inputs().size() != 1) return false;
  const auto fn = static_cast<const PointwiseOp&>(op).fn();
  return fn == PointwiseFn::kSigmoid || fn == PointwiseFn::kTanh ||
         fn == PointwiseFn::kRelu;
}

/// A tensor that may disappear into a fused group: plain activation (not
/// retagged persistent, not a graph input) read by exactly one op.
bool eliminable(const Tensor* t) {
  return t->role() == TensorRole::kActivation && t->consumers().size() == 1;
}

bool fusible(const Op& op) {
  return op.type() == OpType::kPointwise || op.type() == OpType::kBiasAdd;
}

// --- GEMM epilogues ----------------------------------------------------------

void fuse_gemm_epilogues(Graph& g, FusionResult& result) {
  // Candidates are collected on a frozen op list first; each rewrite is
  // local and candidates are disjoint (every folded edge is the sole
  // consumer of its tensor), so applying them in sequence is safe.
  struct Candidate {
    MatMulOp* mm = nullptr;
    Op* bias_op = nullptr;  // BiasAddOp, or null
    Op* act_op = nullptr;   // unary activation PointwiseOp, or null
  };
  std::vector<Candidate> candidates;
  for (const auto& op : g.ops()) {
    if (op->type() != OpType::kMatMul) continue;
    auto* mm = static_cast<MatMulOp*>(op.get());
    if (mm->has_epilogue()) continue;
    Tensor* out = mm->output(0);
    if (!eliminable(out)) continue;
    Op* consumer = const_cast<Op*>(out->consumers()[0]);
    Candidate c;
    c.mm = mm;
    if (consumer->type() == OpType::kBiasAdd && consumer->input(0) == out) {
      c.bias_op = consumer;
      Tensor* bias_out = consumer->output(0);
      if (eliminable(bias_out)) {
        Op* next = const_cast<Op*>(bias_out->consumers()[0]);
        if (is_unary_act(*next)) c.act_op = next;
      }
    } else if (is_unary_act(*consumer)) {
      c.act_op = consumer;
    } else {
      continue;
    }
    candidates.push_back(c);
  }

  for (const Candidate& c : candidates) {
    Tensor* mm_out = c.mm->output(0);
    Tensor* bias = nullptr;
    Tensor* bias_out = nullptr;
    PointwiseFn act = PointwiseFn::kIdentity;
    Tensor* final_out = mm_out;
    if (c.bias_op != nullptr) {
      bias = c.bias_op->input(1);
      bias_out = c.bias_op->output(0);
      final_out = bias_out;
    }
    if (c.act_op != nullptr) {
      act = static_cast<PointwiseOp*>(c.act_op)->fn();
      final_out = c.act_op->output(0);
    }

    // The MatMul absorbs the bias input and adopts the chain's final
    // tensor; the folded ops and interior tensors leave the graph.
    c.mm->fuse_epilogue(bias, act, final_out);
    if (c.bias_op != nullptr) {
      mm_out->remove_consumer(c.bias_op);
      bias->remove_consumer(c.bias_op);
    }
    if (c.act_op != nullptr)
      (c.bias_op != nullptr ? bias_out : mm_out)->remove_consumer(c.act_op);
    g.remove_tensor(mm_out);
    if (c.bias_op != nullptr && c.act_op != nullptr) g.remove_tensor(bias_out);
    if (c.bias_op != nullptr) {
      g.remove_op(c.bias_op);
      ++result.ops_removed;
      ++result.tensors_removed;
    }
    if (c.act_op != nullptr) {
      g.remove_op(c.act_op);
      ++result.ops_removed;
      ++result.tensors_removed;
    }
    ++result.gemm_epilogues;
  }
}

// --- Pointwise chains/trees --------------------------------------------------

void fuse_pointwise_chains(Graph& g, FusionResult& result) {
  const std::vector<const Op*> topo = g.topological_order();
  std::unordered_map<const Op*, std::size_t> topo_index;
  topo_index.reserve(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) topo_index.emplace(topo[i], i);

  std::unordered_set<const Op*> taken;

  struct Group {
    std::vector<Op*> members;                   // PointwiseOp / BiasAddOp
    std::vector<Op*> broadcasts;                // absorbed Broadcast feeders
    std::unordered_map<const Tensor*, Tensor*> bcast_source;  // bcast out -> in
    Op* root = nullptr;
  };
  std::vector<Group> groups;

  // Reverse topological order: the most-downstream op of every chain is
  // visited first, claims the whole eligible upstream region, and so is
  // the natural group root (downstream consumers keep its output tensor).
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Op* op = const_cast<Op*>(*it);
    if (!fusible(*op) || taken.count(op) != 0) continue;
    Tensor* root_out = op->output(0);
    if (is_integral_dtype(root_out->dtype())) continue;
    const TensorShape& root_shape = root_out->shape();

    Group group;
    group.root = op;
    group.members.push_back(op);
    std::unordered_set<const Op*> in_group{op};
    for (std::size_t head = 0; head < group.members.size(); ++head) {
      Op* m = group.members[head];
      for (Tensor* t : m->inputs()) {
        Op* p = const_cast<Op*>(t->producer());
        if (p == nullptr || !eliminable(t) || taken.count(p) != 0 ||
            in_group.count(p) != 0)
          continue;
        if (fusible(*p) && p->outputs().size() == 1 && p->output(0) == t &&
            t->shape().equals(root_shape) &&
            group.members.size() < FusedPointwiseOp::kMaxInstrs) {
          group.members.push_back(p);
          in_group.insert(p);
        } else if (p->type() == OpType::kBroadcast && p->output(0) == t &&
                   t->shape().equals(root_shape)) {
          // A broadcast feeding the group is pure data movement; the
          // fused kernel's modulo addressing reads its source directly.
          group.broadcasts.push_back(p);
          in_group.insert(p);
          group.bcast_source.emplace(t, p->input(0));
        }
      }
    }
    if (group.members.size() + group.broadcasts.size() < 2) continue;

    // Externals, deduplicated, broadcast outputs resolved to sources: the
    // fused op's inputs. A group wider than FusedPointwiseOp accepts is
    // rejected whole, leaving upstream roots to form narrower groups.
    std::vector<const Tensor*> ext;
    {
      std::unordered_set<const Tensor*> seen;
      for (const Op* m : group.members)
        for (Tensor* t : m->inputs()) {
          const Op* p = t->producer();
          if (p != nullptr && in_group.count(p) != 0 &&
              p->type() != OpType::kBroadcast)
            continue;
          auto bit = group.bcast_source.find(t);
          const Tensor* src = bit == group.bcast_source.end() ? t : bit->second;
          if (seen.insert(src).second) ext.push_back(src);
        }
    }
    if (ext.size() > FusedPointwiseOp::kMaxInputs) continue;

    // Liveness-neutrality gate. Fusing runs every member at one schedule
    // point (right after the last external is produced), which extends
    // each external's life to that point and the output's life back to
    // it, while the eliminated intermediates stop occupying their
    // original spans. For clustered producers (an LSTM cell body) the
    // trade is a wash or a win; for spread-out producers (the pairwise
    // gradient-accumulation tree, whose leaves arrive one timestep apart)
    // it would hold every contribution live simultaneously where the
    // unfused tree consumed them incrementally. Count concurrently-live
    // root-shaped buffers over the schedule and reject any group whose
    // fusion raises that count anywhere — rejection leaves the members
    // unclaimed, so later (more upstream) roots in this reverse-topo walk
    // re-form smaller subgroups that do pass.
    const auto group_live_delta_ok = [&]() {
      // Fused execution slot: ready right after the last external exists
      // (list placement below makes the tiebreak pick it up immediately).
      std::size_t e = 0;
      for (const Tensor* u : ext)
        if (u->producer() != nullptr)
          e = std::max(e, topo_index.at(u->producer()));
      const std::size_t f = e + 1;

      // Count concurrently-live root-shaped transients the group touches,
      // per schedule index, under each schedule. All counted tensors have
      // identical byte size, so comparing counts compares bytes.
      std::vector<int> before(topo.size() + 2, 0);
      std::vector<int> after(topo.size() + 2, 0);
      const auto add = [](std::vector<int>& acc, std::size_t lo, std::size_t hi) {
        if (lo > hi) return;
        acc[lo] += 1;
        acc[hi + 1] -= 1;
      };
      // Intermediates: live producer -> sole in-group consumer; gone fused.
      const auto add_intermediate = [&](const Op* p) {
        add(before, topo_index.at(p), topo_index.at(p->output(0)->consumers()[0]));
      };
      for (const Op* m : group.members)
        if (m != group.root) add_intermediate(m);
      for (const Op* b : group.broadcasts) add_intermediate(b);
      // Root output: appears at the root unfused, at the fused slot fused.
      {
        const Tensor* out = group.root->output(0);
        std::size_t last = topo_index.at(group.root);
        for (const Op* c : out->consumers()) last = std::max(last, topo_index.at(c));
        add(before, topo_index.at(group.root), last);
        add(after, f, std::max(f, last));
      }
      // Externals: fused, each lives until the fused slot (or its latest
      // surviving outside reader); unfused, until its latest reader.
      for (const Tensor* u : ext) {
        if (u->is_persistent() || !u->shape().equals(root_shape)) continue;
        const std::size_t def =
            u->producer() == nullptr ? 0 : topo_index.at(u->producer());
        std::size_t last_any = def;
        std::size_t last_outside = 0;
        bool has_outside = false;
        for (const Op* c : u->consumers()) {
          const std::size_t pos = topo_index.at(c);
          last_any = std::max(last_any, pos);
          if (in_group.count(c) == 0) {
            last_outside = std::max(last_outside, pos);
            has_outside = true;
          }
        }
        add(before, def, last_any);
        add(after, def, has_outside ? std::max(f, last_outside) : f);
      }
      int live0 = 0, live1 = 0, max0 = 0, max1 = 0;
      for (std::size_t i = 0; i < before.size(); ++i) {
        max0 = std::max(max0, live0 += before[i]);
        max1 = std::max(max1, live1 += after[i]);
      }
      return max1 <= max0;
    };
    if (!group_live_delta_ok()) continue;

    for (const Op* m : group.members) taken.insert(m);
    for (const Op* b : group.broadcasts) taken.insert(b);
    groups.push_back(std::move(group));
  }

  for (Group& group : groups) {
    // Members in topological order; the root (largest index) runs last and
    // its instruction is the program's output.
    std::sort(group.members.begin(), group.members.end(),
              [&](const Op* a, const Op* b) {
                return topo_index.at(a) < topo_index.at(b);
              });
    std::unordered_set<const Op*> member_set(group.members.begin(),
                                             group.members.end());

    // Pass 1: external inputs in first-use order, deduplicated. Broadcast
    // outputs resolve to their sources.
    std::vector<Tensor*> ext_inputs;
    std::unordered_map<const Tensor*, int> ext_index;
    auto resolve = [&](Tensor* t) -> Tensor* {
      auto it = group.bcast_source.find(t);
      return it == group.bcast_source.end() ? t : it->second;
    };
    // The unfused chain collapses in place: each member overwrites its
    // first input, so the whole chain's storage aliases the first input of
    // its most-upstream link. Present that tensor as external 0 — the
    // memory planner's in-place rule keys on input(0) — so the fused op
    // offers the planner the very same reuse and the fused slab never
    // loses bytes to the rewrite.
    Tensor* alias_src = nullptr;
    for (const Op* cur = group.root; cur != nullptr && !cur->inputs().empty();) {
      Tensor* t = cur->inputs()[0];
      const Op* p = t->producer();
      if (p != nullptr && member_set.count(p) != 0) {
        cur = p;
        continue;
      }
      Tensor* src = resolve(t);
      const bool group_only_readers =
          std::all_of(src->consumers().begin(), src->consumers().end(),
                      [&](const Op* c) { return member_set.count(c) != 0; });
      if (src->role() == TensorRole::kActivation && group_only_readers &&
          src->shape().equals(group.root->output(0)->shape()))
        alias_src = src;
      break;
    }
    if (alias_src != nullptr) {
      ext_index.emplace(alias_src, 0);
      ext_inputs.push_back(alias_src);
    }
    for (const Op* m : group.members) {
      for (Tensor* t : m->inputs()) {
        if (t->producer() != nullptr && member_set.count(t->producer()) != 0) continue;
        Tensor* src = resolve(t);
        if (ext_index.emplace(src, static_cast<int>(ext_inputs.size())).second)
          ext_inputs.push_back(src);
      }
    }
    const int nin = static_cast<int>(ext_inputs.size());
    // Integral externals would violate the FusedPointwiseOp contract; no
    // built-in model produces one, but an exotic graph keeps its original
    // ops rather than faulting mid-rewrite.
    if (std::any_of(ext_inputs.begin(), ext_inputs.end(), [](const Tensor* t) {
          return is_integral_dtype(t->dtype());
        }))
      continue;

    // Pass 2: one instruction per member, args referencing externals
    // (< nin) or earlier instruction results (nin + j).
    std::unordered_map<const Op*, int> instr_of;
    std::vector<FusedInstr> program;
    program.reserve(group.members.size());
    for (Op* m : group.members) {
      FusedInstr instr;
      if (m->type() == OpType::kBiasAdd) {
        instr.fn = PointwiseFn::kAdd;
      } else {
        const auto& p = static_cast<const PointwiseOp&>(*m);
        instr.fn = p.fn();
        instr.alpha = p.scale_alpha();
      }
      for (Tensor* t : m->inputs()) {
        const Op* p = t->producer();
        if (p != nullptr && member_set.count(p) != 0)
          instr.args.push_back(nin + instr_of.at(p));
        else
          instr.args.push_back(ext_index.at(resolve(t)));
      }
      instr_of.emplace(m, static_cast<int>(program.size()));
      program.push_back(std::move(instr));
    }

    Tensor* root_out = group.root->output(0);
    // Mint the translation-validation certificate while the source
    // subgraph is still wired: the canonical per-element semantics of the
    // chain being replaced, rendered over the external inputs. The equiv
    // pass later re-derives the *program's* semantics and demands the two
    // agree, so a rewriter bug that conserves FLOPs but changes the math
    // is still caught.
    std::string cert;
    if (const auto sem = pointwise_subgraph_semantics(root_out, ext_inputs))
      cert = sem->str();
    auto* fused = g.add_op<FusedPointwiseOp>(group.root->name() + ":fused", ext_inputs,
                                             std::move(program), root_out->shape(),
                                             root_out);
    if (!cert.empty()) fused->set_certificate(std::move(cert));
    // The fused op takes the EARLIEST member's schedule slot (the tiebreak
    // in topological_order is list position; dependencies still gate it).
    // Running as soon as the externals exist frees all of them at one
    // point, at the cost of extending only the single output buffer —
    // whereas inheriting the root's late slot would hold every root-shaped
    // external live across the span the unfused chain covered with just
    // one in-flight intermediate.
    g.move_op_before(fused, group.members.front());

    // Unwire and splice out the originals. Consumer edges on surviving
    // tensors are cleaned first, then ops, then the interior tensors.
    for (Op* m : group.members)
      for (Tensor* t : m->inputs()) t->remove_consumer(m);
    for (Op* b : group.broadcasts) b->input(0)->remove_consumer(b);
    for (Op* m : group.members) {
      if (m != group.root) {
        g.remove_tensor(m->output(0));
        ++result.tensors_removed;
      }
      g.remove_op(m);
      ++result.ops_removed;
    }
    for (Op* b : group.broadcasts) {
      g.remove_tensor(b->output(0));
      ++result.tensors_removed;
      g.remove_op(b);
      ++result.ops_removed;
    }
    ++result.pointwise_groups;
  }
}

}  // namespace

FusionResult fuse_graph(Graph& graph) {
  FusionResult result;
  fuse_gemm_epilogues(graph, result);
  fuse_pointwise_chains(graph, result);
  return result;
}

}  // namespace gf::ir
