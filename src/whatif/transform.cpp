#include "src/whatif/transform.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/ir/fusion.h"
#include "src/ir/gradients.h"
#include "src/ir/op.h"
#include "src/ir/serialize.h"

namespace gf::whatif {
namespace {

/// Kernel classes whose time fusion cannot eliminate: the fused op IS the
/// GEMM/conv, with epilogue work folded into its output pass.
bool is_compute_anchor(const std::string& type) {
  return type == "MatMul" || type == "Conv2D" || type == "Conv2DGradInput" ||
         type == "Conv2DGradFilter";
}

}  // namespace

Trace scale_kernel_class(const Trace& trace, const ScaleClass& scale) {
  if (scale.speedup <= 0)
    throw std::invalid_argument("whatif: --speedup must be positive");
  Trace out = trace;
  for (TraceOp& op : out.ops) {
    // A "class" is either an op type (ir::op_type_name spelling) or a
    // runtime implementation class ("pointwise-simd"); matching either
    // lets `gfctl whatif --scale pointwise-simd` price one implementation
    // without touching ops of the same type that another one served.
    if (scale.op_type != "*" && op.type != scale.op_type &&
        op.kernel_class != scale.op_type)
      continue;
    op.end_seconds = op.start_seconds + op.duration() / scale.speedup;
  }
  return out;
}

Trace switch_dtype_traffic(const Trace& trace, const DtypeOptions& options) {
  if (options.byte_ratio <= 0)
    throw std::invalid_argument("whatif: dtype byte ratio must be positive");
  Trace out = trace;
  for (TraceOp& op : out.ops) {
    if (op.bytes <= 0) continue;
    const double intensity = op.flops / op.bytes;
    if (intensity < options.intensity_threshold)
      op.end_seconds = op.start_seconds + op.duration() * options.byte_ratio;
    op.bytes *= options.byte_ratio;
  }
  return out;
}

Trace fuse_groups(const Trace& trace, const std::vector<FuseGroup>& groups,
                  const FuseModelOptions& options) {
  if (options.memory_weight < 0 || options.memory_weight > 1)
    throw std::invalid_argument("whatif: fuse memory weight must be in [0, 1]");
  const std::size_t n = trace.ops.size();

  // group_of[i] = index into `groups`, or groups.size() for ungrouped ops.
  std::vector<std::size_t> group_of(n, groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const FuseGroup& group = groups[g];
    if (group.members.size() < 2)
      throw std::invalid_argument("whatif: fuse group '" + group.name +
                                  "' has fewer than two members");
    if (!std::is_sorted(group.members.begin(), group.members.end()))
      throw std::invalid_argument("whatif: fuse group '" + group.name +
                                  "' members are not ascending");
    for (std::size_t m : group.members) {
      if (m >= n)
        throw std::invalid_argument("whatif: fuse group '" + group.name +
                                    "' references op " + std::to_string(m) +
                                    " beyond the trace");
      if (group_of[m] != groups.size())
        throw std::invalid_argument("whatif: op " + std::to_string(m) +
                                    " belongs to two fuse groups");
      group_of[m] = g;
    }
  }

  // New index layout: every op keeps its slot order; a group occupies its
  // first member's slot and the other members vanish.
  std::vector<std::size_t> new_index(n, n);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = group_of[i];
    if (g == groups.size() || groups[g].members.front() == i)
      new_index[i] = next++;
    else
      new_index[i] = new_index[groups[g].members.front()];
  }

  Trace out;
  out.version = trace.version;
  out.wall_seconds = trace.wall_seconds;
  out.ops.resize(next);
  std::vector<char> emitted(next, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = group_of[i];
    const std::size_t slot = new_index[i];
    TraceOp& dst = out.ops[slot];
    if (g == groups.size()) {
      dst = trace.ops[i];
      dst.deps.clear();
    } else if (emitted[slot] == 0) {
      // Duration model: anchors keep their time; the rest of the group's
      // time scales by the surviving-byte share, weighted by how much of
      // it is bandwidth (memory_weight) vs retained per-element compute.
      const FuseGroup& group = groups[g];
      double anchor_seconds = 0;
      double anchor_bytes = 0;
      double member_seconds = 0;
      double member_bytes = 0;
      for (std::size_t m : group.members) {
        const TraceOp& op = trace.ops[m];
        if (is_compute_anchor(op.type)) {
          anchor_seconds += op.duration();
          anchor_bytes += op.bytes;
        } else {
          member_seconds += op.duration();
          member_bytes += op.bytes;
        }
      }
      const double surviving = std::max(0.0, group.fused_bytes - anchor_bytes);
      const double byte_share =
          member_bytes > 0 ? std::min(1.0, surviving / member_bytes) : 1.0;
      const double w = options.memory_weight;
      const double duration =
          anchor_seconds + member_seconds * ((1.0 - w) + w * byte_share);

      const TraceOp& first = trace.ops[group.members.front()];
      dst.name = group.name;
      dst.type = anchor_seconds > 0 ? first.type : "FusedPointwise";
      dst.worker = first.worker;
      dst.start_seconds = first.start_seconds;
      dst.end_seconds = first.start_seconds + duration;
      dst.flops = group.fused_flops;
      dst.bytes = group.fused_bytes;
    }
    emitted[slot] = 1;
    // Remap deps. Internal group edges collapse to self-loops and drop.
    // Edges that come out pointing forward of the merged node's slot are
    // dropped too: they are scheduling constraints of the PROFILED program
    // (e.g. the unfused memory plan's reuse edges, or a mid-group external
    // producer) that the hypothetical fused program — which would be
    // re-scheduled and re-planned — does not inherit. So are edges from a
    // producer whose recorded start is later than the merged node's (its
    // first member's): under the wavefront such a producer can run after
    // that member, even on the same lane, so the edge ties the node to
    // the profiled placement and would contradict the recorded lane order
    // on replay. Every kept edge runs from an earlier (start, index) to a
    // later one, as lane order does, so recorded replay cannot deadlock.
    // Data edges between surviving ungrouped nodes keep both properties,
    // so none of those are lost.
    TraceOp& node = out.ops[slot];
    for (std::size_t d : trace.ops[i].deps) {
      const std::size_t nd = new_index[d];
      if (nd < slot && out.ops[nd].start_seconds <= node.start_seconds)
        node.deps.push_back(nd);
    }
  }
  for (TraceOp& op : out.ops) {
    std::sort(op.deps.begin(), op.deps.end());
    op.deps.erase(std::unique(op.deps.begin(), op.deps.end()), op.deps.end());
  }
  validate_trace(out);
  return out;
}

std::vector<FuseGroup> plan_fusion_groups(const ir::Graph& builder_graph,
                                          const sym::Bindings& bind,
                                          const Trace& trace) {
  // An unfused executor runs the stacked graph, so that is what the trace
  // profiled: match against a stacked clone, and fuse a clone of that.
  const std::unique_ptr<ir::Graph> stacked = ir::clone_graph(builder_graph);
  ir::stack_weight_gradients(*stacked);
  const ir::Graph& graph = *stacked;
  const std::vector<const ir::Op*> topo = graph.topological_order();
  if (trace.ops.size() != topo.size())
    throw std::invalid_argument(
        "whatif: trace has " + std::to_string(trace.ops.size()) + " ops but graph '" +
        graph.name() + "' has " + std::to_string(topo.size()) +
        " — the trace was not profiled from this (unfused) graph");
  for (std::size_t i = 0; i < topo.size(); ++i)
    if (trace.ops[i].name != topo[i]->name())
      throw std::invalid_argument("whatif: trace op " + std::to_string(i) + " is '" +
                                  trace.ops[i].name + "' but graph op is '" +
                                  topo[i]->name() +
                                  "' — the trace was not profiled from this graph");

  // Fuse a clone (tensor ids preserved) and map each stacked-graph op to
  // the fused-graph op that now produces its work: unchanged ops map to
  // their own clone; absorbed ops follow their (single-consumer) output
  // chain in the STACKED graph until a tensor whose id survived fusion —
  // its producer in the fused graph is the fused node. Walking the stacked
  // graph keyed by id avoids touching clone tensors the rewrite destroyed.
  const std::unique_ptr<ir::Graph> fused = ir::clone_graph(graph);
  ir::fuse_graph(*fused);
  std::unordered_map<int, const ir::Op*> producer_of_id;
  producer_of_id.reserve(fused->tensors().size());
  for (const auto& t : fused->tensors())
    if (t->producer() != nullptr) producer_of_id.emplace(t->id(), t->producer());

  std::unordered_map<const ir::Op*, std::vector<std::size_t>> absorbed;
  for (std::size_t i = 0; i < topo.size(); ++i) {
    if (topo[i]->outputs().empty()) continue;
    const ir::Tensor* t = topo[i]->output(0);
    // Fusion eliminates only single-consumer intermediates, so the walk to
    // a surviving id is a simple chain, bounded by the graph depth.
    std::size_t guard = graph.num_ops() + 1;
    while (!producer_of_id.contains(t->id()) && guard-- > 0) {
      if (t->consumers().size() != 1) {
        t = nullptr;
        break;
      }
      const ir::Op* consumer = t->consumers().front();
      if (consumer->outputs().empty()) {
        t = nullptr;
        break;
      }
      t = consumer->output(0);
    }
    if (t == nullptr) continue;
    const auto it = producer_of_id.find(t->id());
    if (it != producer_of_id.end()) absorbed[it->second].push_back(i);
  }

  // Deterministic group order: by first member index.
  std::vector<FuseGroup> groups;
  for (const auto& [clone_op, members] : absorbed) {
    if (members.size() < 2) continue;
    FuseGroup group;
    group.name = clone_op->name();
    group.members = members;
    std::sort(group.members.begin(), group.members.end());
    group.fused_flops = clone_op->flops().eval(bind);
    group.fused_bytes = clone_op->bytes_accessed().eval(bind);
    groups.push_back(std::move(group));
  }
  std::sort(groups.begin(), groups.end(), [](const FuseGroup& a, const FuseGroup& b) {
    return a.members.front() < b.members.front();
  });
  return groups;
}

}  // namespace gf::whatif
