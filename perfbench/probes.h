// Attribution probes: time the layers' public functions on the inputs a
// session just used, after its timed region, so they never inflate an
// end-to-end sample. Each probe adds milliseconds (or microseconds, by the
// name's suffix) into a per-session accumulator; a session contributes one
// sample per layer metric.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "src/ir/graph.h"
#include "src/runtime/profiler.h"
#include "src/symbolic/expr.h"
#include "workload.h"

namespace perfbench {

/// Per-layer samples: one value per session and name.
class LayerSamples {
 public:
  /// Adds `value` to the open session's total for `name`.
  void add(const std::string& name, double value) { open_[name] += value; }
  /// Keeps the larger of the open session's value and `value`.
  void max(const std::string& name, double value);
  /// Closes the open session: each accumulated name gets one sample.
  void close_session();
  /// Per-step samples pooled over sessions (already one value per step).
  void sample(const std::string& name, double value) { samples_[name].push_back(value); }
  /// Median of each name's samples, with the unit its suffix implies.
  /// Names prefixed "extra." (metrics only some workloads have) go to
  /// `extra` without the prefix; the rest are declared metrics.
  void summarize(std::map<std::string, Metric>& declared,
                 std::map<std::string, Metric>& extra) const;

 private:
  std::map<std::string, double> open_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Unit implied by a layer metric's name: "_ms" ms, "_us" us, "_mb" MB,
/// "gflops" GF/s, "gbps" GB/s, shares and concurrency "ratio", else count.
std::string unit_for(const std::string& name);

/// verify passes (one at a time), clone+fuse, count stage, serialize
/// round trip (deserialize timed) and canonical hash on one graph.
void probe_graph(const gf::ir::Graph& graph, LayerSamples& layers);
/// build_op_dag + plan_memory at `bindings`.
void probe_plan(const gf::ir::Graph& graph, const gf::sym::Bindings& bindings,
                LayerSamples& layers);
/// whatif::load_trace, calibrate_overhead and one resimulate on a
/// Chrome-trace text.
void probe_trace(const std::string& trace_text, LayerSamples& layers);
/// serve::Json::parse and dump of one document (microseconds).
void probe_json(const std::string& text, LayerSamples& layers);

/// Per-step runtime metrics of one executed step timeline: gap, op
/// concurrency, per-op-type busy time, GEMM rate, SIMD share, op counts.
void fold_step_layers(const gf::rt::ProfileReport& report, LayerSamples& layers);

/// The step's timeline as Chrome-trace JSON text (the what-if input).
std::string chrome_trace_text(const gf::rt::ProfileReport& report);

/// The serve layer on a session's own inputs (serve_probe.cpp): its model
/// graph and step trace as cold characterize / memplan / lint /
/// whatif-scale requests to a fresh AnalysisService, a warm replay of
/// them, then interactive round trips through serve::run_server. Across
/// all runs, every response must be ok:true and byte-identical to the
/// first response to the same line, and no stage may execute while
/// replaying warm; a round-trip reply later than 100 ms counts as a
/// failed operation.
class ServeProbe {
 public:
  void run(const std::string& graph_text, const std::string& trace_text, double hidden,
           double batch, LayerSamples& layers);
  /// Adds the probe's requests, late replies and gates to `out`.
  void finish(Outcome& out) const;

 private:
  void check(const std::string& line, const std::string& response);

  std::map<std::string, std::string> first_;  ///< request line -> first response
  std::size_t requests_ = 0;
  std::size_t not_ok_ = 0;
  std::size_t mismatched_ = 0;
  std::uint64_t warm_executions_ = 0;
  std::size_t round_trips_ = 0;
  std::size_t late_replies_ = 0;
  std::size_t missing_replies_ = 0;
};

}  // namespace perfbench
