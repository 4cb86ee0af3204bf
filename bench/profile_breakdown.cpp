// Methodology companion (paper §4.1): the TFprof-style per-op-type
// breakdown behind the aggregate numbers — where each domain's FLOPs and
// bytes actually go — plus the memory-over-time profile whose maximum is
// the reported footprint.
#include <algorithm>
#include <map>

#include "bench/bench_common.h"
#include "src/concurrency/thread_pool.h"
#include "src/ir/footprint.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"
#include "src/scaling/projection.h"

int main() {
  using namespace gf;
  bench::banner("Profile", "per-op-type FLOP/byte breakdown and memory timeline");

  for (const auto& spec : models::build_all_domains()) {
    const auto& d = scaling::domain_scaling(spec.domain);
    // Characterize at a current-SOTA-scale instance.
    const double params = scaling::project_frontier(d).current_params;
    const auto bind = spec.bind(spec.hidden_for_params(params), d.paper_subbatch);

    struct Agg {
      double flops = 0, bytes = 0;
      std::size_t count = 0;
    };
    const auto aggregate = [&](const ir::Graph& g, std::map<std::string, Agg>& by_type,
                               double& total_flops, double& total_bytes) {
      for (const auto& op : g.ops()) {
        Agg& a = by_type[ir::op_type_name(op->type())];
        const double f = op->flops().eval(bind);
        const double b = op->bytes_accessed().eval(bind);
        a.flops += f;
        a.bytes += b;
        ++a.count;
        total_flops += f;
        total_bytes += b;
      }
    };
    std::map<std::string, Agg> by_type, fused_by_type;
    double total_flops = 0, total_bytes = 0;
    double fused_total_flops = 0, fused_total_bytes = 0;
    aggregate(*spec.graph, by_type, total_flops, total_bytes);
    // Same model after the fusion rewrite: FLOPs land in the same places
    // (conserved per group), bytes lose the eliminated intermediates.
    const auto fspec = bench::fused_spec(spec);
    aggregate(*fspec.graph, fused_by_type, fused_total_flops, fused_total_bytes);

    std::cout << "\n" << models::domain_name(spec.domain) << " at "
              << util::format_si(params) << " params, subbatch " << d.paper_subbatch
              << " (" << spec.graph->num_ops() << " ops, "
              << fspec.graph->num_ops() << " fused):\n";
    // Union of op types: fusion removes Pointwise/BiasAdd/Broadcast rows
    // and introduces FusedPointwise, so both sides must contribute rows.
    for (const auto& [type, a] : fused_by_type)
      by_type.try_emplace(type);  // zero-count row for fused-only types
    std::vector<std::pair<std::string, Agg>> rows(by_type.begin(), by_type.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second.flops > b.second.flops; });
    util::Table table({"op type", "count", "FLOPs", "% FLOPs", "bytes", "% bytes",
                       "fused count", "fused bytes"});
    for (const auto& [type, a] : rows) {
      const auto fit = fused_by_type.find(type);
      const Agg fa = fit == fused_by_type.end() ? Agg{} : fit->second;
      if (a.flops < 0.001 * total_flops && a.bytes < 0.001 * total_bytes &&
          fa.bytes < 0.001 * fused_total_bytes)
        continue;
      table.add_row({type, std::to_string(a.count), util::format_si(a.flops),
                     util::format_percent(a.flops / total_flops),
                     util::format_bytes(a.bytes),
                     util::format_percent(a.bytes / total_bytes),
                     std::to_string(fa.count), util::format_bytes(fa.bytes)});
    }
    table.print(std::cout);
    std::cout << "fusion: bytes " << util::format_bytes(total_bytes) << " -> "
              << util::format_bytes(fused_total_bytes) << " ("
              << util::format_percent(1.0 - fused_total_bytes / total_bytes)
              << " less), intensity "
              << util::format_sig(total_flops / total_bytes, 4) << " -> "
              << util::format_sig(fused_total_flops / fused_total_bytes, 4)
              << " FLOP/B\n";

    const auto timeline = ir::footprint_timeline(*spec.graph, bind);
    const auto peak = std::max_element(
        timeline.begin(), timeline.end(),
        [](const auto& a, const auto& b) { return a.live_bytes < b.live_bytes; });
    std::cout << "memory timeline: start "
              << util::format_bytes(timeline.front().live_bytes) << " -> peak "
              << util::format_bytes(peak->live_bytes) << " at op "
              << peak->op_index << "/" << timeline.size() << " ("
              << util::format_percent(static_cast<double>(peak->op_index) /
                                      timeline.size())
              << " through the step) -> end "
              << util::format_bytes(timeline.back().live_bytes) << "\n";
  }

  // Executed (not just counted) utilization, in the paper's Fig. 9 terms:
  // run one numeric training step at toy scale and report per-op-type
  // achieved GFLOP/s next to the FLOP/byte split. Matrix ops should sit
  // well above the memory-bound pointwise/reduce tail.
  {
    models::WordLmConfig cfg;
    cfg.vocab = 256;
    cfg.layers = 2;
    cfg.seq_length = 8;
    const auto spec = models::build_word_lm(cfg);
    conc::ThreadPool pool(4);
    rt::ExecutorOptions opt;
    opt.pool = &pool;
    opt.fuse = false;
    rt::Executor ex(*spec.graph, spec.bind(64, 8), opt);
    ex.run_step();  // warm up allocations and thread-local scratch
    const rt::ProfileReport report = ex.run_step();
    std::cout << "\nword LM, numeric step at toy scale (achieved GFLOP/s per"
                 " op type):\n";
    report.print(std::cout);

    // The same step with the fusion rewrite on: the pointwise tail
    // collapses into FusedPointwise rows and the MatMul rows absorb their
    // bias/activation epilogues, bitwise-identical loss either way.
    opt.fuse = true;
    rt::Executor fex(*spec.graph, spec.bind(64, 8), opt);
    fex.run_step();
    const rt::ProfileReport fused_report = fex.run_step();
    std::cout << "\nsame step, fused (achieved GFLOP/s per op type):\n";
    fused_report.print(std::cout);
  }

  std::cout << "\nReading: matrix ops (MatMul/Conv2D + their gradients) dominate\n"
               "FLOPs everywhere, but the RNN domains spread bytes across many\n"
               "small pointwise/concat/split ops — the traffic the cache-aware\n"
               "model charges for — while the ResNet's bytes follow its convs.\n";
  return 0;
}
