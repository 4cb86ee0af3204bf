// Reproduces Figure 10: minimal training-step memory footprint vs model
// size (fixed subbatch), via the topological-traversal estimator, and
// cross-checks one point per domain against the numeric executor's
// allocator peak (the role TensorFlow's allocator plays in the paper).
#include "bench/fig_sweep_common.h"
#include "src/ir/footprint.h"
#include "src/runtime/executor.h"

int main() {
  using namespace gf;
  bench::banner("Figure 10", "minimal memory footprint as model size grows");

  const auto targets = analysis::log_spaced(2e7, 4e8, 8);
  const auto series = bench::sweep_all_domains(targets, /*with_footprint=*/true);

  bench::print_sweep(targets, series, "minimal footprint GB (topological estimate)",
                     [](const analysis::StepCounts& c) {
                       return util::format_sig(c.footprint_bytes / 1e9, 4);
                     });

  std::cout << "\nAllocator cross-check (numeric executor, toy sizes):\n";
  util::Table check({"model", "topological estimate", "executor allocator peak"});
  struct Case {
    const char* name;
    models::ModelSpec spec;
    double hidden, batch;
  };
  std::vector<Case> cases;
  cases.push_back({"word LM", models::build_word_lm({.vocab = 60, .seq_length = 6}), 16, 4});
  cases.push_back(
      {"char LM", models::build_char_lm({.vocab = 30, .depth = 3, .seq_length = 5}), 16, 4});
  cases.push_back({"ResNet-18",
                   models::build_resnet({.depth = 18, .image_size = 32, .classes = 10}),
                   8, 2});
  // Unfused. The estimate describes the graph as built; the allocator
  // peak is the static memory plan's (persistent state plus the slab) for
  // the graph the executor runs, whose recurrent weight gradients are
  // stacked into one GEMM each.
  rt::ExecutorOptions opt;
  opt.fuse = false;
  for (auto& c : cases) {
    const auto bind = c.spec.bind(c.hidden, c.batch);
    const auto fp = ir::minimal_footprint(*c.spec.graph, bind);
    rt::Executor ex(*c.spec.graph, bind, opt);
    ex.run_step();
    const auto report = ex.run_step();  // steady state
    check.add_row({c.name, util::format_bytes(fp.total_bytes),
                   util::format_bytes(static_cast<double>(report.peak_allocated_bytes))});
  }
  bench::print_with_csv(check);
  return 0;
}
