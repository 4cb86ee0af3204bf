// Memory-planner benchmark: the static slab plan (src/runtime/memplan.h)
// on the paper's models at toy sizes.
//
// For each model one unfused training step runs under the plan (unfused so
// the plan shape stays comparable with earlier BENCH_memplan.json files),
// and the bench reports, as a console table and BENCH_memplan.json:
//
//   - heap allocations + bytes per steady-state step (must be O(1): zero
//     AlignedAllocator hits once the slab exists)
//   - best-of-reps step wall time
//   - plan shape: slab vs gross bytes, reuse fraction, alias count
//   - the arena peak next to the Fig 10 topological footprint, and a
//     bitwise loss comparison against an executor whose plan shares no
//     storage (every tensor retained: no reuse, no aliasing)
//
// Hard failures (nonzero exit): allocations not O(1), loss bits differing
// from the share-nothing executor's, or the planned peak exceeding the
// footprint beyond alignment padding. Step times are emitted for the perf
// trajectory but not gated — wall-clock gates flake in CI.
//
// Flags: --smoke (2 models, 1 rep — CI), --threads N, --out PATH.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/concurrency/thread_pool.h"
#include "src/ir/footprint.h"
#include "src/ir/gradients.h"
#include "src/ir/serialize.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"
#include "src/util/format.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace {

using namespace gf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ModelCase {
  std::string name;
  models::ModelSpec spec;
  double hidden;
  double batch;
};

std::vector<ModelCase> bench_models(bool smoke) {
  std::vector<ModelCase> cases;
  {
    models::WordLmConfig cfg;
    cfg.vocab = 60;
    cfg.seq_length = 6;
    cfg.layers = 2;
    cases.push_back({"word_lm", models::build_word_lm(cfg), smoke ? 8.0 : 24.0,
                     smoke ? 2.0 : 4.0});
  }
  {
    models::TransformerLmConfig cfg;
    cfg.vocab = 60;
    cfg.layers = 2;
    cfg.seq_length = 8;
    cases.push_back({"transformer_lm", models::build_transformer_lm(cfg),
                     smoke ? 8.0 : 24.0, smoke ? 2.0 : 4.0});
  }
  if (smoke) return cases;
  {
    models::NmtConfig cfg;
    cfg.vocab_src = 40;
    cfg.vocab_tgt = 40;
    cfg.src_length = 5;
    cfg.tgt_length = 4;
    cfg.decoder_layers = 2;
    cases.push_back({"nmt", models::build_nmt(cfg), 24, 4});
  }
  {
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.image_size = 32;
    cfg.classes = 10;
    cases.push_back({"resnet", models::build_resnet(cfg), 8, 2});
  }
  return cases;
}

struct CaseResult {
  std::string name;
  std::size_t ops = 0;
  double step_seconds = 0;
  std::size_t allocs_per_step = 0;
  std::size_t alloc_bytes_per_step = 0;
  std::size_t peak_bytes = 0;
  double footprint_bytes = 0;
  std::size_t planned_tensors = 0;
  std::size_t aliases = 0;
  std::size_t slab_bytes = 0;
  std::size_t gross_bytes = 0;
  double reuse_fraction = 0;
  bool allocs_o1 = false;
  bool loss_bitwise = false;
  bool peak_ok = false;
};

std::uint32_t loss_bits(const rt::Executor& ex, const ir::Tensor* loss) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, ex.value(loss).fdata(), sizeof(float));
  return bits;
}

CaseResult run_case(const ModelCase& c, conc::ThreadPool& pool, int reps) {
  const sym::Bindings bind = c.spec.bind(c.hidden, c.batch);
  rt::ExecutorOptions opt;
  opt.pool = &pool;
  opt.fuse = false;
  rt::Executor ex(*c.spec.graph, bind, opt);
  ex.retain(c.spec.loss);
  ex.run_step();
  ex.run_step();  // steady state: slab exists, GEMM scratch warm

  // Best-of-reps time and min-of-reps allocations: per-thread kernel
  // scratch (GEMM panels, im2col) grows monotonically, so a rep that lands
  // a big conv on a cold thread may still allocate — the min is the true
  // steady state.
  CaseResult res;
  res.name = c.name;
  res.ops = c.spec.graph->num_ops();
  double best = 1e300;
  res.allocs_per_step = static_cast<std::size_t>(-1);
  for (int r = 0; r < 1 + reps; ++r) {
    const std::size_t count0 = rt::aligned_alloc_count();
    const std::size_t bytes0 = rt::aligned_alloc_bytes();
    const auto t0 = Clock::now();
    const rt::ProfileReport report = ex.run_step();
    best = std::min(best, seconds_since(t0));
    if (rt::aligned_alloc_count() - count0 < res.allocs_per_step) {
      res.allocs_per_step = rt::aligned_alloc_count() - count0;
      res.alloc_bytes_per_step = rt::aligned_alloc_bytes() - bytes0;
    }
    res.peak_bytes = report.peak_allocated_bytes;
  }
  res.step_seconds = best;
  const rt::MemoryPlan& p = *ex.memory_plan();
  res.planned_tensors = p.tensors.size();
  res.aliases = p.alias_count;
  res.slab_bytes = p.slab_bytes;
  res.gross_bytes = p.gross_bytes;
  res.reuse_fraction = p.reuse_fraction();
  res.footprint_bytes = ir::minimal_footprint(*c.spec.graph, bind).total_bytes;

  // The same step count on an executor that retains every tensor: its plan
  // shares no storage, so it is the reference for "slab reuse, aliasing
  // and reuse-edge scheduling do not change bits". Executors stack weight
  // gradients on their clone, so it gets a graph already stacked (the
  // rewrite is idempotent), whose every tensor it can retain.
  std::unordered_map<const ir::Tensor*, ir::Tensor*> clones;
  const std::unique_ptr<ir::Graph> stacked = ir::clone_graph(*c.spec.graph, &clones);
  ir::stack_weight_gradients(*stacked);
  rt::Executor unshared(*stacked, bind, opt);
  for (const auto& t : stacked->tensors()) unshared.retain(t.get());
  for (int r = 0; r < 3 + reps; ++r) unshared.run_step();

  // O(1) heap allocations per step, bitwise-equal losses, and a slab that
  // costs no more arena than per-op liveness freeing (the topological
  // footprint) modulo alignment padding.
  res.allocs_o1 = res.allocs_per_step <= 2;
  res.loss_bitwise =
      loss_bits(ex, c.spec.loss) == loss_bits(unshared, clones.at(c.spec.loss));
  res.peak_ok = static_cast<double>(res.peak_bytes) <=
                res.footprint_bytes +
                    static_cast<double>(rt::kTensorAlignment * res.planned_tensors);
  return res;
}

void write_json(const std::string& path, std::size_t threads,
                const std::vector<CaseResult>& results) {
  util::Json models = util::Json::array();
  for (const CaseResult& r : results)
    models.push_back(util::Json::object(
        {{"name", r.name}, {"ops", r.ops}, {"planned_tensors", r.planned_tensors},
         {"aliases", r.aliases}, {"slab_bytes", r.slab_bytes},
         {"gross_bytes", r.gross_bytes}, {"reuse_fraction", r.reuse_fraction},
         {"step_seconds", r.step_seconds}, {"allocs_per_step", r.allocs_per_step},
         {"alloc_bytes_per_step", r.alloc_bytes_per_step}, {"peak_bytes", r.peak_bytes},
         {"footprint_bytes", r.footprint_bytes}, {"allocs_o1", r.allocs_o1},
         {"loss_bitwise_match", r.loss_bitwise}, {"peak_within_footprint", r.peak_ok}}));
  const util::Json doc = util::Json::object({{"threads", threads}, {"models", models}});
  std::ofstream(path) << doc.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = 8;
  std::string out_path = "BENCH_memplan.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: memplan_bench [--smoke] [--threads N] [--out PATH]\n";
      return 2;
    }
  }

  conc::ThreadPool pool(threads);
  const int reps = smoke ? 1 : 3;

  std::vector<CaseResult> results;
  util::Table table({"model", "ops", "slab", "reuse", "allocs/step", "step", "arena peak",
                     "footprint", "checks"});
  bool ok = true;
  for (ModelCase& c : bench_models(smoke)) {
    const CaseResult r = run_case(c, pool, reps);
    const bool pass = r.allocs_o1 && r.loss_bitwise && r.peak_ok;
    ok = ok && pass;
    table.add_row({r.name, std::to_string(r.ops),
                   util::format_bytes(static_cast<double>(r.slab_bytes)),
                   util::format_percent(r.reuse_fraction), std::to_string(r.allocs_per_step),
                   util::format_duration(r.step_seconds, 3),
                   util::format_bytes(static_cast<double>(r.peak_bytes)),
                   util::format_bytes(r.footprint_bytes), pass ? "ok" : "FAIL"});
    results.push_back(r);
  }

  std::cout << "== static memory plan (threads=" << threads << ") ==\n";
  table.print(std::cout);
  write_json(out_path, threads, results);
  std::cout << "wrote " << out_path << "\n";
  if (!ok) {
    std::cerr << "memplan_bench: O(1)-allocation / bitwise / peak check FAILED\n";
    return 1;
  }
  return 0;
}
