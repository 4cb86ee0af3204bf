// Graph-fusion benchmark: unfused execution vs the fused rewrite
// (src/ir/fusion.h) on the paper's models at toy sizes.
//
// For each model the same training step runs twice — fuse off (the seed
// behavior) and on (pointwise chains collapsed, GEMM epilogues folded) —
// and the bench reports, as a console table and BENCH_fusion.json:
//
//   - ops before/after, groups and epilogues formed
//   - measured bytes per step, the symbolic bytes of the executed graph,
//     and the resulting arithmetic intensity (FLOPs / byte)
//   - best-of-reps step wall time, and a bitwise loss comparison
//
// Hard failures (nonzero exit): loss bits differing between the paths,
// fused intensity below unfused (the rewrite's whole point is raising
// FLOPs per byte), measured fused bytes not matching the fused graph's
// symbolic bytes_accessed, or the fused memory-plan slab exceeding the
// unfused slab. Step-time deltas are emitted for the perf trajectory but
// not gated — wall-clock gates flake in CI.
//
// Flags: --smoke (2 models, 1 rep — CI), --threads N, --out PATH.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/concurrency/thread_pool.h"
#include "src/ir/graph.h"
#include "src/models/models.h"
#include "src/runtime/executor.h"
#include "src/runtime/memplan.h"
#include "src/util/format.h"
#include "src/util/json.h"
#include "src/util/table.h"

namespace {

using namespace gf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string ratio_str(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", r);
  return buf;
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
    models::ResNetConfig cfg;
    cfg.depth = 18;
    cfg.image_size = 32;
    cfg.classes = 10;
    cases.push_back({"resnet", models::build_resnet(cfg), 8, 2});
  }
  if (smoke) return cases;
  {
    models::TransformerLmConfig cfg;
    cfg.vocab = 60;
    cfg.layers = 2;
    cfg.seq_length = 8;
    cases.push_back({"transformer_lm", models::build_transformer_lm(cfg), 24, 4});
  }
  {
    models::NmtConfig cfg;
    cfg.vocab_src = 40;
    cfg.vocab_tgt = 40;
    cfg.src_length = 5;
    cfg.tgt_length = 4;
    cfg.decoder_layers = 2;
    cases.push_back({"nmt", models::build_nmt(cfg), 24, 4});
  }
  return cases;
}

struct ModeResult {
  double step_seconds = 0;
  double measured_flops = 0;
  double measured_bytes = 0;
  double symbolic_bytes = 0;  // of the executed graph
  std::size_t ops = 0;
  std::size_t peak_bytes = 0;
  std::size_t slab_bytes = 0;
  std::uint32_t loss_bits = 0;
  // Rewrite stats (fused mode only).
  std::size_t pointwise_groups = 0;
  std::size_t gemm_epilogues = 0;
  std::size_t ops_removed = 0;

  double intensity() const {
    return measured_bytes > 0 ? measured_flops / measured_bytes : 0;
  }
};

ModeResult run_mode(const ModelCase& c, bool fuse, conc::ThreadPool& pool, int reps) {
  const sym::Bindings bind = c.spec.bind(c.hidden, c.batch);
  rt::ExecutorOptions opt;
  opt.pool = &pool;
  opt.fuse = fuse;
  // Plan in both modes so the slab comparison is apples to apples.
  opt.memory_plan = true;
  rt::Executor ex(*c.spec.graph, bind, opt);
  ex.retain(c.spec.loss);
  ex.run_step();
  ex.run_step();  // steady state: weight grads + slab exist, GEMM scratch warm

  ModeResult res;
  double best = 1e300;
  for (int r = 0; r < 1 + reps; ++r) {
    const auto t0 = Clock::now();
    const rt::ProfileReport report = ex.run_step();
    best = std::min(best, seconds_since(t0));
    res.measured_flops = report.total_flops;
    res.measured_bytes = report.total_bytes;
    res.peak_bytes = report.peak_allocated_bytes;
  }
  res.step_seconds = best;
  res.ops = ex.executing_graph().num_ops();
  res.symbolic_bytes = ex.executing_graph().total_bytes_accessed().eval(bind);
  if (const rt::MemoryPlan* p = ex.memory_plan()) res.slab_bytes = p->slab_bytes;
  if (const ir::FusionResult* f = ex.fusion_result()) {
    res.pointwise_groups = f->pointwise_groups;
    res.gemm_epilogues = f->gemm_epilogues;
    res.ops_removed = f->ops_removed;
  }
  std::memcpy(&res.loss_bits, ex.value(c.spec.loss).fdata(), sizeof(float));
  return res;
}

struct CaseResult {
  std::string name;
  ModeResult unfused;
  ModeResult fused;
  bool loss_bitwise = false;
  bool intensity_up = false;
  bool bytes_match_symbolic = false;
  bool slab_ok = false;

  bool ok() const {
    return loss_bitwise && intensity_up && bytes_match_symbolic && slab_ok;
  }
};

void write_json(const std::string& path, std::size_t threads,
                const std::vector<CaseResult>& results) {
  const auto mode = [](const ModeResult& m) {
    return util::Json::object(
        {{"step_seconds", m.step_seconds}, {"ops", m.ops},
         {"measured_bytes", m.measured_bytes}, {"symbolic_bytes", m.symbolic_bytes},
         {"intensity_flops_per_byte", m.intensity()}, {"slab_bytes", m.slab_bytes}});
  };
  util::Json models = util::Json::array();
  for (const CaseResult& r : results)
    models.push_back(util::Json::object(
        {{"name", r.name}, {"pointwise_groups", r.fused.pointwise_groups},
         {"gemm_epilogues", r.fused.gemm_epilogues}, {"ops_removed", r.fused.ops_removed},
         {"unfused", mode(r.unfused)}, {"fused", mode(r.fused)},
         {"bytes_reduction", r.unfused.measured_bytes > 0
                                 ? 1.0 - r.fused.measured_bytes / r.unfused.measured_bytes
                                 : 0.0},
         {"step_speedup", r.fused.step_seconds > 0
                              ? r.unfused.step_seconds / r.fused.step_seconds
                              : 0.0},
         {"loss_bitwise_match", r.loss_bitwise}, {"intensity_increased", r.intensity_up},
         {"measured_matches_symbolic", r.bytes_match_symbolic},
         {"fused_slab_not_larger", r.slab_ok}}));
  const util::Json doc = util::Json::object({{"threads", threads}, {"models", models}});
  std::ofstream(path) << doc.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = 8;
  std::string out_path = "BENCH_fusion.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: fusion_bench [--smoke] [--threads N] [--out PATH]\n";
      return 2;
    }
  }

  conc::ThreadPool pool(threads);
  const int reps = smoke ? 1 : 3;

  std::vector<CaseResult> results;
  util::Table table({"model", "ops", "fused ops", "groups", "epilogues",
                     "bytes/step", "fused bytes", "intensity x", "step x", "checks"});
  bool ok = true;
  for (ModelCase& c : bench_models(smoke)) {
    CaseResult r;
    r.name = c.name;
    r.unfused = run_mode(c, /*fuse=*/false, pool, reps);
    r.fused = run_mode(c, /*fuse=*/true, pool, reps);

    // Identical step counts + id-keyed RNG streams: the rewrite must be
    // numerically invisible (bitwise), strictly raise FLOPs per byte,
    // keep measured traffic on the fused graph's symbolic formula, and
    // never cost slab bytes.
    r.loss_bitwise = r.unfused.loss_bits == r.fused.loss_bits;
    r.intensity_up = r.fused.intensity() > r.unfused.intensity();
    r.bytes_match_symbolic =
        std::fabs(r.fused.measured_bytes - r.fused.symbolic_bytes) <=
        1e-6 * r.fused.symbolic_bytes;
    r.slab_ok = r.fused.slab_bytes <= r.unfused.slab_bytes;
    ok = ok && r.ok();

    table.add_row(
        {r.name, std::to_string(r.unfused.ops), std::to_string(r.fused.ops),
         std::to_string(r.fused.pointwise_groups),
         std::to_string(r.fused.gemm_epilogues),
         util::format_bytes(r.unfused.measured_bytes),
         util::format_bytes(r.fused.measured_bytes),
         ratio_str(r.unfused.intensity() > 0
                                ? r.fused.intensity() / r.unfused.intensity()
                                : 0.0),
         ratio_str(r.fused.step_seconds > 0
                                ? r.unfused.step_seconds / r.fused.step_seconds
                                : 0.0),
         r.ok() ? "ok" : "FAIL"});
    results.push_back(r);
  }

  std::cout << "== graph fusion vs unfused (threads=" << threads << ") ==\n";
  table.print(std::cout);
  write_json(out_path, threads, results);
  std::cout << "wrote " << out_path << "\n";
  if (!ok) {
    std::cerr << "fusion_bench: bitwise / intensity / symbolic-bytes / slab "
                 "check FAILED\n";
    return 1;
  }
  return 0;
}
