#include "src/serve/service.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "src/ir/serialize.h"
#include "src/models/common.h"
#include "src/runtime/memplan.h"
#include "src/verify/pass.h"
#include "src/whatif/resim.h"
#include "src/whatif/transform.h"

namespace gf::serve {

using util::Json;

namespace {

using analysis::stages::CountResult;
using analysis::stages::Projection;

/// Stable text form of a double for key hashing and symbol solving
/// (%.17g: bit-exact round trip, locale-independent).
std::string num_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t binding_hash(const sym::Bindings& bindings) {
  std::uint64_t h = ir::fnv1a64("bindings");
  for (const auto& [symbol, value] : bindings) {  // std::map: sorted, stable
    h = ir::fnv1a64(h, symbol);
    h = ir::fnv1a64(h, "=");
    h = ir::fnv1a64(h, num_text(value));
    h = ir::fnv1a64(h, ";");
  }
  return h;
}

std::string hash_hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// A numeric request field (hidden, batch, target params, speedup, or one
/// element of an array of them): a finite positive number, or null if missing.
double require_positive(const Json* value, const std::string& field) {
  if (value == nullptr) throw std::invalid_argument("missing numeric field '" + field + "'");
  if (!value->is_number() || !std::isfinite(value->as_number()) ||
      !(value->as_number() > 0))
    throw std::invalid_argument("field '" + field + "' must be a finite positive number");
  return value->as_number();
}

/// The values a sweep field lists: every element of an array, or one number.
std::vector<double> require_positives(const Json* values, const std::string& field) {
  if (values == nullptr || !values->is_array()) return {require_positive(values, field)};
  std::vector<double> out;
  for (std::size_t i = 0; i < values->items().size(); ++i)
    out.push_back(
        require_positive(&values->items()[i], field + "[" + std::to_string(i) + "]"));
  return out;
}

/// The hidden width at which a graph counted as `counts` reaches
/// `target_params`, solved once per (graph, target).
double solve_hidden(StageCache& cache, std::uint64_t graph_hash, const CountResult& counts,
                    double target_params) {
  const std::uint64_t key = ir::fnv1a64_mix(graph_hash, double_bits(target_params));
  return *cache.get_or_compute<double>("solve", key, [&] {
    return std::make_shared<double>(
        models::solve_for_params(counts.params, models::kHiddenSymbol, target_params));
  });
}

/// Binding map for one request point: hidden/batch fill the two standard
/// model symbols; an optional "bindings" object overlays arbitrary ones
/// (submitted graphs may use other symbol names).
sym::Bindings point_bindings(const Json& req, double hidden, double batch) {
  sym::Bindings bind{{models::kHiddenSymbol, hidden}, {models::kBatchSymbol, batch}};
  if (const Json* extra = req.find("bindings"); extra != nullptr && extra->is_object())
    for (const auto& [symbol, value] : extra->members())
      if (value.is_number()) bind[symbol] = value.as_number();
  return bind;
}

struct MemplanSummary {
  double slab_bytes = 0;
  double gross_bytes = 0;
  double liveness_peak_bytes = 0;
  double persistent_bytes = 0;
  double planned_peak_bytes = 0;
  double reuse_fraction = 0;
  std::uint64_t planned_tensors = 0;
  std::uint64_t aliases = 0;
  std::uint64_t reuse_edges = 0;
};

struct LoadedTrace {
  whatif::Trace trace;
  double overhead_seconds_per_op = 0;
};

struct WhatifOutcome {
  std::uint64_t ops = 0;
  double baseline_seconds = 0;
  double predicted_seconds = 0;
};

}  // namespace

AnalysisService::AnalysisService(conc::ThreadPool& pool) : pool_(&pool) {}

std::string AnalysisService::handle(const std::string& request_line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Json id;  // echoed verbatim so clients can correlate concurrent replies
  try {
    const Json req = Json::parse(request_line);
    if (const Json* req_id = req.find("id")) id = *req_id;
    Json response = dispatch(req);
    Json out = Json::object();
    if (!id.is_null()) out.set("id", id);
    out.set("ok", Json(true));
    for (const auto& [key, value] : response.members()) out.set(key, value);
    return out.dump();
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    Json out = Json::object();
    if (!id.is_null()) out.set("id", id);
    out.set("ok", Json(false));
    out.set("error", Json(std::string(e.what())));
    return out.dump();
  }
}

std::uint64_t AnalysisService::preload_graph(const std::string& graph_text) {
  Json req = Json::object();
  req.set("graph", Json(graph_text));
  const auto model = resolve_model(req);
  counts_for(*model);
  return model->graph_hash;
}

Json AnalysisService::dispatch(const Json& req) {
  const std::string kind = req.string_or("kind", "");
  if (kind == "characterize") return do_characterize(req);
  if (kind == "sweep") return do_sweep(req);
  if (kind == "lint") return do_lint(req);
  if (kind == "memplan") return do_memplan(req);
  if (kind == "whatif-scale") return do_whatif_scale(req);
  if (kind == "stats") return do_stats();
  throw std::invalid_argument(
      kind.empty() ? "missing request field 'kind'"
                   : "unknown request kind '" + kind +
                         "' (characterize|sweep|lint|memplan|whatif-scale|stats)");
}

std::shared_ptr<const AnalysisService::LoadedModel> AnalysisService::resolve_model(
    const Json& req) {
  if (const Json* family = req.find("model"); family != nullptr) {
    const std::string name = family->as_string();
    return cache_.get_or_compute<LoadedModel>(
        "build", ir::fnv1a64(name), [&] {
          auto spec = std::make_shared<const models::ModelSpec>(
              analysis::stages::build_stage(name));
          auto model = std::make_shared<LoadedModel>();
          model->spec = spec;
          model->graph = spec->graph;
          model->graph_hash = ir::canonical_hash(*spec->graph);
          return model;
        });
  }
  if (const Json* graph = req.find("graph"); graph != nullptr) {
    const std::string& text = graph->as_string();
    return cache_.get_or_compute<LoadedModel>(
        "parse", ir::fnv1a64(text), [&] {
          // validate=false: lint is its own request kind; characterizing
          // a reconstructable-but-imperfect graph is still meaningful.
          std::shared_ptr<const ir::Graph> parsed =
              ir::deserialize(text, /*validate=*/false);
          auto model = std::make_shared<LoadedModel>();
          model->graph_hash = ir::canonical_hash(*parsed);
          model->graph = std::move(parsed);
          return model;
        });
  }
  throw std::invalid_argument("request needs 'model' (built-in family) or 'graph'");
}

std::shared_ptr<const CountResult> AnalysisService::counts_for(
    const LoadedModel& model) {
  return cache_.get_or_compute<CountResult>("count", model.graph_hash, [&] {
    return std::make_shared<CountResult>(
        analysis::stages::count_stage(*model.graph));
  });
}

Json AnalysisService::project_point(const LoadedModel& model, double hidden,
                                    double batch, bool footprint) {
  const sym::Bindings bind{{models::kHiddenSymbol, hidden},
                           {models::kBatchSymbol, batch}};
  const std::uint64_t point_key = ir::fnv1a64_mix(model.graph_hash, binding_hash(bind));
  const auto counts = counts_for(model);
  const auto projection = cache_.get_or_compute<Projection>("project", point_key, [&] {
    return std::make_shared<Projection>(analysis::stages::project_stage(*counts, bind));
  });
  for (const auto& [field, value] : {std::pair{"params", projection->params},
                                     {"flops", projection->flops},
                                     {"bytes", projection->bytes}})
    if (!std::isfinite(value))
      throw std::invalid_argument(std::string("projected '") + field +
                                  "' is not finite at hidden " + num_text(hidden) +
                                  ", batch " + num_text(batch));

  Json row = Json::object();
  row.set("hidden", Json(hidden));
  row.set("batch", Json(batch));
  row.set("params", Json(projection->params));
  row.set("flops", Json(projection->flops));
  row.set("bytes", Json(projection->bytes));
  row.set("intensity", Json(projection->operational_intensity()));
  if (footprint) {
    const auto fp =
        cache_.get_or_compute<ir::FootprintResult>("footprint", point_key, [&] {
          return std::make_shared<ir::FootprintResult>(
              analysis::stages::footprint_stage(*model.graph, bind));
        });
    Json fp_json = Json::object();
    fp_json.set("total_bytes", Json(fp->total_bytes));
    fp_json.set("persistent_bytes", Json(fp->persistent_bytes));
    fp_json.set("transient_bytes", Json(fp->peak_transient_bytes));
    row.set("footprint", fp_json);
  }
  return row;
}

Json AnalysisService::do_characterize(const Json& req) {
  const double batch = require_positive(req.find("batch"), "batch");
  const Json* target = req.find("params");
  const double size = target != nullptr ? require_positive(target, "params")
                                        : require_positive(req.find("hidden"), "hidden");
  const auto model = resolve_model(req);
  const double hidden =
      target != nullptr
          ? solve_hidden(cache_, model->graph_hash, *counts_for(*model), size)
          : size;

  Json out = Json::object();
  out.set("kind", Json("characterize"));
  if (model->spec) out.set("model", Json(model->spec->name));
  out.set("graph_hash", Json(hash_hex(model->graph_hash)));
  const Json row = project_point(*model, hidden, batch, req.bool_or("footprint", false));
  for (const auto& [key, value] : row.members()) out.set(key, value);
  return out;
}

Json AnalysisService::do_sweep(const Json& req) {
  const Json* hs = req.find("hidden");
  const Json* targets = req.find("params");
  const bool by_hidden = hs != nullptr && hs->is_array();
  if (!by_hidden && (targets == nullptr || !targets->is_array()))
    throw std::invalid_argument("sweep needs 'hidden' or 'params' as an array");
  std::vector<double> hiddens =
      require_positives(by_hidden ? hs : targets, by_hidden ? "hidden" : "params");
  const std::vector<double> batches = require_positives(req.find("batch"), "batch");
  const auto model = resolve_model(req);
  if (!by_hidden) {  // the listed values are target parameter counts
    const auto counts = counts_for(*model);
    for (double& h : hiddens) h = solve_hidden(cache_, model->graph_hash, *counts, h);
  }

  const bool footprint = req.bool_or("footprint", false);
  Json rows = Json::array();
  for (const double h : hiddens)
    for (const double b : batches) rows.push_back(project_point(*model, h, b, footprint));

  Json out = Json::object();
  out.set("kind", Json("sweep"));
  if (model->spec) out.set("model", Json(model->spec->name));
  out.set("graph_hash", Json(hash_hex(model->graph_hash)));
  out.set("points", Json(hiddens.size() * batches.size()));
  out.set("rows", rows);
  return out;
}

Json AnalysisService::do_lint(const Json& req) {
  const auto model = resolve_model(req);
  verify::VerifyOptions options;
  std::uint64_t passes_key = ir::fnv1a64("passes");
  if (const Json* passes = req.find("passes"); passes != nullptr && passes->is_array())
    for (const Json& p : passes->items()) {
      options.passes.push_back(p.as_string());
      passes_key = ir::fnv1a64(passes_key, p.as_string());
      passes_key = ir::fnv1a64(passes_key, ",");
    }

  const std::uint64_t key = ir::fnv1a64_mix(model->graph_hash, passes_key);
  const auto result = cache_.get_or_compute<verify::VerifyResult>("lint", key, [&] {
    return std::make_shared<verify::VerifyResult>(
        verify::verify_graph(*model->graph, options));
  });

  Json out = Json::object();
  out.set("kind", Json("lint"));
  out.set("graph_hash", Json(hash_hex(model->graph_hash)));
  out.set("errors", Json(result->count(verify::Severity::kError)));
  out.set("warnings", Json(result->count(verify::Severity::kWarning)));
  out.set("report", result->to_json());
  return out;
}

Json AnalysisService::do_memplan(const Json& req) {
  const auto model = resolve_model(req);
  const double hidden = require_positive(req.find("hidden"), "hidden");
  const double batch = require_positive(req.find("batch"), "batch");
  const sym::Bindings bind = point_bindings(req, hidden, batch);
  const std::uint64_t key = ir::fnv1a64_mix(model->graph_hash, binding_hash(bind));

  const auto summary = cache_.get_or_compute<MemplanSummary>("memplan", key, [&] {
    const ir::OpDag dag = ir::build_op_dag(*model->graph);
    const rt::MemoryPlan plan = rt::plan_memory(*model->graph, dag, bind);
    auto s = std::make_shared<MemplanSummary>();
    s->slab_bytes = static_cast<double>(plan.slab_bytes);
    s->gross_bytes = static_cast<double>(plan.gross_bytes);
    s->liveness_peak_bytes = static_cast<double>(plan.liveness_peak_bytes);
    s->persistent_bytes = static_cast<double>(plan.persistent_bytes);
    s->planned_peak_bytes = static_cast<double>(plan.planned_peak_bytes());
    s->reuse_fraction = plan.reuse_fraction();
    s->planned_tensors = plan.tensors.size();
    s->aliases = plan.alias_count;
    s->reuse_edges = plan.reuse_edges.size();
    return s;
  });

  Json out = Json::object();
  out.set("kind", Json("memplan"));
  if (model->spec) out.set("model", Json(model->spec->name));
  out.set("graph_hash", Json(hash_hex(model->graph_hash)));
  out.set("hidden", Json(hidden));
  out.set("batch", Json(batch));
  out.set("slab_bytes", Json(summary->slab_bytes));
  out.set("gross_bytes", Json(summary->gross_bytes));
  out.set("liveness_peak_bytes", Json(summary->liveness_peak_bytes));
  out.set("persistent_bytes", Json(summary->persistent_bytes));
  out.set("planned_peak_bytes", Json(summary->planned_peak_bytes));
  out.set("reuse_fraction", Json(summary->reuse_fraction));
  out.set("planned_tensors", Json(summary->planned_tensors));
  out.set("aliases", Json(summary->aliases));
  out.set("reuse_edges", Json(summary->reuse_edges));
  return out;
}

Json AnalysisService::do_whatif_scale(const Json& req) {
  const Json* trace_text = req.find("trace");
  if (trace_text == nullptr || !trace_text->is_string())
    throw std::invalid_argument("whatif-scale needs 'trace' (chrome-trace JSON text)");
  const std::string op_type = req.string_or("op_type", "*");
  const double speedup = require_positive(req.find("speedup"), "speedup");

  const std::uint64_t trace_key = ir::fnv1a64(trace_text->as_string());
  const auto loaded = cache_.get_or_compute<LoadedTrace>("trace", trace_key, [&] {
    std::istringstream is(trace_text->as_string());
    auto t = std::make_shared<LoadedTrace>();
    t->trace = whatif::load_trace(is);
    t->overhead_seconds_per_op = whatif::calibrate_overhead(t->trace);
    return t;
  });

  std::uint64_t key = ir::fnv1a64_mix(trace_key, double_bits(speedup));
  key = ir::fnv1a64(key, op_type);
  const auto outcome = cache_.get_or_compute<WhatifOutcome>("whatif", key, [&] {
    whatif::ResimOptions options;
    options.overhead_seconds_per_op = loaded->overhead_seconds_per_op;
    auto o = std::make_shared<WhatifOutcome>();
    o->ops = loaded->trace.ops.size();
    o->baseline_seconds = whatif::resimulate(loaded->trace, options).makespan_seconds;
    const whatif::Trace scaled =
        whatif::scale_kernel_class(loaded->trace, {op_type, speedup});
    o->predicted_seconds = whatif::resimulate(scaled, options).makespan_seconds;
    return o;
  });

  Json out = Json::object();
  out.set("kind", Json("whatif-scale"));
  out.set("op_type", Json(op_type));
  out.set("speedup", Json(speedup));
  out.set("ops", Json(outcome->ops));
  out.set("overhead_seconds_per_op", Json(loaded->overhead_seconds_per_op));
  out.set("baseline_seconds", Json(outcome->baseline_seconds));
  out.set("predicted_seconds", Json(outcome->predicted_seconds));
  out.set("projected_speedup",
          Json(outcome->predicted_seconds > 0
                   ? outcome->baseline_seconds / outcome->predicted_seconds
                   : 0.0));
  return out;
}

Json AnalysisService::do_stats() {
  const StageCacheStats cache = cache_.stats();
  Json pool = Json::object();
  pool.set("threads", Json(pool_->thread_count()));
  pool.set("queue_depth", Json(pool_->queue_depth()));
  pool.set("busy_workers", Json(pool_->busy_workers()));

  Json stages = Json::array();
  for (const auto& s : cache.stages) {
    Json stage = Json::object();
    stage.set("stage", Json(s.stage));
    stage.set("hits", Json(s.hits));
    stage.set("executions", Json(s.executions));
    stages.push_back(stage);
  }
  Json cache_json = Json::object();
  cache_json.set("hits", Json(cache.hits));
  cache_json.set("executions", Json(cache.executions));
  cache_json.set("entries", Json(cache.entries));
  cache_json.set("hit_rate", Json(cache.hit_rate()));
  cache_json.set("stages", stages);

  Json out = Json::object();
  out.set("kind", Json("stats"));
  out.set("requests", Json(requests_.load(std::memory_order_relaxed)));
  out.set("errors", Json(errors_.load(std::memory_order_relaxed)));
  out.set("pool", pool);
  out.set("cache", cache_json);
  return out;
}

}  // namespace gf::serve
