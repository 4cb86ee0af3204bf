// Pass-framework engine: registry, collect-all driver, the throwing
// entry point, and the untrusted-file entry point.
#include <algorithm>
#include <istream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "src/ir/serialize.h"
#include "src/verify/pass.h"

namespace gf::verify {

PassRegistry& PassRegistry::instance() {
  static PassRegistry* registry = [] {
    auto* r = new PassRegistry();
    for (auto& pass : make_builtin_passes()) r->add(std::move(pass));
    return r;
  }();
  return *registry;
}

void PassRegistry::add(std::unique_ptr<Pass> pass) {
  if (pass == nullptr) throw std::invalid_argument("PassRegistry::add: null pass");
  if (find(pass->name()) != nullptr)
    throw std::invalid_argument(std::string("PassRegistry::add: duplicate pass '") +
                                pass->name() + "'");
  passes_.push_back(std::move(pass));
}

const Pass* PassRegistry::find(const std::string& name) const {
  for (const auto& p : passes_)
    if (name == p->name()) return p.get();
  return nullptr;
}

VerifyResult verify_graph(const ir::Graph& graph, const VerifyOptions& options) {
  VerifyResult result;
  result.graph_name = graph.name();

  const PassRegistry& registry = PassRegistry::instance();
  std::vector<const Pass*> selected;
  if (options.passes.empty()) {
    for (const auto& p : registry.passes()) selected.push_back(p.get());
  } else {
    for (const std::string& name : options.passes) {
      const Pass* p = registry.find(name);
      if (p == nullptr) throw std::invalid_argument("verify: unknown pass '" + name + "'");
      selected.push_back(p);
    }
  }

  for (const Pass* pass : selected) {
    result.passes_run.emplace_back(pass->name());
    try {
      pass->run(graph, result.diagnostics);
    } catch (const std::exception& e) {
      // Backstop: a pass must not throw on malformed graphs; if one does,
      // its partial findings stand and the abort itself becomes a finding.
      result.diagnostics.push_back({Severity::kError, pass->name(), "",
                                    std::string("pass aborted: ") + e.what(),
                                    "verifier bug — passes must diagnose, not throw"});
    }
  }

  // Deterministic report order: pass (in run order), then location, then
  // severity, then message. Several passes iterate unordered containers
  // internally, so without this the JSON report is not byte-stable across
  // runs — and CI diffs lint artifacts.
  std::unordered_map<std::string, std::size_t> pass_rank;
  for (std::size_t i = 0; i < result.passes_run.size(); ++i)
    pass_rank.emplace(result.passes_run[i], i);
  const auto key = [&pass_rank](const Diagnostic& d) {
    const auto it = pass_rank.find(d.pass);
    const std::size_t rank = it == pass_rank.end() ? pass_rank.size() : it->second;
    return std::make_tuple(rank, std::cref(d.location),
                           static_cast<unsigned>(d.severity), std::cref(d.message));
  };
  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [&key](const Diagnostic& a, const Diagnostic& b) {
                     return key(a) < key(b);
                   });
  return result;
}

void validate_or_throw(const ir::Graph& graph, const VerifyOptions& options) {
  const VerifyResult result = verify_graph(graph, options);
  if (!result.has_errors()) return;
  constexpr std::size_t kMaxShown = 8;
  std::string msg = "graph '" + graph.name() + "' failed verification:";
  std::size_t shown = 0;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (shown == kMaxShown) {
      msg += "\n  ... (" + std::to_string(result.count(Severity::kError) - shown) +
             " more)";
      break;
    }
    msg += "\n  " + d.str();
    ++shown;
  }
  throw std::logic_error(msg);
}

VerifyResult verify_serialized(std::istream& is, const VerifyOptions& options) {
  std::unique_ptr<ir::Graph> graph;
  try {
    // Skip the post-load validation: a reconstructable-but-broken graph
    // should produce structured diagnostics below, not one thrown error.
    graph = ir::deserialize(is, /*validate=*/false);
  } catch (const std::exception& e) {
    VerifyResult result;
    result.graph_name = "<unloadable>";
    result.passes_run.emplace_back("load");
    result.diagnostics.push_back({Severity::kError, "load", "",
                                  std::string("cannot reconstruct graph: ") + e.what(),
                                  "the file is corrupt or truncated; re-export it"});
    return result;
  }
  return verify_graph(*graph, options);
}

}  // namespace gf::verify
