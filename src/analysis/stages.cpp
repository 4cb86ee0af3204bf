#include "src/analysis/stages.h"

#include <sstream>
#include <stdexcept>

#include "src/symbolic/sexpr.h"

namespace gf::analysis::stages {

std::string CountResult::serialize() const {
  std::string out = "counts v1\n";
  out += "flops " + sym::to_sexpr(flops) + '\n';
  out += "bytes " + sym::to_sexpr(bytes) + '\n';
  out += "params " + sym::to_sexpr(params) + '\n';
  return out;
}

CountResult CountResult::deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string header;
  if (!std::getline(is, header) || header != "counts v1")
    throw std::invalid_argument("CountResult: bad header '" + header + "'");
  CountResult counts;
  bool seen[3] = {false, false, false};
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto space = line.find(' ');
    if (space == std::string::npos)
      throw std::invalid_argument("CountResult: malformed line '" + line + "'");
    const std::string key = line.substr(0, space);
    const sym::Expr value = sym::parse_sexpr(line.substr(space + 1));
    if (key == "flops") { counts.flops = value; seen[0] = true; }
    else if (key == "bytes") { counts.bytes = value; seen[1] = true; }
    else if (key == "params") { counts.params = value; seen[2] = true; }
    else throw std::invalid_argument("CountResult: unknown key '" + key + "'");
  }
  if (!(seen[0] && seen[1] && seen[2]))
    throw std::invalid_argument("CountResult: missing flops/bytes/params line");
  return counts;
}

models::ModelSpec build_stage(const std::string& family) {
  if (family == "wordlm") return models::build_word_lm();
  if (family == "charlm") return models::build_char_lm();
  if (family == "nmt") return models::build_nmt();
  if (family == "speech") return models::build_speech();
  if (family == "image") return models::build_resnet();
  if (family == "transformer") return models::build_transformer_lm();
  throw std::invalid_argument("unknown model family '" + family +
                              "' (wordlm|charlm|nmt|speech|image|transformer)");
}

const std::vector<std::string>& builtin_families() {
  static const std::vector<std::string> kFamilies = {
      "wordlm", "charlm", "nmt", "speech", "image", "transformer"};
  return kFamilies;
}

CountResult count_stage(const ir::Graph& graph) {
  CountResult counts;
  counts.flops = graph.total_flops();
  counts.bytes = graph.total_bytes_accessed();
  counts.params = graph.parameter_count();
  return counts;
}

Projection project_stage(const CountResult& counts, const sym::Bindings& bindings) {
  Projection p;
  p.flops = counts.flops.eval(bindings);
  p.bytes = counts.bytes.eval(bindings);
  p.params = counts.params.eval(bindings);
  return p;
}

ir::FootprintResult footprint_stage(const ir::Graph& graph,
                                    const sym::Bindings& bindings) {
  return ir::minimal_footprint(graph, bindings);
}

}  // namespace gf::analysis::stages
