#include "src/verify/diagnostics.h"

#include <algorithm>
#include <ostream>

namespace gf::verify {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string Diagnostic::str() const {
  std::string out = severity_name(severity);
  out += "[" + pass + "]";
  if (!location.empty()) out += " " + location;
  out += ": " + message;
  if (!fix_hint.empty()) out += " (fix: " + fix_hint + ")";
  return out;
}

std::size_t VerifyResult::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

void VerifyResult::print_text(std::ostream& os) const {
  for (const Diagnostic& d : diagnostics) os << d.str() << "\n";
  os << graph_name << ": " << count(Severity::kError) << " error(s), "
     << count(Severity::kWarning) << " warning(s), " << count(Severity::kNote)
     << " note(s) from " << passes_run.size() << " pass(es)\n";
}

util::Json VerifyResult::to_json() const {
  util::Json passes = util::Json::array();
  for (const std::string& p : passes_run) passes.push_back(p);
  util::Json diags = util::Json::array();
  for (const Diagnostic& d : diagnostics)
    diags.push_back(util::Json::object({{"severity", severity_name(d.severity)},
                                        {"pass", d.pass},
                                        {"location", d.location},
                                        {"message", d.message},
                                        {"fix_hint", d.fix_hint}}));
  const util::Json counts = util::Json::object({{"error", count(Severity::kError)},
                                                {"warning", count(Severity::kWarning)},
                                                {"note", count(Severity::kNote)}});
  return util::Json::object({{"graph", graph_name}, {"passes", passes},
                             {"counts", counts}, {"diagnostics", diags}});
}

}  // namespace gf::verify
