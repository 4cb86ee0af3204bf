// Diagnostic vocabulary of the static-analysis (verify) subsystem.
//
// A verifier pass never throws on a bad graph: it appends Diagnostics to
// the result so a single run reports *every* problem instead of stopping
// at the first. Severity kError marks graphs whose downstream analyses
// (FLOP/byte/footprint tables, wavefront schedules) would be silently
// wrong; kWarning marks structure that is suspicious but analyzable;
// kNote is informational.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/util/json.h"

namespace gf::verify {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

const char* severity_name(Severity s);

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string pass;      ///< registered name of the pass that produced it
  std::string location;  ///< "op 'x'" or "tensor 'y'"; may be empty
  std::string message;
  std::string fix_hint;  ///< optional actionable suggestion

  /// One-line rendering: "error[races] tensor 'w': message (fix: ...)".
  std::string str() const;
};

/// Everything one engine run produced, renderable as text or JSON.
struct VerifyResult {
  std::string graph_name;
  std::vector<std::string> passes_run;
  std::vector<Diagnostic> diagnostics;

  std::size_t count(Severity s) const;
  bool has_errors() const { return count(Severity::kError) > 0; }

  /// Human-readable report: one diagnostic per line plus a summary.
  void print_text(std::ostream& os) const;

  /// Machine-readable form, shared by `gfctl lint --json` and serve's
  /// lint response; the schema is documented in the README under "Static
  /// verification".
  util::Json to_json() const;
};

}  // namespace gf::verify
