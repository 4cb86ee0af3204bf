// Line-delimited JSON server loop for `gfctl serve`.
//
// Reads one request per line from `in`, dispatches each onto the thread
// pool, and writes one response per line to `out` — in REQUEST ORDER,
// whatever order the workers finish in. Ordered output costs a small
// reorder buffer but buys the protocol's strongest property for free:
// the byte stream a given request sequence produces is identical for any
// worker count (serve_bench's determinism gate diffs entire streams).
// A reply is written and flushed as soon as it and every earlier reply
// are done, so an interactive client never has to send more input to see
// it. While the loop runs, `in` is untied from any output stream.
//
// Backpressure: at most `max_in_flight` requests are admitted at once;
// the reader blocks (rather than buffering unboundedly) when clients
// outrun the workers. Pool queue depth and busy-worker gauges are
// visible to clients via the "stats" request kind.
#pragma once

#include <cstddef>
#include <iosfwd>

#include "src/concurrency/thread_pool.h"
#include "src/serve/service.h"

namespace gf::serve {

struct ServerOptions {
  /// Admission cap: requests read but not yet responded to. The reader
  /// stalls at the cap, so memory stays bounded under any input size.
  std::size_t max_in_flight = 64;
};

/// Runs the serve loop until `in` is exhausted and every reply is written;
/// returns requests served.
/// Blank lines are ignored. Every non-blank line yields exactly one
/// response line (AnalysisService::handle never throws), so the loop
/// itself only ends at EOF — a malformed request cannot kill the server.
std::size_t run_server(std::istream& in, std::ostream& out, AnalysisService& service,
                       conc::ThreadPool& pool, const ServerOptions& options = {});

}  // namespace gf::serve
