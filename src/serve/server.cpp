#include "src/serve/server.h"

#include <condition_variable>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>

namespace gf::serve {

std::size_t run_server(std::istream& in, std::ostream& out, AnalysisService& service,
                       conc::ThreadPool& pool, const ServerOptions& options) {
  const std::size_t cap = options.max_in_flight == 0 ? 1 : options.max_in_flight;

  std::mutex mutex;
  std::condition_variable progress;
  std::map<std::size_t, std::string> ready;  // ticket -> response
  std::size_t next_write = 0;
  std::size_t in_flight = 0;
  bool writing = false;

  // The worker that completes ticket `next_write` writes the contiguous
  // ready prefix, so a reply goes out as soon as every earlier one has,
  // without waiting for more input. `writing` admits one writer at a time;
  // it re-checks `ready` before it stops, so a reply completed meanwhile
  // by another worker is not left behind. One writer plus ticket order is
  // what makes the output byte stream independent of worker count and
  // completion order.
  const auto write_ready = [&](std::unique_lock<std::mutex>& lock) {
    if (writing) return;
    writing = true;
    for (;;) {
      std::string batch;
      for (auto it = ready.begin(); it != ready.end() && it->first == next_write;
           it = ready.erase(it)) {
        batch += it->second;
        batch += '\n';
        ++next_write;
        --in_flight;
      }
      if (batch.empty()) break;
      lock.unlock();  // stream I/O outside the lock
      out << batch;
      out.flush();
      lock.lock();
    }
    writing = false;
    progress.notify_all();  // under the lock: the reader may return right after
  };

  // A stream tied to `out` (std::cin is tied to std::cout) would flush
  // `out` from this thread on every read, racing the writing worker.
  std::ostream* const tied = in.tie(nullptr);

  std::size_t served = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t ticket = served++;
    {
      std::unique_lock lock(mutex);
      progress.wait(lock, [&] { return in_flight < cap; });
      ++in_flight;
    }
    pool.submit([&, ticket, request = std::move(line)] {
      std::string response = service.handle(request);
      std::unique_lock lock(mutex);
      ready.emplace(ticket, std::move(response));
      write_ready(lock);
    });
  }

  std::unique_lock lock(mutex);
  progress.wait(lock, [&] { return next_write == served && !writing; });
  in.tie(tied);
  return served;
}

}  // namespace gf::serve
