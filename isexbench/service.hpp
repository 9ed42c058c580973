// service_mix: drives isex_serve over its wire protocol.
//
// One pass: start isex_serve on an empty cache log in a temporary
// directory (port 0), send every distinct job twice in shuffled order,
// closed loop over `connections` connections, drain with SIGTERM, restart
// on the same log and replay every distinct job once.  The benchmark is the
// only client.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"

namespace isexbench {

/// A running isex_serve child.  The destructor kills and reaps a child
/// that was not stopped.
class ServerProcess {
 public:
  /// Spawns `exe` with `args`, waits for its "listening on" line and
  /// returns with the port known.  Throws std::runtime_error on failure.
  ServerProcess(const std::string& exe, const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  /// Wall time from spawn to the "listening on" line.
  double start_ms() const { return start_ms_; }
  /// VmHWM of the child in KiB (0 if unreadable).
  long peak_rss_kib() const;
  /// SIGTERM, wait for the drain; returns the exit status (-1 if killed).
  int stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double start_ms_ = 0.0;
};

/// Body of `GET path` from the server on `port`.
std::string http_get(std::uint16_t port, const std::string& path);

/// One response as the client saw it.
struct Reply {
  std::size_t job = 0;  ///< index into the distinct job list
  int phase = 1;        ///< 1: first phase, 2: replay after the restart
  double latency_ms = 0.0;
  bool ok = false;
  bool hit = false;
  std::string digest;  ///< "result_digest" value
  std::string tail;    ///< body after the "timings" object
  double reduction = -1.0;  ///< kernel jobs: "reduction"
  std::string raw;
};

struct ServicePass {
  std::vector<Reply> replies;
  double phase1_s = 0.0;
  double phase2_s = 0.0;
  double warm_start_ms = 0.0;  ///< restart: spawn to listening, log loaded
  std::uint64_t log_bytes = 0;  ///< cache log size after phase 1
  long peak_rss_kib = 0;        ///< max VmHWM over both server processes
  int exit1 = -1;
  int exit2 = -1;
  /// Schedule-cache lookups/hits and pool steals scraped from /metrics at
  /// the end of each phase (summed over both processes).
  double eval_lookups = 0.0;
  double eval_hits = 0.0;
  double pool_steals = 0.0;
  std::vector<SpanEvent> spans;  ///< server spans of both phases (traced)
};

/// Runs one pass as described above in a fresh directory under `work_dir`.
ServicePass run_service_pass(const std::string& serve_exe,
                             const std::string& work_dir,
                             const std::vector<ServiceJob>& jobs,
                             const std::vector<std::size_t>& order,
                             int connections, bool traced);

}  // namespace isexbench
