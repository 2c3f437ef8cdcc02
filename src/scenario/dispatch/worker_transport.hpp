// WorkerTransport: how the dispatch layer reaches a worker process.
//
// A transport knows how to LAUNCH one worker speaking the NDJSON job
// protocol on stdin/stdout; everything above it (dealing, merging, retry)
// is transport-agnostic.  It is built from one HostEntry, the only
// description of a fleet (`shards=N` is `[{"workers":N}]`), and runs
// `<launcher...> <executable> --pnoc-worker`: an empty launcher is a plain
// local re-exec, and a launcher (`ssh hostA`, `docker exec c`, `env`) fans
// the same protocol out across machines or containers.
//
// launch() produces a WorkerConnection: a child pid plus the two pipe fds
// the parent owns.  It is a non-blocking fork/exec, so a slow host (an
// ssh that takes seconds to connect) shows up as a late handshake ack that
// the fleet's connect budget bounds, never as a blocked caller.  Pipe fds
// are FD_CLOEXEC so workers never inherit each other's ends (an inherited
// stdin write end would keep an earlier worker from ever seeing EOF).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include <sys/types.h>

#include "scenario/dispatch/hosts_file_types.hpp"

namespace pnoc::scenario::dispatch {

/// One live worker as the parent sees it: jobs go down stdinFd, replies
/// come back on stdoutFd.  `description` names the worker in failure
/// messages ("local worker", "ssh hostA worker", ...).
struct WorkerConnection {
  pid_t pid = -1;
  int stdinFd = -1;
  int stdoutFd = -1;
  std::string description;
};

class WorkerTransport {
 public:
  /// Launches workers as `host` describes them (its `workers` count is the
  /// caller's business: transportsFor() makes one transport per slot).
  explicit WorkerTransport(HostEntry host) : host_(std::move(host)) {}

  /// "local worker" for an empty launcher, else "<launcher> worker".
  std::string describe() const;

  /// Launches one worker; throws std::runtime_error when the process
  /// cannot be created.  (An exec failure inside the child surfaces later
  /// as exit status 127 with no protocol output.)
  WorkerConnection launch() const;

  /// Connect (launch + handshake-ack) budget in milliseconds; 0 means "use
  /// the fleet policy's connect_timeout_ms".
  std::uint64_t connectTimeoutMs() const { return host_.connectTimeoutMs; }

 private:
  HostEntry host_;
};

/// Closes both pipe fds (idempotent).
void closeConnection(WorkerConnection& connection);

/// Writes the whole buffer (EINTR-safe); returns false on EPIPE — the
/// worker died, and its wait status tells the story — and throws
/// std::runtime_error on any other error.  Callers must have SIGPIPE
/// ignored (FleetManager does, process-wide, on construction).
bool writeAllToWorker(int fd, const std::string& data);

/// Bounded reap: waits up to `graceMs` (WNOHANG polling) for the worker to
/// exit on its own; one still alive at expiry is SIGKILLed and reaped —
/// this can never block indefinitely.  Sets *killed (when non-null) if the
/// escalation fired.  Returns the wait status (-1: nothing to reap) and
/// clears `pid`.
int reapWorkerWithin(WorkerConnection& connection, std::uint64_t graceMs,
                     bool* killed = nullptr);

/// The abnormal-path kill: closes both pipes (stdin EOF lets a healthy
/// worker exit inside the grace), sends SIGTERM, then escalates per
/// reapWorkerWithin.  A worker that ignores SIGTERM — or is wedged in a
/// job — is SIGKILLed after `graceMs`, so teardown is always bounded.
int terminateWorker(WorkerConnection& connection, std::uint64_t graceMs);

/// "exited with status N" / "killed by signal N" for a wait status.
std::string describeWaitStatus(int status);

}  // namespace pnoc::scenario::dispatch
