// ServeDaemon: the pnoc_serve service — a persistent scheduler daemon on a
// Unix-domain socket, serving many concurrent clients from one shared
// elastic worker fleet.
//
// One single-threaded poll loop owns everything: the listening socket,
// every client session, every worker pipe, the interrupt self-pipe and the
// stop pipe.  No locks, no cross-thread state — determinism and crash
// safety come from the loop's strict event ordering plus two durable
// artifacts:
//
//   * the queue journal (service/journal): every ACCEPTED submit is fsync'd
//     before it is acknowledged, so a daemon restart reconstructs every
//     accepted job exactly;
//   * per-job BENCH checkpoint files (dispatch/checkpoint): each live job
//     holds one BenchCheckpoint, and unit results are flushed as they
//     complete (on the checkpoint's ~1/s throttle), so a restart
//     re-dispatches only the units genuinely missing and re-emits the rest
//     VERBATIM — the final file is byte-identical to a one-shot pnoc_run
//     of the same grid (timing record aside).
//
// Request verbs (service/protocol.hpp; one JSON line each):
//
//   {"op":"submit","client":"a","priority":2,"mode":"run","bench":"x",
//    "dir":"out","specs":[{...},...]}         -> {"ok":1,"job":N,"units":M}
//     (the members after "op" are the GridJob codec's, job_queue.hpp; the
//     journal's submit event is the same members behind "event" and "job".
//     Every spec must pass ScenarioSpec::validate, else "bad spec: ..." and
//     nothing is journaled)
//   {"op":"status"}                           -> one status document
//   {"op":"watch","job":N}                    -> event stream until terminal
//   {"op":"cancel","job":N}                   -> {"ok":1,"job":N}
//   {"op":"drain"}                            -> {"ok":1,"drained":1} when empty
//   {"op":"shutdown"}                         -> {"ok":1} then the loop exits
//   {"op":"fleet-add","workers":K,...}        -> {"ok":1,"workers":<live>}
//   {"op":"fleet-remove","worker":S}          -> {"ok":1,"worker":S}
//   {"op":"metrics"}                          -> {"ok":1,"metrics":{...}}
//   {"op":"metrics","format":"text"}          -> {"ok":1,...,"body":"<prom>"}
//
// Observability: the daemon owns one obs::Registry hosting the fleet's
// fault counters, the journal's fsync/compaction histograms, and the
// daemon's own queue gauges — `status` summarizes and `metrics` dumps the
// SAME cells, so the two can never disagree.  ServeOptions.tracePath
// additionally streams Chrome-trace spans (queue-wait, dispatch,
// unit-execution, checkpoint-flush, journal-fsync, worker handshakes,
// respawns) for ui.perfetto.dev.
//
// SIGINT/SIGTERM (sim/interrupt) and requestStop() drain the same way
// shutdown does: checkpoints and the journal are flushed before exit, so
// an interrupted daemon resumes every accepted job on restart.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/dispatch/checkpoint.hpp"
#include "scenario/dispatch/fleet.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/json_util.hpp"
#include "service/job_queue.hpp"
#include "service/journal.hpp"

namespace pnoc::service {

using scenario::dispatch::FleetManager;
using scenario::dispatch::FleetUnit;

struct ServeOptions {
  std::string socketPath;
  /// NDJSON queue journal; "" runs without durability (tests only).
  std::string journalPath;
  /// Worker binary fleet-add uses when its request names none ("" = this
  /// executable).
  std::string workerExecutable;
  /// The fleet start() launches, one worker per slot (dispatch/
  /// hosts_file.hpp).  pnoc_serve fills it from hosts=, or from `shards=N
  /// executable=X` as [{"workers":max(N,1),"executable":X}]; empty starts
  /// with no workers (the queue parks until a fleet-add).
  std::vector<scenario::dispatch::HostEntry> hosts;
  scenario::dispatch::FaultPolicy policy;
  /// Chrome-trace span output ("" = tracing off).
  std::string tracePath;
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds the socket, opens + replays the journal (resuming every live
  /// job through its BENCH checkpoint), and launches the fleet.  Throws
  /// std::runtime_error / std::invalid_argument on failure.
  void start();

  /// The poll loop; returns the process exit code (0: shutdown verb or
  /// requestStop(), 130: interrupted by signal).  start() first.
  int run();

  /// Stops the loop from another thread (in-process tests): flushes like a
  /// shutdown verb.  Safe to call at any time after construction.
  void requestStop();

  const std::string& socketPath() const { return options_.socketPath; }

  /// The daemon's metric registry (fleet + journal + queue gauges); what
  /// the metrics verb snapshots.  Exposed for in-process tests.
  obs::Registry& metrics() { return registry_; }

 private:
  struct Session {
    int fd = -1;
    std::string inBuf;
    std::string outBuf;
    std::uint64_t watchJob = 0;  // 0: not watching
    bool awaitingDrain = false;
    bool closeAfterFlush = false;
  };

  void acceptSessions();
  void serviceSession(Session& session);
  void handleRequest(Session& session, const std::string& line);
  void send(Session& session, const std::string& line);
  void flushSession(Session& session);
  void closeSession(Session& session);

  void handleSubmit(Session& session, const scenario::JsonValue& request);
  void handleStatus(Session& session);
  void handleWatch(Session& session, const scenario::JsonValue& request);
  void handleCancel(Session& session, const scenario::JsonValue& request);
  void handleFleetAdd(Session& session, const scenario::JsonValue& request);
  void handleFleetRemove(Session& session, const scenario::JsonValue& request);
  void handleMetrics(Session& session, const scenario::JsonValue& request);

  std::optional<FleetUnit> nextUnit();
  void unitDone(const UnitKey& ref, scenario::ScenarioOutcome outcome);
  /// Rewrites a live job's BENCH checkpoint now and remembers its path.
  void flushJobCheckpoint(GridJob& job);
  void finalizeJob(GridJob& job);
  void notifyWatchers(const GridJob& job, bool terminal);
  void maybeAnswerDrains();
  std::string statusJson() const;
  std::string jobEventLine(const GridJob& job, bool terminal) const;
  void flushAllState();
  /// Refreshes the registry's level gauges (queue depth, workers, uptime)
  /// so a snapshot is coherent at read time.
  void publishRuntimeGauges();
  /// Trace-span id for one unit's queue-wait (job and unit packed).
  static std::uint64_t queueWaitSpanId(const UnitKey& ref) {
    return (ref.job << 20) | static_cast<std::uint64_t>(ref.unit);
  }

  ServeOptions options_;
  JobQueue queue_;
  QueueJournal journal_;
  std::unique_ptr<FleetManager> fleet_;
  obs::Registry registry_;
  std::unique_ptr<obs::TraceWriter> trace_;
  obs::Counter eventsTotal_;
  std::uint64_t startMs_ = 0;
  std::vector<Session> sessions_;
  /// One BENCH checkpoint per live job; dropped when the job goes terminal,
  /// so a canceled job's late results have nowhere to land.
  std::map<std::uint64_t, scenario::dispatch::BenchCheckpoint> checkpoints_;
  int listenFd_ = -1;
  int stopPipe_[2] = {-1, -1};
  bool draining_ = false;
  bool stopping_ = false;
  int exitCode_ = 0;
};

}  // namespace pnoc::service
