// ExecutionBackend: the execution layer of the scenario API.
//
// A backend takes a batch of declarative ScenarioSpecs and produces results
// indexed exactly like the input.  Every batch runs on a worker fleet
// (dispatch/fleet.hpp): jobs stream one NDJSON line at a time to whichever
// worker is free, over local re-exec'd processes (`shards=N`, the fleet
// [{"workers":N}]) or hosts-file transports (`hosts=@hosts.json`).  Each
// worker runs executeJob, so worker count, transport and completion order
// never change a number.  The fleet's fault policy (retries, job deadlines,
// fail_soft; dispatch/fault_policy.hpp) governs every batch, a pending
// SIGINT/SIGTERM aborts one by name, and the outcome observer sees each job
// as it completes.
//
// The one requirement on an embedder: a binary that calls makeBackend must
// answer `--pnoc-worker` (Cli::parse does, returning CliStatus::kWorker),
// because its local workers are re-execs of itself.
//
// The primitive is execute() over mixed ScenarioJob batches (fixed-load runs
// and saturation searches can share one dispatch); run()/findPeaks() are the
// typed conveniences.  resolveWorkerCount() turns `shards=0` into the
// automatic count; workersFor() is the one clamp of a fleet to its batch.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "metrics/saturation.hpp"
#include "scenario/dispatch/fault_policy.hpp"
#include "scenario/dispatch/fleet_stats.hpp"
#include "scenario/dispatch/hosts_file_types.hpp"
#include "scenario/scenario_spec.hpp"

namespace pnoc::scenario {

struct ScenarioResult {
  ScenarioSpec spec;
  metrics::RunMetrics metrics;
};

struct ScenarioPeak {
  ScenarioSpec spec;
  metrics::PeakSearchResult search;
};

/// One unit of backend work: run the spec at its fixed load, or search for
/// its saturation peak.
struct ScenarioJob {
  enum class Op { kRun, kFindPeak };
  Op op = Op::kRun;
  ScenarioSpec spec;
};

/// The result of one ScenarioJob; `metrics` is filled for kRun, `search` for
/// kFindPeak (the other member stays default-constructed).  Under a
/// fail-soft fault policy a job that exhausts its retry budget completes AS
/// a failure: `failed` set, `error` naming the (deterministic) cause, both
/// metric members default.  run()/findPeaks() refuse failed outcomes —
/// fail-soft consumers (pnoc_run) go through execute() and record them.
struct ScenarioOutcome {
  ScenarioJob::Op op = ScenarioJob::Op::kRun;
  ScenarioSpec spec;
  metrics::RunMetrics metrics;
  metrics::PeakSearchResult search;
  bool failed = false;
  std::string error;
};

/// Executes one job in this process: what every worker runs per job line.
ScenarioOutcome executeJob(const ScenarioJob& job);

/// One fixed-load run (builds, runs, discards a network).
metrics::RunMetrics runScenario(const ScenarioSpec& spec);

/// One saturation search over a single network reused via reset().
metrics::PeakSearchResult findScenarioPeak(const ScenarioSpec& spec);

/// The search schedule for a spec: the start load scales with the bandwidth
/// set's wavelength budget so every set's knee is bracketed from below.
metrics::PeakSearchOptions peakOptionsFor(const ScenarioSpec& spec);

/// A local fleet's worker count: `requested`, or for 0 the hardware
/// concurrency with a floor of 1.  ExecutionBackend::workersFor clamps it
/// to each batch.
unsigned resolveWorkerCount(unsigned requested);

struct BackendOptions {
  /// Local worker-process count; 0 = auto (see resolveWorkerCount).
  /// Mutually exclusive with a hosts fleet, which sizes itself.
  unsigned workers = 0;
  /// Parsed hosts-file fleet (empty: `workers` local workers, i.e. the
  /// fleet [{"workers":N}]).  Cli::parse fills this from hosts=@file, so
  /// the file is read and validated exactly once, at parse time.
  std::vector<dispatch::HostEntry> hosts;
  /// Fault policy: hosts-file "policy" object first, individual CLI keys
  /// (retries=, job_deadline_ms=, ...) layered on top.
  dispatch::FaultPolicy policy;
};

class ExecutionBackend {
 public:
  /// Completed-job notification: (job index, its outcome), fired on the
  /// caller's thread as each job finishes — fail-soft failures included —
  /// which is what lets pnoc_run checkpoint a grid mid-flight.
  using OutcomeObserver = std::function<void(std::size_t, const ScenarioOutcome&)>;

  /// One worker per slot listed in `hosts` (clamped to the batch size);
  /// `policy` governs every failure path (dispatch/fault_policy.hpp).
  explicit ExecutionBackend(std::vector<dispatch::HostEntry> hosts,
                            dispatch::FaultPolicy policy = {});

  /// Installs (or clears, with {}) the per-job completion observer.
  void setOutcomeObserver(OutcomeObserver observer) {
    observer_ = std::move(observer);
  }

  /// Workers a batch of `jobCount` jobs launches: the whole fleet, clamped
  /// to the batch size, with a floor of 1.
  unsigned workersFor(std::size_t jobCount) const;

  /// Executes a mixed batch; results indexed like `jobs`.  Throws
  /// std::runtime_error on an unrecoverable failure (a failed job without
  /// fail_soft, a fleet with no live worker left without fail_soft, an
  /// interrupt, a worker that exits nonzero at the close) after tearing the
  /// fleet down with bounded SIGTERM-to-SIGKILL escalation.  Outcomes that
  /// completed before the failure have already reached the observer.
  std::vector<ScenarioOutcome> execute(const std::vector<ScenarioJob>& jobs);

  /// Typed batch APIs over execute(); results indexed like `specs`.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs);
  std::vector<ScenarioPeak> findPeaks(const std::vector<ScenarioSpec>& specs);

  /// Fleet counters and per-worker status of the most recent execute().
  const dispatch::FleetStats& lastStats() const { return stats_; }
  const std::vector<dispatch::WorkerStatus>& lastWorkers() const {
    return workers_;
  }

 private:
  std::vector<dispatch::HostEntry> hosts_;
  dispatch::FaultPolicy policy_;
  OutcomeObserver observer_;
  dispatch::FleetStats stats_;
  std::vector<dispatch::WorkerStatus> workers_;
};

/// Builds the fleet an options block describes: `hosts` when given, else
/// `workers` local workers (0 = auto, see resolveWorkerCount).
std::unique_ptr<ExecutionBackend> makeBackend(const BackendOptions& options = {});

}  // namespace pnoc::scenario
