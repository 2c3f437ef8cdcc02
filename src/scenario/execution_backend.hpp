// ExecutionBackend: the pluggable execution layer of the scenario API.
//
// A backend takes a batch of declarative ScenarioSpecs and produces results
// indexed exactly like the input — *how* the batch executes (threads in this
// process, worker subprocesses, some future remote fleet) is the backend's
// business and must never change a single number.  Two implementations ship:
//
//   InProcessBackend   - std::thread pool in this address space (the default)
//   StreamingBackend   - worker fleet (dispatch/): jobs stream one NDJSON line
//                        at a time to whichever worker is free, over local
//                        re-exec'd processes or hosts-file transports
//
// The primitive is execute() over mixed ScenarioJob batches (fixed-load runs
// and saturation searches can share one dispatch); run()/findPeaks() are the
// typed conveniences every caller actually uses.  Worker-count policy lives
// in ONE place — resolveWorkerCount() — so the automatic count and
// batch-size clamping cannot drift between backends.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "metrics/saturation.hpp"
#include "scenario/dispatch/fault_policy.hpp"
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

class ExecutionBackend {
 public:
  /// Completed-job notification: (job index, its outcome).  A backend MAY
  /// invoke the observer as each job finishes — StreamingBackend does, from
  /// the caller's thread, which is what lets pnoc_run checkpoint a grid
  /// mid-flight; InProcessBackend only delivers results at the end and
  /// never calls it.
  using OutcomeObserver = std::function<void(std::size_t, const ScenarioOutcome&)>;

  virtual ~ExecutionBackend() = default;

  virtual std::string name() const = 0;

  /// Installs (or clears, with {}) the per-job completion observer.
  void setOutcomeObserver(OutcomeObserver observer) {
    observer_ = std::move(observer);
  }

  /// Workers this backend would actually use for a batch of `jobCount` jobs
  /// (environment defaults and batch-size clamping applied).
  virtual unsigned workersFor(std::size_t jobCount) const = 0;

  /// Executes a mixed batch; results indexed like `jobs`.  A job failure
  /// surfaces as an exception (unless a fail-soft policy turns it into a
  /// failed outcome).
  virtual std::vector<ScenarioOutcome> execute(const std::vector<ScenarioJob>& jobs) = 0;

  /// Typed batch APIs over execute(); results indexed like `specs`.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs);
  std::vector<ScenarioPeak> findPeaks(const std::vector<ScenarioSpec>& specs);

 protected:
  OutcomeObserver observer_;
};

/// Executes one job in this process (the shared bottom of every backend:
/// worker processes and the thread pool both end up here).
ScenarioOutcome executeJob(const ScenarioJob& job);

/// One fixed-load run (builds, runs, discards a network).
metrics::RunMetrics runScenario(const ScenarioSpec& spec);

/// One saturation search over a single network reused via reset().
metrics::PeakSearchResult findScenarioPeak(const ScenarioSpec& spec);

/// The search schedule for a spec: the start load scales with the bandwidth
/// set's wavelength budget so every set's knee is bracketed from below.
metrics::PeakSearchOptions peakOptionsFor(const ScenarioSpec& spec);

/// The one worker-count policy (both backends, every caller):
///   requested == 0  ->  std::thread::hardware_concurrency(), min 1.
///   The result is clamped to jobCount (a 16-shard backend given 3 specs
///   uses 3 workers), with a floor of 1.
unsigned resolveWorkerCount(unsigned requested, std::size_t jobCount);

enum class BackendKind { kThreads, kStream };

/// Parses "threads" | "stream" (the `backend=` CLI value), with
/// "processes" an alias for "stream" (local worker processes unless a
/// hosts file is given); throws std::invalid_argument otherwise.
BackendKind parseBackendKind(const std::string& value);
std::string toString(BackendKind kind);

struct BackendOptions {
  BackendKind kind = BackendKind::kThreads;
  /// Thread / worker-process count; 0 = auto (see resolveWorkerCount).
  /// Mutually exclusive with a hosts fleet, which sizes itself.
  unsigned workers = 0;
  /// Parsed hosts-file fleet for backend=stream (empty: `workers` local
  /// workers, i.e. the fleet [{"workers":N}]).
  /// Cli::parse fills this from hosts=@file, so the file is read and
  /// validated exactly once, at parse time.
  std::vector<dispatch::HostEntry> hosts;
  /// Fault policy for backend=stream: hosts-file "policy" object first,
  /// individual CLI keys (retries=, job_deadline_ms=, ...) layered on top.
  /// The thread backend ignores it.
  dispatch::FaultPolicy policy;
};

/// Constructs the backend an options block describes.
std::unique_ptr<ExecutionBackend> makeBackend(const BackendOptions& options = {});

}  // namespace pnoc::scenario
