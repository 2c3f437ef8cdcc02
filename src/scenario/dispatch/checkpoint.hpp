// A grid's BENCH checkpoint, owned by BenchCheckpoint for both grid drivers
// (pnoc_run and the pnoc_serve daemon): which records exist, and when the
// file is rewritten while the grid runs.
//
// Every run/peak record a driver emits carries a `grid_index` field.  That
// makes an existing BENCH_<bench>.json a checkpoint: this module maps its
// records back onto the grid (validating that each record really belongs to
// the spec at that index), so the driver can skip the indices already
// present, dispatch only the remainder, and merge — re-emitting the old
// records VERBATIM, byte for byte, next to the fresh ones.
//
// Record text is recovered from JsonRecorder::write's stable layout (one
// record per `  {...}[,]` line), not re-serialized from parsed values — a
// resumed file is byte-identical to the file a single uninterrupted run
// would have written, regardless of double-formatting subtleties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/execution_backend.hpp"
#include "scenario/scenario_spec.hpp"

namespace pnoc::scenario::dispatch {

class BenchCheckpoint {
 public:
  /// Rewrite throttle: a checkpoint exists to bound lost work after a kill,
  /// and one second of it is a fine bound — rewriting a many-thousand-spec
  /// file after every cheap job is not.
  static constexpr std::uint64_t kFlushIntervalMs = 1000;

  BenchCheckpoint() = default;
  /// An empty checkpoint for a `gridSize`-spec grid.
  BenchCheckpoint(std::string directory, std::string benchName, std::size_t gridSize);

  std::string directory;
  std::string benchName;
  /// rawByIndex[i] holds the exact serialized record for grid index i, when
  /// the checkpoint has one.
  std::vector<std::optional<std::string>> rawByIndex;

  std::string path() const;  // directory/BENCH_<benchName>.json
  std::size_t presentCount() const;
  std::vector<std::size_t> missingIndices() const;

  /// Stores `outcome`'s serialized record (failure records included) at
  /// `gridIndex` and makes the file due for a rewrite.
  void record(std::size_t gridIndex, const ScenarioOutcome& outcome);

  /// When the next rewrite is due (steadyNowMs time): std::nullopt while
  /// every record is on disk, 0 (at once) before the first write, else
  /// kFlushIntervalMs after the last write.
  std::optional<std::uint64_t> flushDueAtMs() const;

  /// flush(nowMs) when a rewrite is due at `nowMs`; true when it wrote.
  bool flushIfDue(std::uint64_t nowMs);

  /// Rewrites the file now with every present record, in grid order,
  /// through writeBenchFile (a no-op without records).  Returns the path
  /// written, or "".
  std::string flush(std::uint64_t nowMs);

 private:
  std::optional<std::uint64_t> lastWriteMs_;
  bool unwritten_ = false;  // records added since the last write
};

/// Fingerprint of a spec's FULL canonical form (FNV-1a over toJson(), hex).
/// pnoc_run stamps it on every record so resume can reject records computed
/// under ANY differing parameter (measure, warmup, wavelengths, ...), not
/// just the identity fields a record happens to carry.
std::string specKey(const ScenarioSpec& spec);

/// Parses checkpoint `text` (a BENCH_*.json written by pnoc_run) against
/// `grid`: records named `recordName` carrying `grid_index` land by index;
/// other records (timing, untagged legacy) are ignored.  Throws
/// std::invalid_argument on malformed files, duplicate or out-of-range
/// indices, or tagged records whose spec_key is missing or names another
/// spec — resuming against the wrong grid must fail, not silently merge.
/// Per-job FAILURE records ("failed":1, written by a fail-soft dispatch)
/// validate like any record but leave their index missing, so resume
/// re-dispatches them.
BenchCheckpoint parseBenchCheckpoint(const std::string& text,
                                     const std::string& recordName,
                                     const std::vector<ScenarioSpec>& grid,
                                     const std::string& origin);

/// Loads the checkpoint `directory`/BENCH_`benchName`.json; a missing file
/// is an EMPTY checkpoint (nothing recorded yet — the killed-before-first-
/// write case), any other read or parse problem throws.
BenchCheckpoint loadBenchCheckpoint(const std::string& directory,
                                    const std::string& benchName,
                                    const std::string& recordName,
                                    const std::vector<ScenarioSpec>& grid);

/// The serialized run/peak record for one grid index — THE record format
/// (recordRun/recordPeak) plus the grid_index and spec_key tags resume keys
/// off.  A failed outcome (fail_soft) serializes as a failure record with
/// the job's identity and deterministic cause, no metrics.  Shared by every
/// writer of BENCH records (pnoc_run, pnoc_serve) so a job's bytes are
/// identical no matter which driver computed it.
std::string serializedOutcomeRecord(const ScenarioOutcome& outcome,
                                    std::size_t gridIndex);

/// Writes `rawRecords` (in order) as a BENCH file THROUGH
/// JsonRecorder::write — the incremental checkpoint writer.  write() is
/// atomic (temp sibling + rename), so a kill mid-write never leaves a
/// truncated checkpoint.  Returns the path written, or "" (with a stderr
/// note) on I/O failure.
std::string writeBenchFile(const std::string& directory,
                           const std::string& benchName,
                           const std::vector<std::string>& rawRecords);

}  // namespace pnoc::scenario::dispatch
