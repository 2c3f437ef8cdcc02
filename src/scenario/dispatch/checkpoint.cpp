#include "scenario/dispatch/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "scenario/json_record.hpp"
#include "scenario/json_util.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/wire.hpp"

namespace pnoc::scenario::dispatch {
namespace {

std::string stripTrailing(std::string line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
  if (!line.empty() && line.back() == ',') line.pop_back();
  return line;
}

/// The record lines of a BENCH file, verbatim.  JsonRecorder::write's layout
/// is stable ("  {...}[,]" per record), so the raw text IS the record's
/// serialize() output.
std::vector<std::string> extractRecordLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.size() > 2 && line[0] == ' ' && line[1] == ' ' && line[2] == '{') {
      lines.push_back(stripTrailing(line.substr(2)));
    }
  }
  return lines;
}

void validateRecordAgainstSpec(const JsonValue& record, std::size_t index,
                               const ScenarioSpec& spec) {
  // A spec_key pins the WHOLE spec (every binding-table field).  Every
  // record either driver writes carries one, so a tagged record without it
  // is not a checkpoint of this program's grids.
  const JsonValue* key = record.find("spec_key");
  if (key == nullptr) {
    throw std::invalid_argument("record for grid index " + std::to_string(index) +
                                " carries no spec_key, so it cannot be matched to"
                                " the grid (pnoc_run and pnoc_serve stamp one on"
                                " every record)");
  }
  if (key->asString() != specKey(spec)) {
    throw std::invalid_argument(
        "record for grid index " + std::to_string(index) + " has spec_key='" +
        key->asString() + "' but the grid expects '" + specKey(spec) +
        "' — this checkpoint belongs to a different grid");
  }
}

}  // namespace

std::string specKey(const ScenarioSpec& spec) {
  // FNV-1a 64-bit over the canonical JSON form: any differing binding-table
  // field — load, measure window, wavelengths, ... — changes the key.
  const std::string canonical = spec.toJson();
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : canonical) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(hash));
  return out;
}

BenchCheckpoint::BenchCheckpoint(std::string directory, std::string benchName,
                                 std::size_t gridSize)
    : directory(std::move(directory)),
      benchName(std::move(benchName)),
      rawByIndex(gridSize) {}

std::string BenchCheckpoint::path() const {
  return directory + "/BENCH_" + benchName + ".json";
}

std::size_t BenchCheckpoint::presentCount() const {
  std::size_t count = 0;
  for (const auto& raw : rawByIndex) count += raw.has_value() ? 1 : 0;
  return count;
}

std::vector<std::size_t> BenchCheckpoint::missingIndices() const {
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < rawByIndex.size(); ++i) {
    if (!rawByIndex[i]) missing.push_back(i);
  }
  return missing;
}

BenchCheckpoint parseBenchCheckpoint(const std::string& text,
                                     const std::string& recordName,
                                     const std::vector<ScenarioSpec>& grid,
                                     const std::string& origin) {
  BenchCheckpoint checkpoint("", "", grid.size());
  std::vector<bool> seen(grid.size(), false);
  // Whole-document parse first.  A file that fails it is either mid-file
  // corruption (rejected below — resuming against a mangled checkpoint must
  // not silently merge) or the one damage shape a crash legitimately
  // produces: a truncated or garbage TRAILING line.  In tolerant mode each
  // record line is parsed individually and a damaged final line counts as
  // valid-but-missing — the affected job is simply re-dispatched, and the
  // rewritten file is byte-identical to a never-interrupted run.
  bool tolerant = false;
  try {
    JsonValue::parse(text);
  } catch (const std::invalid_argument&) {
    tolerant = true;
  }
  try {
    const std::vector<std::string> lines = extractRecordLines(text);
    for (std::size_t l = 0; l < lines.size(); ++l) {
      const std::string& raw = lines[l];
      JsonValue record;
      try {
        record = JsonValue::parse(raw);
      } catch (const std::invalid_argument& error) {
        if (tolerant && l + 1 == lines.size()) {
          std::fprintf(stderr,
                       "pnoc checkpoint: '%s' ends in a truncated/garbage"
                       " record line; treating it as missing (its job will be"
                       " re-dispatched)\n",
                       origin.c_str());
          continue;
        }
        throw std::invalid_argument("record line " + std::to_string(l + 1) +
                                    " is corrupt: " + error.what());
      }
      const JsonValue* name = record.find("name");
      if (name == nullptr || name->asString() != recordName) continue;
      const JsonValue* gridIndex = record.find("grid_index");
      if (gridIndex == nullptr) continue;  // untagged legacy record
      const std::size_t index = static_cast<std::size_t>(gridIndex->asU64());
      if (index >= grid.size()) {
        throw std::invalid_argument(
            "record grid_index " + std::to_string(index) + " is out of range for a " +
            std::to_string(grid.size()) + "-spec grid");
      }
      if (seen[index]) {
        throw std::invalid_argument("duplicate record for grid index " +
                                    std::to_string(index));
      }
      seen[index] = true;
      validateRecordAgainstSpec(record, index, grid[index]);
      // A per-job FAILURE record (fail_soft dispatch) is a valid checkpoint
      // entry but not a result: its index stays missing, so resume=1
      // re-dispatches exactly the failed (and absent) indices, and the old
      // failure line is superseded rather than re-emitted.
      const JsonValue* failed = record.find("failed");
      if (failed != nullptr && failed->asU64() != 0) continue;
      checkpoint.rawByIndex[index] = raw;
    }
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument("resume checkpoint '" + origin + "': " + error.what());
  }
  return checkpoint;
}

void BenchCheckpoint::record(std::size_t gridIndex, const ScenarioOutcome& outcome) {
  rawByIndex[gridIndex] = serializedOutcomeRecord(outcome, gridIndex);
  unwritten_ = true;
}

std::optional<std::uint64_t> BenchCheckpoint::flushDueAtMs() const {
  if (!unwritten_) return std::nullopt;
  return lastWriteMs_ ? *lastWriteMs_ + kFlushIntervalMs : 0;
}

bool BenchCheckpoint::flushIfDue(std::uint64_t nowMs) {
  const std::optional<std::uint64_t> due = flushDueAtMs();
  if (!due || nowMs < *due) return false;
  return !flush(nowMs).empty();
}

std::string BenchCheckpoint::flush(std::uint64_t nowMs) {
  std::vector<std::string> records;
  for (const auto& raw : rawByIndex) {
    if (raw) records.push_back(*raw);
  }
  if (records.empty()) return "";
  const obs::ScopedSpan span("checkpoint-flush", "checkpoint");
  lastWriteMs_ = nowMs;
  unwritten_ = false;
  return writeBenchFile(directory, benchName, records);
}

BenchCheckpoint loadBenchCheckpoint(const std::string& directory,
                                    const std::string& benchName,
                                    const std::string& recordName,
                                    const std::vector<ScenarioSpec>& grid) {
  BenchCheckpoint checkpoint(directory, benchName, grid.size());
  std::ifstream in(checkpoint.path());
  if (!in) return checkpoint;  // nothing checkpointed yet: a full run
  std::ostringstream text;
  text << in.rdbuf();
  checkpoint.rawByIndex =
      parseBenchCheckpoint(text.str(), recordName, grid, checkpoint.path()).rawByIndex;
  return checkpoint;
}

std::string serializedOutcomeRecord(const ScenarioOutcome& outcome,
                                    std::size_t gridIndex) {
  JsonRecorder scratch("scratch");
  if (outcome.failed) {
    // A fail-soft per-job failure: a record with the job's identity and the
    // deterministic cause, no metrics.  The checkpoint loader treats it as
    // missing, so resume=1 re-dispatches exactly these indices.
    JsonRecord& record = scratch.add(wire::opName(outcome.op));
    record.integer("failed", 1);
    record.text("error", outcome.error);
    record.text("arch", outcome.spec.get("arch"));
    record.text("pattern", outcome.spec.params.pattern);
    record.integer("grid_index", static_cast<long long>(gridIndex));
    record.text("spec_key", specKey(outcome.spec));
    return record.serialize();
  }
  JsonRecord& record =
      outcome.op == ScenarioJob::Op::kRun
          ? recordRun(scratch, outcome.spec, outcome.metrics)
          : recordPeak(scratch, ScenarioPeak{outcome.spec, outcome.search});
  record.integer("grid_index", static_cast<long long>(gridIndex));
  record.text("spec_key", specKey(outcome.spec));
  return record.serialize();
}

std::string writeBenchFile(const std::string& directory,
                           const std::string& benchName,
                           const std::vector<std::string>& rawRecords) {
  // One layout implementation: the raw records ride through JsonRecorder,
  // whose write() is already atomic (temp + rename), so the checkpoint
  // loader's line extraction can never drift from the writer.
  JsonRecorder recorder(benchName);
  for (const std::string& raw : rawRecords) recorder.addRaw(raw);
  return recorder.write(directory);
}

}  // namespace pnoc::scenario::dispatch
