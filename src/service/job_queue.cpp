#include "service/job_queue.hpp"

#include <stdexcept>

#include "scenario/json_util.hpp"
#include "scenario/wire.hpp"

namespace pnoc::service {
namespace {

std::size_t countStates(const GridJob& job, UnitState state) {
  std::size_t count = 0;
  for (const UnitState s : job.unitStates) count += s == state ? 1 : 0;
  return count;
}

}  // namespace

std::string toString(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCanceled: return "canceled";
  }
  return "?";
}

std::size_t GridJob::doneUnits() const { return countStates(*this, UnitState::kDone); }
std::size_t GridJob::pendingUnits() const {
  return countStates(*this, UnitState::kPending);
}
std::size_t GridJob::dispatchedUnits() const {
  return countStates(*this, UnitState::kDispatched);
}
std::size_t GridJob::failedUnits() const {
  std::size_t count = 0;
  for (const bool failed : unitFailed) count += failed ? 1 : 0;
  return count;
}

std::string gridJobMembers(const GridJob& job) {
  std::string out = "\"client\":\"" + scenario::jsonEscape(job.client) +
                    "\",\"priority\":" + std::to_string(job.priority) +
                    ",\"mode\":\"" + scenario::wire::opName(job.op) +
                    "\",\"bench\":\"" + scenario::jsonEscape(job.benchName) +
                    "\",\"dir\":\"" + scenario::jsonEscape(job.outDir) +
                    "\",\"specs\":[";
  for (std::size_t s = 0; s < job.grid.size(); ++s) {
    if (s != 0) out += ",";
    out += job.grid[s].toJson();
  }
  out += "]";
  return out;
}

GridJob parseGridJob(const scenario::JsonValue& object) {
  GridJob job;
  if (const scenario::JsonValue* client = object.find("client")) {
    job.client = client->asString();
  }
  if (const scenario::JsonValue* priority = object.find("priority")) {
    job.priority = priority->asU64();
  }
  if (const scenario::JsonValue* mode = object.find("mode")) {
    job.op = scenario::wire::parseOp(mode->asString());
  }
  if (const scenario::JsonValue* bench = object.find("bench")) {
    job.benchName = bench->asString();
  }
  if (const scenario::JsonValue* dir = object.find("dir")) {
    job.outDir = dir->asString();
  }
  const scenario::JsonValue* specs = object.find("specs");
  if (specs == nullptr || specs->items().empty()) {
    throw std::invalid_argument("submit needs a non-empty \"specs\" array");
  }
  try {
    for (const scenario::JsonValue& item : specs->items()) {
      job.grid.emplace_back().applyJsonObject(item);
    }
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string("bad spec: ") + error.what());
  }
  return job;
}

std::uint64_t JobQueue::submit(GridJob job) {
  if (job.grid.empty()) {
    throw std::invalid_argument("job carries no specs");
  }
  if (job.id == 0) job.id = nextId_;
  if (jobs_.count(job.id) != 0) {
    throw std::invalid_argument("duplicate job id " + std::to_string(job.id));
  }
  if (job.id >= nextId_) nextId_ = job.id + 1;
  job.unitStates.assign(job.grid.size(), UnitState::kPending);
  job.unitFailed.assign(job.grid.size(), false);
  job.state = JobState::kQueued;
  const std::uint64_t id = job.id;
  jobs_.emplace(id, std::move(job));
  return id;
}

GridJob* JobQueue::find(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

const GridJob* JobQueue::find(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

std::optional<UnitKey> JobQueue::nextUnit() {
  // Candidates: live jobs with at least one pending unit, in id (= age)
  // order — std::map iteration gives us that for free.
  GridJob* chosen = nullptr;
  const bool age = (dispatchSeq_ % 4) == 3;  // every 4th dispatch: oldest wins
  for (auto& [id, job] : jobs_) {
    if (job.terminal() || job.pendingUnits() == 0) continue;
    if (age) {
      chosen = &job;  // first candidate in id order IS the oldest
      break;
    }
    if (chosen == nullptr || job.priority > chosen->priority) {
      chosen = &job;
      continue;
    }
    if (job.priority < chosen->priority) continue;
    // Same priority tier: the least-recently-served client goes first
    // (clients never served rank first of all); ties keep the older job.
    const auto servedAt = [&](const std::string& client) -> std::uint64_t {
      const auto it = lastServed_.find(client);
      return it == lastServed_.end() ? 0 : it->second;
    };
    if (servedAt(job.client) < servedAt(chosen->client)) chosen = &job;
  }
  if (chosen == nullptr) return std::nullopt;
  for (std::size_t u = 0; u < chosen->unitStates.size(); ++u) {
    if (chosen->unitStates[u] != UnitState::kPending) continue;
    chosen->unitStates[u] = UnitState::kDispatched;
    if (chosen->state == JobState::kQueued) chosen->state = JobState::kRunning;
    lastServed_[chosen->client] = ++dispatchSeq_;
    return UnitKey{chosen->id, u};
  }
  return std::nullopt;  // unreachable: pendingUnits() > 0 above
}

void JobQueue::requeueUnit(const UnitKey& ref) {
  GridJob* job = find(ref.job);
  if (job == nullptr || ref.unit >= job->unitStates.size()) return;
  if (job->unitStates[ref.unit] == UnitState::kDispatched ||
      job->unitStates[ref.unit] == UnitState::kPending) {
    job->unitStates[ref.unit] = UnitState::kPending;
  }
}

bool JobQueue::unitDone(const UnitKey& ref, bool failed) {
  GridJob* job = find(ref.job);
  if (job == nullptr || ref.unit >= job->unitStates.size()) return false;
  if (job->state == JobState::kCanceled) return false;  // result discarded
  if (job->unitStates[ref.unit] == UnitState::kDone) return false;
  job->unitStates[ref.unit] = UnitState::kDone;
  job->unitFailed[ref.unit] = failed;
  if (job->pendingUnits() == 0 && job->dispatchedUnits() == 0) {
    job->state = job->failedUnits() != 0 ? JobState::kFailed : JobState::kDone;
    return true;
  }
  return false;
}

bool JobQueue::cancel(std::uint64_t id) {
  GridJob* job = find(id);
  if (job == nullptr || job->terminal()) return false;
  for (UnitState& state : job->unitStates) {
    if (state == UnitState::kPending || state == UnitState::kDispatched) {
      state = UnitState::kCanceled;
    }
  }
  job->state = JobState::kCanceled;
  return true;
}

std::size_t JobQueue::pendingUnits() const {
  std::size_t count = 0;
  for (const auto& [id, job] : jobs_) {
    if (!job.terminal()) count += job.pendingUnits();
  }
  return count;
}

std::size_t JobQueue::dispatchedUnits() const {
  std::size_t count = 0;
  for (const auto& [id, job] : jobs_) {
    if (!job.terminal()) count += job.dispatchedUnits();
  }
  return count;
}

}  // namespace pnoc::service
