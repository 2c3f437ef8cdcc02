#include "service/journal.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "obs/trace.hpp"
#include "scenario/json_util.hpp"

namespace pnoc::service {
namespace {

std::string terminalEventLine(const char* event, std::uint64_t id) {
  return std::string("{\"event\":\"") + event +
         "\",\"job\":" + std::to_string(id) + "}";
}

std::uint64_t microsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

std::string submitEventLine(const GridJob& job) {
  return "{\"event\":\"submit\",\"job\":" + std::to_string(job.id) + "," +
         gridJobMembers(job) + "}";
}

std::vector<GridJob> replayJournalText(const std::string& text,
                                       const std::string& origin) {
  std::vector<GridJob> jobs;
  std::vector<bool> terminal;  // indexed like `jobs`
  const auto findJob = [&](std::uint64_t id) -> std::size_t {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].id == id) return j;
    }
    return jobs.size();
  };
  // Collect the non-empty lines first so "is this the LAST line?" — the
  // only position where damage is a tolerated crash artifact — is known
  // while parsing.
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(std::move(line));
  }
  try {
    for (std::size_t l = 0; l < lines.size(); ++l) {
      scenario::JsonValue event;
      try {
        event = scenario::JsonValue::parse(lines[l]);
      } catch (const std::invalid_argument& error) {
        if (l + 1 == lines.size()) {
          std::fprintf(stderr,
                       "pnoc_serve journal: '%s' ends in a truncated/garbage"
                       " event line; dropping it (an unacknowledged event)\n",
                       origin.c_str());
          continue;
        }
        throw std::invalid_argument("event line " + std::to_string(l + 1) +
                                    " is corrupt: " + error.what());
      }
      const std::string kind = event.at("event").asString();
      const std::uint64_t id = event.at("job").asU64();
      if (kind == "submit") {
        if (findJob(id) != jobs.size()) {
          throw std::invalid_argument("duplicate submit for job " +
                                      std::to_string(id));
        }
        GridJob job = parseGridJob(event);
        job.id = id;
        jobs.push_back(std::move(job));
        terminal.push_back(false);
      } else if (kind == "done" || kind == "cancel") {
        const std::size_t j = findJob(id);
        if (j == jobs.size()) {
          throw std::invalid_argument("'" + kind + "' for unknown job " +
                                      std::to_string(id));
        }
        terminal[j] = true;
      } else {
        throw std::invalid_argument("unknown event '" + kind + "'");
      }
    }
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument("service journal '" + origin + "': " +
                                error.what());
  }
  std::vector<GridJob> live;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!terminal[j]) live.push_back(std::move(jobs[j]));
  }
  return live;
}

QueueJournal::~QueueJournal() { close(); }

void QueueJournal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void QueueJournal::bindMetrics(obs::Registry* registry) {
  if (registry == nullptr) {
    appends_ = obs::Counter();
    fsyncUs_ = obs::Histogram();
    compactions_ = obs::Counter();
    compactUs_ = obs::Histogram();
    liveJobs_ = obs::Gauge();
    return;
  }
  appends_ = registry->counter("journal_appends_total");
  fsyncUs_ = registry->histogram("journal_fsync_us");
  compactions_ = registry->counter("journal_compactions_total");
  compactUs_ = registry->histogram("journal_compact_us");
  liveJobs_ = registry->gauge("journal_live_jobs");
}

std::vector<GridJob> QueueJournal::open(const std::string& path) {
  const obs::ScopedSpan span("journal-compact", "journal");
  const auto start = std::chrono::steady_clock::now();
  close();
  path_ = path;
  std::vector<GridJob> live;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      live = replayJournalText(text.str(), path);
    }
  }
  // Compact: rewrite only the live submits, atomically (temp + rename), so
  // a crash mid-compaction leaves either the old journal or the new one.
  const std::string temp = path + ".tmp";
  std::FILE* out = std::fopen(temp.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("service journal '" + path +
                             "': cannot write: " + std::strerror(errno));
  }
  for (const GridJob& job : live) {
    const std::string line = submitEventLine(job) + "\n";
    std::fwrite(line.data(), 1, line.size(), out);
  }
  std::fflush(out);
  ::fsync(fileno(out));
  std::fclose(out);
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("service journal '" + path +
                             "': rename failed: " + std::strerror(errno));
  }
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    throw std::runtime_error("service journal '" + path +
                             "': cannot append: " + std::strerror(errno));
  }
  compactions_.inc();
  compactUs_.observe(microsSince(start));
  liveJobs_.set(static_cast<std::int64_t>(live.size()));
  return live;
}

void QueueJournal::appendLine(const std::string& line) {
  if (file_ == nullptr) return;  // journaling disabled (no journal= path)
  const obs::ScopedSpan span("journal-fsync", "journal");
  const auto start = std::chrono::steady_clock::now();
  const std::string out = line + "\n";
  if (std::fwrite(out.data(), 1, out.size(), file_) != out.size() ||
      std::fflush(file_) != 0) {
    throw std::runtime_error("service journal '" + path_ +
                             "': append failed: " + std::strerror(errno));
  }
  ::fsync(fileno(file_));
  appends_.inc();
  fsyncUs_.observe(microsSince(start));
}

void QueueJournal::appendSubmit(const GridJob& job) {
  appendLine(submitEventLine(job));
}

void QueueJournal::appendCancel(std::uint64_t id) {
  appendLine(terminalEventLine("cancel", id));
}

void QueueJournal::appendDone(std::uint64_t id) {
  appendLine(terminalEventLine("done", id));
}

}  // namespace pnoc::service
