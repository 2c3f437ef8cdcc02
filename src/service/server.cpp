#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "scenario/dispatch/hosts_file.hpp"
#include "scenario/wire.hpp"
#include "service/protocol.hpp"
#include "sim/interrupt.hpp"

namespace pnoc::service {
namespace {

using scenario::dispatch::steadyNowMs;

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions options) : options_(std::move(options)) {
  eventsTotal_ = registry_.counter("serve_events_total");
  // The journal's fsync/compaction metrics land in the daemon's registry, so
  // one snapshot covers queue + fleet + journal.  Bind before open().
  journal_.bindMetrics(&registry_);
  if (::pipe(stopPipe_) == 0) {
    setNonBlocking(stopPipe_[0]);
    setNonBlocking(stopPipe_[1]);
    ::fcntl(stopPipe_[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(stopPipe_[1], F_SETFD, FD_CLOEXEC);
  }
}

ServeDaemon::~ServeDaemon() {
  if (trace_ != nullptr && obs::trace() == trace_.get()) obs::setTrace(nullptr);
  for (Session& session : sessions_) {
    if (session.fd >= 0) ::close(session.fd);
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    ::unlink(options_.socketPath.c_str());
  }
  if (stopPipe_[0] >= 0) ::close(stopPipe_[0]);
  if (stopPipe_[1] >= 0) ::close(stopPipe_[1]);
}

void ServeDaemon::requestStop() {
  if (stopPipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stopPipe_[1], &byte, 1);
  }
}

void ServeDaemon::start() {
  // Socket writes to a vanished client must surface as EPIPE, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (options_.socketPath.empty()) {
    throw std::invalid_argument("pnoc_serve: socket= needs a path");
  }
  startMs_ = steadyNowMs();

  // Tracing goes up FIRST so the journal replay's compaction span and the
  // resumed units' queue-waits land in the file.
  if (!options_.tracePath.empty()) {
    trace_ = std::make_unique<obs::TraceWriter>(options_.tracePath, "pnoc_serve");
    if (trace_->ok()) {
      obs::setTrace(trace_.get());
    } else {
      std::fprintf(stderr, "pnoc_serve: cannot write trace '%s'; running"
                   " untraced\n",
                   options_.tracePath.c_str());
      trace_.reset();
    }
  }

  // --- listening socket ---
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error(std::string("pnoc_serve: socket failed: ") +
                             std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socketPath.size() >= sizeof addr.sun_path) {
    throw std::invalid_argument("pnoc_serve: socket path '" +
                                options_.socketPath + "' is too long");
  }
  std::strncpy(addr.sun_path, options_.socketPath.c_str(),
               sizeof addr.sun_path - 1);
  // A stale socket file from a killed daemon would fail the bind; removing
  // it is what makes kill-and-restart (the durability story) a one-liner.
  ::unlink(options_.socketPath.c_str());
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listenFd_, 64) != 0) {
    throw std::runtime_error("pnoc_serve: cannot listen on '" +
                             options_.socketPath + "': " + std::strerror(errno));
  }
  setNonBlocking(listenFd_);

  // --- journal replay: every job accepted before the restart comes back ---
  std::vector<GridJob> live;
  if (!options_.journalPath.empty()) {
    live = journal_.open(options_.journalPath);
  }
  for (GridJob& job : live) {
    const std::uint64_t id = queue_.submit(std::move(job));
    GridJob* resumed = queue_.find(id);
    scenario::dispatch::BenchCheckpoint& checkpoint = checkpoints_[id];
    // The job's own BENCH checkpoint carries its unit-level progress;
    // recorded units come back VERBATIM, the rest re-dispatch.  A
    // checkpoint that contradicts the journaled grid (or is unreadable) is
    // reported and the whole job re-dispatches — resume must never merge
    // records from a different grid.
    try {
      checkpoint = scenario::dispatch::loadBenchCheckpoint(
          resumed->outDir, resumed->benchName,
          scenario::wire::opName(resumed->op), resumed->grid);
      for (std::size_t u = 0; u < resumed->unitCount(); ++u) {
        if (checkpoint.rawByIndex[u] && queue_.unitDone(UnitKey{id, u}, false)) {
          finalizeJob(*resumed);  // every unit was on disk; drops `checkpoint`
          break;
        }
      }
      if (!resumed->terminal()) {
        std::fprintf(stderr,
                     "pnoc_serve: resumed job %llu (%zu of %zu unit(s)"
                     " checkpointed)\n",
                     static_cast<unsigned long long>(id),
                     resumed->doneUnits(), resumed->unitCount());
      }
    } catch (const std::invalid_argument& error) {
      checkpoint = scenario::dispatch::BenchCheckpoint(
          resumed->outDir, resumed->benchName, resumed->unitCount());
      std::fprintf(stderr, "pnoc_serve: job %llu: %s; re-dispatching the"
                   " whole job\n",
                   static_cast<unsigned long long>(id), error.what());
    }
    if (obs::TraceWriter* writer = obs::trace();
        writer != nullptr && !resumed->terminal()) {
      for (std::size_t u = 0; u < resumed->unitStates.size(); ++u) {
        if (resumed->unitStates[u] == UnitState::kPending) {
          writer->asyncBegin("queue-wait", "queue",
                             queueWaitSpanId(UnitKey{id, u}));
        }
      }
    }
  }

  // --- the shared fleet ---
  FleetManager::Callbacks callbacks;
  callbacks.nextUnit = [this] { return nextUnit(); };
  callbacks.unitDone = [this](const UnitKey& key, scenario::ScenarioOutcome outcome) {
    unitDone(key, std::move(outcome));
  };
  fleet_ = std::make_unique<FleetManager>(options_.policy, std::move(callbacks),
                                          &registry_);
  const std::uint64_t now = steadyNowMs();
  for (auto& transport : scenario::dispatch::transportsFor(options_.hosts)) {
    fleet_->addWorker(std::move(transport), now);
  }
  std::fprintf(stderr, "pnoc_serve: listening on %s (%zu worker(s), %zu job(s)"
               " resumed)\n",
               options_.socketPath.c_str(), fleet_->liveWorkers(), live.size());
}

int ServeDaemon::run() {
  while (!stopping_) {
    const std::uint64_t now = steadyNowMs();
    fleet_->pump(now);

    std::vector<pollfd> fds;
    // Fixed fds first: stop pipe, interrupt pipe, listener.
    fds.push_back(pollfd{stopPipe_[0], POLLIN, 0});
    const int interruptFd = sim::interruptFd();
    if (interruptFd >= 0) fds.push_back(pollfd{interruptFd, POLLIN, 0});
    fds.push_back(pollfd{listenFd_, POLLIN, 0});
    const std::size_t sessionBase = fds.size();
    for (const Session& session : sessions_) {
      short events = POLLIN;
      if (!session.outBuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{session.fd, events, 0});
    }
    const std::size_t fleetBase = fds.size();
    const std::vector<pollfd> fleetFds = fleet_->pollFds();
    fds.insert(fds.end(), fleetFds.begin(), fleetFds.end());

    int timeoutMs = -1;
    const auto consider = [&](std::uint64_t when) {
      const int ms = when <= now ? 0 : static_cast<int>(when - now) + 1;
      timeoutMs = timeoutMs < 0 ? ms : std::min(timeoutMs, ms);
    };
    if (const auto deadline = fleet_->nextDeadlineMs()) consider(*deadline);
    for (const auto& [id, checkpoint] : checkpoints_) {
      if (const auto due = checkpoint.flushDueAtMs()) consider(*due);
    }

    const int ready = ::poll(fds.data(), fds.size(), timeoutMs);
    if (ready < 0 && errno != EINTR) {
      std::fprintf(stderr, "pnoc_serve: poll failed: %s\n", std::strerror(errno));
      exitCode_ = 1;
      break;
    }
    if (sim::interruptRequested()) {
      std::fprintf(stderr, "pnoc_serve: interrupted; flushing checkpoints and"
                   " the journal (restart resumes every accepted job)\n");
      flushAllState();
      exitCode_ = 130;
      break;
    }
    if (ready > 0) {
      if ((fds[0].revents & POLLIN) != 0) {
        flushAllState();
        exitCode_ = 0;
        break;
      }
      if ((fds[sessionBase - 1].revents & POLLIN) != 0) acceptSessions();
      // Sessions accepted just now have no pollfd yet: next pass.
      for (std::size_t s = 0; s < fleetBase - sessionBase; ++s) {
        const pollfd& fd = fds[sessionBase + s];
        if ((fd.revents & POLLOUT) != 0) flushSession(sessions_[s]);
        if ((fd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          serviceSession(sessions_[s]);
        }
      }
      const std::uint64_t after = steadyNowMs();
      for (std::size_t f = fleetBase; f < fds.size(); ++f) {
        if (fds[f].revents != 0) fleet_->onReadable(fds[f].fd, after);
      }
    }
    fleet_->onTick(steadyNowMs());

    // Throttled checkpoint writes that came due.
    const std::uint64_t flushNow = steadyNowMs();
    for (auto& [id, checkpoint] : checkpoints_) checkpoint.flushIfDue(flushNow);

    maybeAnswerDrains();
    sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                   [](const Session& s) { return s.fd < 0; }),
                    sessions_.end());
  }
  // Give pending replies (the shutdown ack, terminal watch events) one last
  // nonblocking push before the sockets close.
  for (Session& session : sessions_) {
    if (session.fd >= 0) flushSession(session);
  }
  return exitCode_;
}

void ServeDaemon::acceptSessions() {
  while (true) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: nothing more to accept
    setNonBlocking(fd);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    Session session;
    session.fd = fd;
    sessions_.push_back(std::move(session));
    send(sessions_.back(), serviceBannerLine());
  }
}

void ServeDaemon::closeSession(Session& session) {
  if (session.fd >= 0) ::close(session.fd);
  session.fd = -1;
  session.watchJob = 0;
  session.awaitingDrain = false;
}

void ServeDaemon::send(Session& session, const std::string& line) {
  if (session.fd < 0) return;
  session.outBuf += line;
  session.outBuf += '\n';
  flushSession(session);
}

void ServeDaemon::flushSession(Session& session) {
  while (session.fd >= 0 && !session.outBuf.empty()) {
    const ssize_t n = ::send(session.fd, session.outBuf.data(),
                             session.outBuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      session.outBuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    closeSession(session);  // EPIPE/ECONNRESET: the client is gone
    return;
  }
  if (session.fd >= 0 && session.outBuf.empty() && session.closeAfterFlush) {
    closeSession(session);
  }
}

void ServeDaemon::serviceSession(Session& session) {
  char buffer[65536];
  while (session.fd >= 0) {
    const ssize_t n = ::recv(session.fd, buffer, sizeof buffer, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      closeSession(session);
      return;
    }
    if (n == 0) {
      closeSession(session);
      return;
    }
    session.inBuf.append(buffer, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof buffer) break;
  }
  std::size_t newline;
  while (session.fd >= 0 &&
         (newline = session.inBuf.find('\n')) != std::string::npos) {
    std::string line = session.inBuf.substr(0, newline);
    session.inBuf.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) handleRequest(session, line);
  }
}

void ServeDaemon::handleRequest(Session& session, const std::string& line) {
  eventsTotal_.inc();
  scenario::JsonValue request;
  Verb verb;
  try {
    request = scenario::JsonValue::parse(line);
    verb = parseVerb(request.at("op").asString());
  } catch (const std::exception& error) {
    send(session, errorReplyLine(error.what()));
    return;
  }
  try {
    switch (verb) {
      case Verb::kSubmit: handleSubmit(session, request); break;
      case Verb::kStatus: handleStatus(session); break;
      case Verb::kWatch: handleWatch(session, request); break;
      case Verb::kCancel: handleCancel(session, request); break;
      case Verb::kDrain:
        draining_ = true;
        session.awaitingDrain = true;
        maybeAnswerDrains();
        break;
      case Verb::kShutdown:
        send(session, "{\"ok\":1,\"shutdown\":1}");
        flushAllState();
        stopping_ = true;
        exitCode_ = 0;
        break;
      case Verb::kFleetAdd: handleFleetAdd(session, request); break;
      case Verb::kFleetRemove: handleFleetRemove(session, request); break;
      case Verb::kMetrics: handleMetrics(session, request); break;
    }
  } catch (const std::exception& error) {
    send(session, errorReplyLine(error.what()));
  }
}

void ServeDaemon::handleSubmit(Session& session,
                               const scenario::JsonValue& request) {
  if (draining_) {
    send(session, errorReplyLine("daemon is draining; not accepting submits"));
    return;
  }
  GridJob job = parseGridJob(request);
  for (const scenario::ScenarioSpec& spec : job.grid) {
    try {
      spec.validate();
    } catch (const std::invalid_argument& error) {
      send(session, errorReplyLine(std::string("bad spec: ") + error.what()));
      return;
    }
  }
  // Two live jobs writing one BENCH path would interleave checkpoints into
  // a file neither owns; reject the second up front.
  for (const auto& [id, live] : checkpoints_) {
    if (live.directory == job.outDir && live.benchName == job.benchName) {
      send(session,
           errorReplyLine("job " + std::to_string(id) + " is already writing " +
                          live.path() + "; pick another bench= or dir="));
      return;
    }
  }
  const std::size_t units = job.grid.size();
  const std::uint64_t id = queue_.submit(std::move(job));
  const GridJob* accepted = queue_.find(id);
  checkpoints_.emplace(id, scenario::dispatch::BenchCheckpoint(
                               accepted->outDir, accepted->benchName, units));
  // Journal BEFORE the ack: an acknowledged submit must survive any crash.
  journal_.appendSubmit(*accepted);
  if (obs::TraceWriter* writer = obs::trace()) {
    writer->instant("submit", "service");
    for (std::size_t u = 0; u < units; ++u) {
      writer->asyncBegin("queue-wait", "queue", queueWaitSpanId(UnitKey{id, u}));
    }
  }
  send(session, "{\"ok\":1,\"job\":" + std::to_string(id) +
                    ",\"units\":" + std::to_string(units) + "}");
}

void ServeDaemon::handleStatus(Session& session) { send(session, statusJson()); }

void ServeDaemon::handleWatch(Session& session,
                              const scenario::JsonValue& request) {
  const std::uint64_t id = request.at("job").asU64();
  const GridJob* job = queue_.find(id);
  if (job == nullptr) {
    send(session, errorReplyLine("no job " + std::to_string(id)));
    return;
  }
  send(session, "{\"ok\":1,\"event\":\"watch\",\"job\":" + std::to_string(id) +
                    ",\"units\":" + std::to_string(job->unitCount()) +
                    ",\"done\":" + std::to_string(job->doneUnits()) + "}");
  if (job->terminal()) {
    send(session, jobEventLine(*job, true));
    return;
  }
  session.watchJob = id;
}

void ServeDaemon::handleCancel(Session& session,
                               const scenario::JsonValue& request) {
  const std::uint64_t id = request.at("job").asU64();
  if (!queue_.cancel(id)) {
    send(session, errorReplyLine("no live job " + std::to_string(id)));
    return;
  }
  GridJob* job = queue_.find(id);
  if (obs::TraceWriter* writer = obs::trace()) {
    // Pending units never dispatch; their queue-waits end here.
    for (std::size_t u = 0; u < job->unitStates.size(); ++u) {
      if (job->unitStates[u] == UnitState::kCanceled) {
        writer->asyncEnd("queue-wait", "queue", queueWaitSpanId(UnitKey{id, u}));
      }
    }
  }
  fleet_->dropUnitsForJob(id);
  // Completed units stay on disk (the checkpoint keeps its records); the
  // journal's terminal event is the cancel itself.
  flushJobCheckpoint(*job);
  checkpoints_.erase(id);
  journal_.appendCancel(id);
  notifyWatchers(*job, true);
  send(session, "{\"ok\":1,\"job\":" + std::to_string(id) + ",\"canceled\":1}");
}

void ServeDaemon::handleFleetAdd(Session& session,
                                 const scenario::JsonValue& request) {
  std::uint64_t workers = 1;
  if (const scenario::JsonValue* w = request.find("workers")) {
    workers = w->asU64();
  }
  if (workers == 0 || workers > 1024) {
    send(session, errorReplyLine("workers must be between 1 and 1024"));
    return;
  }
  scenario::dispatch::HostEntry host;
  host.workers = static_cast<unsigned>(workers);
  host.executable = options_.workerExecutable;
  if (const scenario::JsonValue* l = request.find("launcher")) {
    host.launcher = scenario::dispatch::splitLauncher(l->asString());
  }
  if (const scenario::JsonValue* e = request.find("executable")) {
    host.executable = e->asString();
  }
  const std::uint64_t now = steadyNowMs();
  for (auto& transport : scenario::dispatch::transportsFor({host})) {
    fleet_->addWorker(std::move(transport), now);
  }
  send(session, "{\"ok\":1,\"added\":" + std::to_string(workers) +
                    ",\"workers\":" + std::to_string(fleet_->liveWorkers()) +
                    "}");
}

void ServeDaemon::handleFleetRemove(Session& session,
                                    const scenario::JsonValue& request) {
  const std::uint64_t worker = request.at("worker").asU64();
  std::string error;
  if (!fleet_->removeWorker(static_cast<std::size_t>(worker), &error)) {
    send(session, errorReplyLine(error));
    return;
  }
  send(session, "{\"ok\":1,\"worker\":" + std::to_string(worker) +
                    ",\"workers\":" + std::to_string(fleet_->liveWorkers()) +
                    "}");
}

std::optional<FleetUnit> ServeDaemon::nextUnit() {
  const std::optional<UnitKey> ref = queue_.nextUnit();
  if (!ref) return std::nullopt;
  if (obs::TraceWriter* writer = obs::trace()) {
    writer->asyncEnd("queue-wait", "queue", queueWaitSpanId(*ref));
  }
  const GridJob* job = queue_.find(ref->job);
  FleetUnit unit;
  unit.key = *ref;
  unit.job = scenario::ScenarioJob{job->op, job->grid[ref->unit]};
  return unit;
}

void ServeDaemon::unitDone(const UnitKey& ref, scenario::ScenarioOutcome outcome) {
  eventsTotal_.inc();
  // Only live jobs hold a checkpoint: a canceled job's late result is
  // discarded, not recorded.
  const auto live = checkpoints_.find(ref.job);
  if (live == checkpoints_.end()) return;
  GridJob* job = queue_.find(ref.job);
  // grid_index tags the unit's index within ITS job's grid, so the BENCH
  // file is indistinguishable from the one pnoc_run writes for that grid.
  live->second.record(ref.unit, outcome);
  if (queue_.unitDone(ref, outcome.failed)) {
    finalizeJob(*job);
    return;
  }
  live->second.flushIfDue(steadyNowMs());
  notifyWatchers(*job, false);
}

void ServeDaemon::flushJobCheckpoint(GridJob& job) {
  const std::string written = checkpoints_.at(job.id).flush(steadyNowMs());
  if (!written.empty()) job.benchPath = written;
}

void ServeDaemon::finalizeJob(GridJob& job) {
  flushJobCheckpoint(job);
  checkpoints_.erase(job.id);
  journal_.appendDone(job.id);
  std::fprintf(stderr, "pnoc_serve: job %llu %s (%zu unit(s), %zu failed) ->"
               " %s\n",
               static_cast<unsigned long long>(job.id),
               toString(job.state).c_str(), job.unitCount(), job.failedUnits(),
               job.benchPath.c_str());
  notifyWatchers(job, true);
}

std::string ServeDaemon::jobEventLine(const GridJob& job, bool terminal) const {
  std::string line = "{\"ok\":1,\"event\":\"";
  line += terminal ? "job" : "unit";
  line += "\",\"job\":" + std::to_string(job.id);
  if (terminal) {
    line += ",\"state\":\"" + toString(job.state) + "\"";
    line += ",\"file\":\"" + scenario::jsonEscape(job.benchPath) + "\"";
  }
  line += ",\"done\":" + std::to_string(job.doneUnits());
  line += ",\"failed\":" + std::to_string(job.failedUnits());
  line += ",\"units\":" + std::to_string(job.unitCount());
  line += "}";
  return line;
}

void ServeDaemon::notifyWatchers(const GridJob& job, bool terminal) {
  const std::string line = jobEventLine(job, terminal);
  for (Session& session : sessions_) {
    if (session.fd < 0 || session.watchJob != job.id) continue;
    send(session, line);
    if (terminal) session.watchJob = 0;
  }
}

void ServeDaemon::maybeAnswerDrains() {
  if (!draining_ || !queue_.drained() || !fleet_->idle()) return;
  for (Session& session : sessions_) {
    if (session.fd >= 0 && session.awaitingDrain) {
      send(session, "{\"ok\":1,\"drained\":1}");
      session.awaitingDrain = false;
    }
  }
}

std::string ServeDaemon::statusJson() const {
  // The status endpoint: queue depth, per-job progress, per-worker
  // utilization (in_flight / max_in_flight prove pipelining), fault
  // counters.  One line, parseable by anything that reads JSON.
  std::string out = serviceBannerLine();
  out.pop_back();  // reopen the banner object: status extends it
  out += ",\"uptime_s\":" + std::to_string((steadyNowMs() - startMs_) / 1000);
  // events_total only ever grows within one daemon lifetime, so a watch
  // client that sees it shrink knows the daemon restarted underneath it.
  out += ",\"events_total\":" + std::to_string(eventsTotal_.value());
  out += ",\"draining\":" + std::to_string(draining_ ? 1 : 0);
  out += ",\"queue_depth\":" + std::to_string(queue_.pendingUnits());
  out += ",\"dispatched\":" + std::to_string(queue_.dispatchedUnits());
  out += ",\"jobs\":[";
  bool first = true;
  for (const auto& [id, job] : queue_.jobs()) {
    if (!first) out += ",";
    first = false;
    out += "{\"job\":" + std::to_string(id);
    out += ",\"client\":\"" + scenario::jsonEscape(job.client) + "\"";
    out += ",\"priority\":" + std::to_string(job.priority);
    out += ",\"state\":\"" + toString(job.state) + "\"";
    out += ",\"bench\":\"" + scenario::jsonEscape(job.benchName) + "\"";
    out += ",\"units\":" + std::to_string(job.unitCount());
    out += ",\"done\":" + std::to_string(job.doneUnits());
    out += ",\"failed\":" + std::to_string(job.failedUnits());
    out += "}";
  }
  out += "],\"workers\":[";
  first = true;
  for (const scenario::dispatch::WorkerStatus& worker : fleet_->workerStatus()) {
    if (!first) out += ",";
    first = false;
    out += "{\"worker\":" + std::to_string(worker.worker);
    out += ",\"description\":\"" + scenario::jsonEscape(worker.description) + "\"";
    out += ",\"state\":\"" + worker.state + "\"";
    out += ",\"completed\":" + std::to_string(worker.completed);
    out += ",\"in_flight\":" + std::to_string(worker.inFlight);
    out += ",\"max_in_flight\":" + std::to_string(worker.maxInFlight);
    out += ",\"respawns\":" + std::to_string(worker.respawns);
    out += "}";
  }
  const scenario::dispatch::FleetStats stats = fleet_->stats();
  out += "],\"stats\":{";
  out += "\"retries\":" + std::to_string(stats.retries);
  out += ",\"respawns\":" + std::to_string(stats.respawns);
  out += ",\"deadline_kills\":" + std::to_string(stats.deadlineKills);
  out += ",\"protocol_deaths\":" + std::to_string(stats.protocolDeaths);
  out += ",\"launch_failures\":" + std::to_string(stats.launchFailures);
  out += ",\"failed_units\":" + std::to_string(stats.failedUnits);
  out += ",\"max_in_flight\":" + std::to_string(stats.maxInFlight);
  out += "}";
  // Journal health, read off the same registry cells the metrics verb dumps.
  const obs::Snapshot snap = registry_.snapshot();
  const auto counterOf = [&snap](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  out += ",\"journal\":{";
  out += "\"appends\":" + std::to_string(counterOf("journal_appends_total"));
  out += ",\"compactions\":" +
         std::to_string(counterOf("journal_compactions_total"));
  const auto fsync = snap.histograms.find("journal_fsync_us");
  if (fsync != snap.histograms.end() && fsync->second.count > 0) {
    out += ",\"fsync_p50_us\":" + std::to_string(fsync->second.quantile(0.5));
    out += ",\"fsync_p99_us\":" + std::to_string(fsync->second.quantile(0.99));
  }
  out += "}}";
  return out;
}

void ServeDaemon::publishRuntimeGauges() {
  registry_.gauge("serve_queue_depth").set(
      static_cast<std::int64_t>(queue_.pendingUnits()));
  registry_.gauge("serve_dispatched_units").set(
      static_cast<std::int64_t>(queue_.dispatchedUnits()));
  registry_.gauge("serve_uptime_s").set(
      static_cast<std::int64_t>((steadyNowMs() - startMs_) / 1000));
  if (fleet_ != nullptr) {
    registry_.gauge("serve_workers_live").set(
        static_cast<std::int64_t>(fleet_->liveWorkers()));
    registry_.gauge("serve_workers_ready").set(
        static_cast<std::int64_t>(fleet_->readyWorkers()));
  }
}

void ServeDaemon::handleMetrics(Session& session,
                                const scenario::JsonValue& request) {
  publishRuntimeGauges();
  const obs::Snapshot snap = registry_.snapshot();
  std::string format = "json";
  if (const scenario::JsonValue* f = request.find("format")) {
    format = f->asString();
  }
  if (format == "text") {
    send(session, "{\"ok\":1,\"format\":\"text\",\"body\":\"" +
                      scenario::jsonEscape(snap.toPrometheus()) + "\"}");
    return;
  }
  if (format != "json") {
    send(session,
         errorReplyLine("format must be json or text, not '" + format + "'"));
    return;
  }
  send(session, "{\"ok\":1,\"metrics\":" + snap.toJson() + "}");
}

void ServeDaemon::flushAllState() {
  // The graceful-exit flush: every live job's checkpoint hits disk so a
  // restart re-dispatches only what is genuinely missing.  The journal
  // needs no flush — every append was fsync'd when it happened.
  for (const auto& [id, checkpoint] : checkpoints_) {
    flushJobCheckpoint(*queue_.find(id));
  }
}

}  // namespace pnoc::service
