#include "scenario/dispatch/worker_transport.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "scenario/worker.hpp"

namespace pnoc::scenario::dispatch {

namespace {

/// The running binary's path (/proc/self/exe — immune to argv[0] games).
std::string selfExecutablePath() {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (len <= 0) {
    throw std::runtime_error("dispatch: cannot resolve /proc/self/exe");
  }
  buffer[len] = '\0';
  return buffer;
}

/// The shared low-level spawn: fork, stdin/stdout onto fresh FD_CLOEXEC
/// pipes, execvp(argv).  Throws std::runtime_error on pipe/fork failure.
WorkerConnection spawnWorkerProcess(const std::vector<std::string>& argv,
                                    const std::string& description) {
  if (argv.empty()) {
    throw std::runtime_error("dispatch: empty worker command");
  }
  int inPipe[2];   // parent writes jobs -> worker stdin
  int outPipe[2];  // worker stdout -> parent reads replies
  // Every pipe fd is born close-on-exec (pipe2, not pipe-then-fcntl, so a
  // fork on another thread can never slip between the two calls and
  // inherit a raw fd): a later-spawned worker forks while the earlier
  // workers' pipes are still open in the parent, and an inherited stdin
  // write end would keep an earlier worker's stdin from ever reaching EOF
  // (serializing the "parallel" workers, and deadlocking outright once a
  // reply outgrows the pipe buffer).  dup2 below clears the flag on the two
  // fds the worker actually keeps.
  if (::pipe2(inPipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("dispatch: pipe2() failed");
  }
  if (::pipe2(outPipe, O_CLOEXEC) != 0) {
    ::close(inPipe[0]);
    ::close(inPipe[1]);
    throw std::runtime_error("dispatch: pipe2() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {inPipe[0], inPipe[1], outPipe[0], outPipe[1]}) ::close(fd);
    throw std::runtime_error("dispatch: fork() failed");
  }
  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout and become a protocol worker.
    // Everything else (these four originals, any earlier worker's pipes)
    // closes at exec via FD_CLOEXEC.
    ::dup2(inPipe[0], STDIN_FILENO);
    ::dup2(outPipe[1], STDOUT_FILENO);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    ::execvp(args[0], args.data());
    // exec failed; 127 mirrors the shell's "command not found".
    _exit(127);
  }
  ::close(inPipe[0]);
  ::close(outPipe[1]);
  WorkerConnection connection;
  connection.pid = pid;
  connection.stdinFd = inPipe[1];
  connection.stdoutFd = outPipe[0];
  connection.description = description;
  return connection;
}

/// Blocking reap (EINTR-safe); returns the wait status and clears `pid`.
/// Returns -1 when the pid was already reaped or never valid.
int reapWorker(WorkerConnection& connection) {
  if (connection.pid <= 0) return -1;
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(connection.pid, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  connection.pid = -1;
  return reaped < 0 ? -1 : status;
}

}  // namespace

void closeConnection(WorkerConnection& connection) {
  for (int* fd : {&connection.stdinFd, &connection.stdoutFd}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

bool writeAllToWorker(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) return false;
      throw std::runtime_error(std::string("dispatch: write to worker failed: ") +
                               std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

int reapWorkerWithin(WorkerConnection& connection, std::uint64_t graceMs,
                     bool* killed) {
  if (killed != nullptr) *killed = false;
  if (connection.pid <= 0) return -1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(graceMs);
  for (;;) {
    int status = 0;
    const pid_t reaped = ::waitpid(connection.pid, &status, WNOHANG);
    if (reaped == connection.pid) {
      connection.pid = -1;
      return status;
    }
    if (reaped < 0 && errno != EINTR) {  // ECHILD: already reaped elsewhere
      connection.pid = -1;
      return -1;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    ::usleep(2000);
  }
  // Grace expired: the worker is wedged.  SIGKILL cannot be ignored, so the
  // blocking reap below returns promptly.
  ::kill(connection.pid, SIGKILL);
  if (killed != nullptr) *killed = true;
  return reapWorker(connection);
}

int terminateWorker(WorkerConnection& connection, std::uint64_t graceMs) {
  closeConnection(connection);
  if (connection.pid <= 0) return -1;
  ::kill(connection.pid, SIGTERM);
  return reapWorkerWithin(connection, graceMs);
}

std::string describeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended abnormally";
}

std::string WorkerTransport::describe() const {
  if (host_.launcher.empty()) return "local worker";
  std::string out;
  for (const std::string& token : host_.launcher) {
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out + " worker";
}

WorkerConnection WorkerTransport::launch() const {
  std::vector<std::string> argv = host_.launcher;
  argv.push_back(host_.executable.empty() ? selfExecutablePath() : host_.executable);
  argv.push_back(kWorkerFlag);
  return spawnWorkerProcess(argv, describe());
}

}  // namespace pnoc::scenario::dispatch
