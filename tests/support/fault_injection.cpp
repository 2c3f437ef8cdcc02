#include "support/fault_injection.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include "scenario/wire.hpp"
#include "scenario/worker.hpp"

namespace pnoc::scenario::testfault {
namespace {

Kind parseKind(const std::string& token, const std::string& clause) {
  if (token == "crash") return Kind::kCrash;
  if (token == "hang") return Kind::kHang;
  if (token == "garbage") return Kind::kGarbage;
  if (token == "truncate") return Kind::kTruncate;
  if (token == "dup") return Kind::kDupReply;
  if (token == "wrongindex") return Kind::kWrongIndex;
  if (token == "slow") return Kind::kSlow;
  if (token == "exit") return Kind::kExit;
  throw std::invalid_argument("PNOC_TEST_FAULT clause '" + clause +
                              "': unknown kind '" + token +
                              "' (crash | hang | garbage | truncate | dup |"
                              " wrongindex | slow | exit)");
}

unsigned long parseNumber(const std::string& value, const std::string& clause) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("PNOC_TEST_FAULT clause '" + clause +
                                "': '" + value + "' is not a number");
  }
  return std::strtoul(value.c_str(), nullptr, 10);
}

Fault parseClause(const std::string& clause) {
  const std::size_t at = clause.find('@');
  if (at == std::string::npos) {
    throw std::invalid_argument("PNOC_TEST_FAULT clause '" + clause +
                                "' lacks '@<index>'");
  }
  Fault fault;
  fault.kind = parseKind(clause.substr(0, at), clause);
  std::size_t cursor = clause.find(':', at);
  const std::string indexToken =
      clause.substr(at + 1, (cursor == std::string::npos ? clause.size() : cursor) -
                                at - 1);
  if (indexToken == "*") {
    fault.anyIndex = true;
  } else {
    fault.index = parseNumber(indexToken, clause);
  }
  while (cursor != std::string::npos) {
    const std::size_t next = clause.find(':', cursor + 1);
    const std::string opt =
        clause.substr(cursor + 1,
                      (next == std::string::npos ? clause.size() : next) - cursor - 1);
    cursor = next;
    const std::size_t eq = opt.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("PNOC_TEST_FAULT clause '" + clause +
                                  "': option '" + opt + "' lacks '='");
    }
    const std::string key = opt.substr(0, eq);
    const std::string value = opt.substr(eq + 1);
    if (key == "once") {
      if (value.empty()) {
        throw std::invalid_argument("PNOC_TEST_FAULT clause '" + clause +
                                    "': once= needs a lock-file path");
      }
      fault.oncePath = value;
    } else if (key == "ms") {
      fault.ms = static_cast<unsigned>(parseNumber(value, clause));
    } else if (key == "code") {
      fault.exitCode = static_cast<int>(parseNumber(value, clause));
    } else if (key == "ignoreterm") {
      fault.ignoreTerm = parseNumber(value, clause) != 0;
    } else {
      throw std::invalid_argument("PNOC_TEST_FAULT clause '" + clause +
                                  "': unknown option '" + key +
                                  "' (once | ms | code | ignoreterm)");
    }
  }
  return fault;
}

int defaultExitCode(Kind kind) { return kind == Kind::kExit ? 41 : 57; }

void sleepMs(unsigned ms) {
  timespec interval;
  interval.tv_sec = ms / 1000;
  interval.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  while (::nanosleep(&interval, &interval) != 0 && errno == EINTR) {
  }
}

}  // namespace

std::vector<Fault> parseFaultSpec(const std::string& text) {
  std::vector<Fault> faults;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string clause = text.substr(begin, end - begin);
    begin = end + 1;
    if (clause.empty()) continue;
    faults.push_back(parseClause(clause));
  }
  if (faults.empty()) {
    throw std::invalid_argument("PNOC_TEST_FAULT is set but holds no clauses");
  }
  return faults;
}

namespace {

/// The clause matching `index` whose once-lock (if any) this call claimed,
/// or nullptr.  Parses PNOC_TEST_FAULT on first use; at most one clause
/// fires per job (the first match in spec order).
const Fault* claimFault(std::size_t index) {
  // Parsed once per worker process; a malformed spec must kill the worker
  // loudly (exit 70 below is distinctive in wait statuses) rather than let
  // the "faulty" matrix run green without injecting anything.
  static const std::vector<Fault> faults = [] {
    const char* env = std::getenv("PNOC_TEST_FAULT");
    if (env == nullptr || *env == '\0') return std::vector<Fault>{};
    try {
      return parseFaultSpec(env);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "pnoc worker: %s\n", error.what());
      ::_exit(70);
    }
  }();
  for (const Fault& fault : faults) {
    if (!fault.anyIndex && fault.index != index) continue;
    if (!fault.oncePath.empty()) {
      const int fd =
          ::open(fault.oncePath.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0600);
      if (fd < 0) continue;  // a sibling already injected this clause
      ::close(fd);
    }
    return &fault;
  }
  return nullptr;
}

/// Pre-reply faults: crash / hang / slow.  May not return (crash, hang).
void applyPreReplyFault(const Fault& fault) {
  switch (fault.kind) {
    case Kind::kCrash:
      ::_exit(fault.exitCode != 0 ? fault.exitCode : defaultExitCode(fault.kind));
    case Kind::kHang:
      if (fault.ignoreTerm) std::signal(SIGTERM, SIG_IGN);
      for (;;) sleepMs(1000);
    case Kind::kSlow:
      sleepMs(fault.ms);
      return;
    default:
      return;
  }
}

/// Reply-corruption faults: writes the corrupted form of `replyLine` to
/// `out` and returns true (caller must not emit the real reply), or returns
/// false for kinds that leave the reply alone.  May not return (truncate).
bool applyReplyFault(const Fault& fault, const std::string& replyLine,
                     std::ostream& out) {
  switch (fault.kind) {
    case Kind::kGarbage:
      out << "%%% not a protocol line %%%\n" << std::flush;
      return true;
    case Kind::kTruncate:
      out << replyLine.substr(0, replyLine.size() / 2) << std::flush;
      ::_exit(0);
    case Kind::kDupReply:
      out << replyLine << "\n" << replyLine << "\n" << std::flush;
      return true;
    case Kind::kWrongIndex: {
      // {"index":N,...} -> {"index":N+1000,...}: a syntactically valid reply
      // for a job this worker was never dealt.
      const std::size_t colon = replyLine.find(':');
      std::size_t end = colon + 1;
      while (end < replyLine.size() && replyLine[end] >= '0' && replyLine[end] <= '9') {
        ++end;
      }
      const unsigned long index =
          std::strtoul(replyLine.c_str() + colon + 1, nullptr, 10);
      out << replyLine.substr(0, colon + 1) << index + 1000 << replyLine.substr(end)
          << "\n"
          << std::flush;
      return true;
    }
    default:
      return false;
  }
}

/// Post-reply faults: nonzero exit.  May not return.
void applyPostReplyFault(const Fault& fault) {
  if (fault.kind == Kind::kExit) {
    ::_exit(fault.exitCode != 0 ? fault.exitCode : defaultExitCode(fault.kind));
  }
}

}  // namespace

int faultyAnswer(const std::string& jobLine, std::ostream& out) {
  // A corrupt job line names no job to fault: answer it as production does.
  std::size_t index = 0;
  try {
    wire::parseJobLine(jobLine, index);
  } catch (const std::exception&) {
    return answerJobLine(jobLine, out);
  }
  const Fault* fault = claimFault(index);
  if (fault != nullptr) applyPreReplyFault(*fault);
  std::ostringstream reply;
  const int exitCode = answerJobLine(jobLine, reply);
  std::string replyLine = reply.str();
  if (!replyLine.empty() && replyLine.back() == '\n') replyLine.pop_back();
  if (fault == nullptr || !applyReplyFault(*fault, replyLine, out)) {
    out << replyLine << "\n";
  }
  out.flush();
  if (fault != nullptr) applyPostReplyFault(*fault);
  return exitCode;
}

}  // namespace pnoc::scenario::testfault
