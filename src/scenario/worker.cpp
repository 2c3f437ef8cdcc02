#include "scenario/worker.hpp"

#include <cstdio>
#include <istream>
#include <ostream>
#include <string>

#include "scenario/fault_injection.hpp"
#include "scenario/wire.hpp"

namespace pnoc::scenario {
namespace {

/// One job line in, one reply line out.  Returns the exit-code
/// contribution: nonzero only for protocol corruption.
int processJobLine(const std::string& jobText, std::ostream& out) {
  std::size_t index = 0;
  ScenarioJob job;
  try {
    job = wire::parseJobLine(jobText, index);
  } catch (const std::exception& error) {
    // An unparseable job line is protocol corruption: report what we can
    // in-band and poison the worker's exit status.
    out << wire::errorLine(index, error.what()) << "\n";
    return 1;
  }
  // The matching PNOC_TEST_FAULT clause — if any — is claimed before the
  // job runs, then drives the worker through exactly one failure mode
  // around the reply.
  const testfault::Fault* fault = testfault::claimFault(index);
  if (fault != nullptr) testfault::applyPreReplyFault(*fault);
  std::string replyLine;
  try {
    replyLine = wire::outcomeLine(index, executeJob(job));
  } catch (const std::exception& error) {
    // A job that fails to simulate reports in-band only — the worker
    // itself is healthy.
    replyLine = wire::errorLine(index, error.what());
  }
  if (fault == nullptr || !testfault::applyReplyFault(*fault, replyLine, out)) {
    out << replyLine << "\n";
  }
  out.flush();
  if (fault != nullptr) testfault::applyPostReplyFault(*fault);
  return 0;
}

}  // namespace

int runWorkerLoop(std::istream& in, std::ostream& out) {
  std::string line;
  if (!std::getline(in, line)) return 0;  // empty session
  int version = 0;
  if (!wire::parseStreamHello(line, version)) {
    std::fprintf(stderr, "pnoc worker: expected the streaming hello as the"
                 " first stdin line\n");
    return 2;
  }
  out << wire::streamAckLine() << "\n" << std::flush;
  int exitCode = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) exitCode |= processJobLine(line, out);
  }
  return exitCode;
}

}  // namespace pnoc::scenario
