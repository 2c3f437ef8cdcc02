#include "scenario/worker.hpp"

#include <cstdio>
#include <istream>
#include <ostream>

#include "scenario/wire.hpp"

namespace pnoc::scenario {

int answerJobLine(const std::string& jobLine, std::ostream& out) {
  std::size_t index = 0;
  ScenarioJob job;
  try {
    job = wire::parseJobLine(jobLine, index);
  } catch (const std::exception& error) {
    // An unparseable job line is protocol corruption: report what we can
    // in-band and poison the worker's exit status.
    out << wire::errorLine(index, error.what()) << "\n";
    return 1;
  }
  try {
    out << wire::outcomeLine(index, executeJob(job)) << "\n";
  } catch (const std::exception& error) {
    // A job that fails to simulate reports in-band only — the worker
    // itself is healthy.
    out << wire::errorLine(index, error.what()) << "\n";
  }
  return 0;
}

int runWorkerLoop(std::istream& in, std::ostream& out, JobLineHandler handler) {
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
    if (line.empty()) continue;
    exitCode |= handler(line, out);
    out.flush();
  }
  return exitCode;
}

}  // namespace pnoc::scenario
