// The worker side of the dispatch protocol.
//
// Every binary that parses through scenario::Cli (and the test binary) is a
// protocol worker when invoked as `<binary> --pnoc-worker`: jobs arrive as
// newline-delimited JSON on stdin, one reply line per job goes back on
// stdout (wire.hpp has the line formats, dispatch/fleet.hpp the parent).
#pragma once

#include <iosfwd>
#include <string>

namespace pnoc::scenario {

/// The argv[1] that turns any scenario binary into a protocol worker.
inline constexpr const char* kWorkerFlag = "--pnoc-worker";

/// Answers one job line: parses it, runs the job and writes one reply line
/// to `out` (a job that fails to simulate is an in-band error reply).
/// Returns nonzero only for a corrupt job line, which is also reported
/// in-band.
int answerJobLine(const std::string& jobLine, std::ostream& out);

/// The per-job step of a worker session.
using JobLineHandler = int (*)(const std::string& jobLine, std::ostream& out);

/// Runs one worker session.  The first stdin line must be the streaming
/// hello (wire::streamHelloLine); the worker acks it, then hands each job
/// line to `handler` as it arrives, flushing after every reply, until stdin
/// EOF.  Returns the process exit code: nonzero for a session without the
/// hello or with a corrupt job line.  Only the test binary passes its own
/// `handler` (to inject faults around answerJobLine).
int runWorkerLoop(std::istream& in, std::ostream& out,
                  JobLineHandler handler = answerJobLine);

}  // namespace pnoc::scenario
