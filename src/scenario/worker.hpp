// The worker side of the dispatch protocol.
//
// Every binary that parses through scenario::Cli (and the test binary) is a
// protocol worker when invoked as `<binary> --pnoc-worker`: jobs arrive as
// newline-delimited JSON on stdin, one reply line per job goes back on
// stdout (wire.hpp has the line formats, dispatch/fleet.hpp the parent).
#pragma once

#include <iosfwd>

namespace pnoc::scenario {

/// The argv[1] that turns any scenario binary into a protocol worker.
inline constexpr const char* kWorkerFlag = "--pnoc-worker";

/// Runs one worker session.  The first stdin line must be the streaming
/// hello (wire::streamHelloLine); the worker acks it, then replies to each
/// job line as it arrives, flushing after every reply, until stdin EOF.
/// Returns the process exit code: nonzero for a session without the hello
/// or with a corrupt job line; per-job simulation failures are in-band
/// error replies.  PNOC_TEST_FAULT (fault_injection.hpp) is consulted
/// around every job.
int runWorkerLoop(std::istream& in, std::ostream& out);

}  // namespace pnoc::scenario
