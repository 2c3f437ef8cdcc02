// Deterministic fault injection for the dispatch layer's tests and smokes.
//
// PNOC_TEST_FAULT=<spec> makes a test-binary protocol worker
// (`pnoc_tests --pnoc-worker`, tests/main.cpp) misbehave in a precisely
// scripted way when it receives a given job index.  faultyAnswer wraps the
// production per-job step (scenario::answerJobLine) with these faults; the
// production binaries never read the variable.  The parent-side fleet is
// untouched, so every injected fault exercises the REAL recovery paths:
// death detection, deadline kills, retry/backoff, respawn, fail-soft
// degradation.  A test reaches a faulty worker by re-execing this binary
// (the default worker executable); a smoke by naming pnoc_tests as the
// worker (a hosts-file `executable`, or `pnoc_serve executable=`).
//
// Spec grammar (comma-separated clauses, each applied at most once per
// match):
//
//   <kind>@<index>[:opt=val]...
//
//   kind    crash      _exit before replying
//           hang       never reply: sleep until killed (ignoreterm=1 also
//                      ignores SIGTERM, forcing the SIGKILL escalation)
//           garbage    emit a non-JSON line instead of the reply
//           truncate   emit half the reply with no newline, then exit 0
//                      (the truncated-line-at-EOF protocol death)
//           dup        emit the reply twice (duplicate-index protocol death)
//           wrongindex emit the reply under index+1000
//           slow       sleep ms= milliseconds, then reply normally
//           exit       reply normally, then _exit(code=) (nonzero-exit)
//   index   the wire job index the fault triggers on, or * for every job
//           (a unit keeps its wire index across retries, and a batch's
//           wire index is its job index)
//   opts    once=<path>  claim an O_EXCL lock file first; only the first
//                        claimant across the whole fleet injects, so a
//                        retried job succeeds on the next worker
//           ms=<n>       sleep for slow (default 200)
//           code=<n>     exit status for crash (default 57) and exit
//                        (default 41)
//           ignoreterm=1 hang ignores SIGTERM (SIGKILL escalation test)
//
// Examples:
//   PNOC_TEST_FAULT="crash@2:once=/tmp/f.lock"   first worker on job 2 dies
//   PNOC_TEST_FAULT="hang@1:ignoreterm=1"        job 1 wedges its worker
//   PNOC_TEST_FAULT="garbage@0,slow@3:ms=50"     two independent clauses
//
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace pnoc::scenario::testfault {

enum class Kind {
  kCrash,
  kHang,
  kGarbage,
  kTruncate,
  kDupReply,
  kWrongIndex,
  kSlow,
  kExit,
};

struct Fault {
  Kind kind = Kind::kCrash;
  bool anyIndex = false;  // index was '*'
  std::size_t index = 0;
  std::string oncePath;  // empty: inject on every match
  unsigned ms = 200;     // slow
  int exitCode = 0;      // 0: the kind's default (crash 57, exit 41)
  bool ignoreTerm = false;
};

/// Parses a PNOC_TEST_FAULT spec; throws std::invalid_argument naming the
/// malformed clause (a typo'd fault spec must fail the test, not silently
/// run fault-free).
std::vector<Fault> parseFaultSpec(const std::string& text);

/// The test worker's per-job step (a scenario::JobLineHandler): claims the
/// job's fault, applies the pre-reply fault, answers the line through
/// scenario::answerJobLine into a buffer, then writes the reply (or its
/// corrupted form) and applies any post-reply exit.
int faultyAnswer(const std::string& jobLine, std::ostream& out);

}  // namespace pnoc::scenario::testfault
