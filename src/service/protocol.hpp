// The pnoc_serve client protocol: line-delimited JSON over a Unix-domain
// socket, the service-mode half of the scenario wire format.
//
// Session shape (any number of concurrent clients):
//
//   daemon -> client   {"pnoc_serve":1,"build":"<stamp>"}     banner
//   client -> daemon   one request line   }  repeated: every request gets
//   daemon -> client   one reply line     }  at least one reply line
//
// Requests are objects carrying an "op" verb plus verb-specific members
// (service/server.cpp documents each).  Replies carry "ok":1 on success or
// "ok":0 with "error" naming the problem.  Two verbs reply MORE than once:
// `watch` streams one event line per unit completion and a final terminal
// line, and `drain` replies only once the queue is empty.
//
// The banner carries the daemon's build stamp (scenario/version.hpp), and
// checkServiceBanner() rejects a mismatched or missing stamp with a named
// error — a thin client from one build must not steer a daemon from
// another.
#pragma once

#include <string>
#include <vector>

namespace pnoc::service {

inline constexpr int kServeProtocolVersion = 1;

/// Daemon -> client, the first line of every session.
std::string serviceBannerLine();

/// Validates a daemon's banner line (scenario::wire::checkHandshake with
/// the daemon's names); throws std::runtime_error naming the problem.
void checkServiceBanner(const std::string& line);

/// The request verbs, in the order verbNames() lists them.
enum class Verb {
  kSubmit,       // enqueue a spec grid as one job
  kStatus,       // one status JSON document
  kWatch,        // stream a job's completion events until it is terminal
  kCancel,       // cancel a job (pending units dropped, results kept)
  kDrain,        // stop accepting submits; reply when the queue is empty
  kShutdown,     // flush journal + checkpoints and exit the daemon
  kFleetAdd,     // add workers to the shared fleet at runtime
  kFleetRemove,  // remove one worker from the fleet (its jobs requeue)
  kMetrics,      // full metrics snapshot (JSON, or Prometheus text via
                 // "format":"text")
};

/// Every verb's wire name ("submit", ..., "fleet-add", "fleet-remove").
const std::vector<std::string>& verbNames();

std::string toString(Verb verb);

/// Parses a request's "op" value; throws std::invalid_argument naming the
/// nearest real verb on typos ("statsu" -> "did you mean 'status'?").
Verb parseVerb(const std::string& name);

/// {"ok":0,"error":"<message>"} — the one error-reply shape.
std::string errorReplyLine(const std::string& message);

}  // namespace pnoc::service
