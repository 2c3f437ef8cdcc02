// The scenario wire format: full JSON serialization for run results, the
// half of the interchange format ScenarioSpec's JSON round-trip started.
//
// RunMetrics, PeakSearchResult and the worker protocol lines all serialize
// to single-line JSON that round-trips BYTE-IDENTICALLY (doubles via
// shortest-exact formatting, 64-bit counters as decimal integers,
// histograms as sparse bucket pairs).  That exactness is what lets every
// dispatch path promise bit-identical merged results: a metric that crossed
// a process boundary is indistinguishable from one computed in-process.
//
// Worker protocol (newline-delimited JSON over stdin/stdout, see
// worker.hpp for the worker and dispatch/fleet.hpp for the parent):
//   parent -> worker   {"pnoc_stream_hello":1,"build":"..."}   once, first
//   worker -> parent   {"pnoc_stream_ack":1,"build":"..."}     once, first
//   parent -> worker   {"op":"run"|"peak","index":N,"spec":{...}}
//   worker -> parent   {"index":N,"op":"run","metrics":{...}}
//                      {"index":N,"op":"peak","search":{...}}
//                      {"index":N,"error":"<what>"}
// The worker replies to each job line in order, flushing after each, so a
// parent can deal the next job the moment a reply arrives.
#pragma once

#include <cstddef>
#include <string>

#include "metrics/metrics.hpp"
#include "metrics/saturation.hpp"
#include "scenario/execution_backend.hpp"
#include "scenario/json_util.hpp"

namespace pnoc::scenario::wire {

std::string toJson(const metrics::RunMetrics& metrics);
metrics::RunMetrics runMetricsFromJson(const JsonValue& value);
metrics::RunMetrics runMetricsFromJson(const std::string& json);

std::string toJson(const metrics::PeakSearchResult& search);
metrics::PeakSearchResult peakSearchFromJson(const JsonValue& value);
metrics::PeakSearchResult peakSearchFromJson(const std::string& json);

// --- streaming handshake ---
//
// Both sides agree on the protocol before the first job: the parent's
// first stdin line is a hello carrying the protocol version and build
// stamp, the worker's first stdout line is the matching ack.  A mismatch
// (or anything else where the ack should be) retires the worker by name
// instead of dealing it jobs it would answer wrongly.

inline constexpr int kStreamProtocolVersion = 1;

/// Parent -> worker, the first stdin line of a streaming session.
std::string streamHelloLine();
/// Worker -> parent, the first stdout line (carries the worker's version).
std::string streamAckLine();
/// True when `line` is a streaming hello (any version); fills `version`.
bool parseStreamHello(const std::string& line, int& version);
/// The first line a peer sends: a JSON object whose `key` member carries
/// the protocol version and whose "build" member carries the build stamp
/// (scenario/version.hpp).  The names fill the rejection messages.
struct Handshake {
  const char* key;       // "pnoc_stream_ack" | "pnoc_serve"
  int version;           // the protocol version this side speaks
  const char* peer;      // who sent the line: "worker" | "daemon"
  const char* self;      // this side: "driver" | "client"
  const char* protocol;  // "streaming protocol" | "service protocol"
  const char* remedy;    // what to do about a missing or foreign stamp
};
/// The one handshake check — parse, key, version, build stamp; throws
/// std::runtime_error naming the first that fails.
void checkHandshake(const std::string& line, const Handshake& handshake);
/// Validates a worker's ack line (checkHandshake with the worker's names).
void checkStreamAck(const std::string& line);

/// The one `run|peak` <-> ScenarioJob::Op mapping: job and reply lines,
/// BENCH record names, pnoc_run's mode= and the service's job "mode".
std::string opName(ScenarioJob::Op op);
/// Throws std::invalid_argument ("mode must be run or peak, not 'x'").
ScenarioJob::Op parseOp(const std::string& name);

// --- worker protocol lines (no trailing newline; one line per job) ---

std::string jobLine(std::size_t index, const ScenarioJob& job);
/// Parses a job line; fills `index`.  Throws std::invalid_argument on
/// malformed lines (protocol corruption, not per-job simulation failure).
ScenarioJob parseJobLine(const std::string& line, std::size_t& index);

std::string outcomeLine(std::size_t index, const ScenarioOutcome& outcome);
std::string errorLine(std::size_t index, const std::string& message);

struct WorkerReply {
  std::size_t index = 0;
  bool ok = false;
  ScenarioOutcome outcome;  // valid when ok
  std::string error;        // valid when !ok
};
WorkerReply parseReplyLine(const std::string& line);

}  // namespace pnoc::scenario::wire
