// Versioned NDJSON packet traces: record any live run, replay it later.
//
// Format (one JSON object per line):
//
//   {"pnoc_trace":1,"cores":64}                                   <- header
//   {"c":12,"s":3,"d":41,"f":8,"id":7,"k":"req","o":3,"t":12}     <- events
//   {"c":14,"s":0,"d":9,"f":64,"id":0}
//
//   c  = enqueue cycle      s/d = source/destination core
//   f  = size in flits      id  = flow id (the originating request's packet
//                                 id; 0 for open-loop packets)
//   k  = flow kind ("req" | "fwd" | "rep"; absent = plain open-loop packet)
//   o/t = flow origin core / flow start cycle (only with k)
//
// The recorder hooks the core's single enqueue path, so a trace captures
// exactly the packets that entered an injection queue (refused open-loop
// offers never existed and are not recorded).  Replaying re-enqueues every
// event at its recorded cycle on its recorded source core: the network then
// evolves through the identical state sequence, so a replay of a run
// reproduces that run's metrics byte-for-byte (asserted by
// tests/workload/trace_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/flit.hpp"
#include "workload/workload.hpp"

namespace pnoc::workload {

inline constexpr int kTraceVersion = 1;

struct TraceEvent {
  Cycle cycle = 0;
  CoreId src = 0;
  CoreId dst = 0;
  std::uint32_t flits = 0;
  PacketId flowId = 0;
  noc::FlowKind kind = noc::FlowKind::kNone;
  CoreId originCore = 0;
  Cycle flowStartedAt = 0;
};

struct TraceData {
  int version = kTraceVersion;
  std::uint32_t numCores = 0;
  std::vector<TraceEvent> events;
};

/// One trace line; `cycle`/`src` come from the descriptor's createdAt/srcCore.
TraceEvent traceEventOf(const noc::PacketDescriptor& packet);

std::string toLine(const TraceEvent& event);
std::string traceToText(const TraceData& trace);

/// Parses a full trace document.  Throws std::invalid_argument on a missing
/// or wrong-version header, malformed lines, or events outside [0, cores).
TraceData parseTrace(const std::string& text);
TraceData loadTraceFile(const std::string& path);
void writeTraceFile(const std::string& path, const TraceData& trace);

/// Captures every enqueued packet of a live run (attached to each core's
/// enqueue path by PhotonicNetwork when trace_out= is set).  Events arrive
/// already cycle-ordered: cores enqueue while they advance, in cycle then
/// registration order.
class TraceRecorder {
 public:
  void start(std::uint32_t numCores) {
    trace_.numCores = numCores;
    trace_.events.clear();
  }
  void record(const noc::PacketDescriptor& packet) {
    trace_.events.push_back(traceEventOf(packet));
  }
  void clear() { trace_.events.clear(); }

  const TraceData& trace() const { return trace_; }

 private:
  TraceData trace_;
};

/// Replays a recorded trace: each core re-enqueues its recorded packets at
/// their recorded cycles.  Flow completion metrics (request latency,
/// requests completed) are computed centrally by the core from the replayed
/// flow fields, so they match the recorded run without any model state.
class TraceReplayWorkload final : public Workload {
 public:
  /// Validates the trace against the network size; throws on mismatch.
  TraceReplayWorkload(TraceData trace, std::uint32_t numCores);

  std::string name() const override { return "trace"; }
  std::unique_ptr<CoreWorkload> makeCoreWorkload(CoreId core) const override;

 private:
  /// Events split per source core, file order preserved.
  std::shared_ptr<const std::vector<std::vector<TraceEvent>>> perCore_;
};

class TraceReplayCoreWorkload final : public CoreWorkload {
 public:
  TraceReplayCoreWorkload(
      std::shared_ptr<const std::vector<std::vector<TraceEvent>>> perCore,
      CoreId core)
      : perCore_(std::move(perCore)), core_(core) {}

  void step(Cycle cycle, CoreContext& core) override;
  void onPacketEjected(const noc::PacketDescriptor&, Cycle, CoreContext&) override {}
  Cycle nextEventAt() const override;
  void reset() override { next_ = 0; }

 private:
  const std::vector<TraceEvent>& events() const { return (*perCore_)[core_]; }

  std::shared_ptr<const std::vector<std::vector<TraceEvent>>> perCore_;
  CoreId core_ = 0;
  std::size_t next_ = 0;  // first unreplayed event
};

}  // namespace pnoc::workload
