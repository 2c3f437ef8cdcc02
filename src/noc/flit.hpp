// Flits and packets: the units of wormhole switching (paper Section 1.4).
//
// A packet is divided into fixed-size flits; the head flit carries routing
// information and establishes the path, body flits follow it, and the tail
// flit releases the path.  Per Table 3-3 a packet is always 2048 bits; the
// flit size (and hence flit count) depends on the bandwidth set:
//   BW set 1: 64 flits x 32 bits, set 2: 16 x 128, set 3: 8 x 256.
//
// The descriptor is shared, not copied: flits carry a PacketHandle into a
// PacketSlab (or any other stable storage), so the per-hop copy through link
// pipes is a 16-byte flit instead of the full 48-byte descriptor.  VC buffers
// store even less: one handle per VC and an 8-byte arrival cycle per flit,
// rebuilding flits with makeFlit from the flit count cached when the VC's
// segment opened (src/noc/vc_buffer.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace pnoc::sim {
class Clocked;
}  // namespace pnoc::sim

namespace pnoc::noc {

enum class FlitType : std::uint8_t {
  kHead,
  kBody,
  kTail,
  kHeadTail,  // single-flit packet
};

std::string toString(FlitType type);

/// Role of a packet within a request--reply flow (src/workload).  Open-loop
/// traffic is all kNone; the closed-loop and chain workloads tag each hop so
/// the ejecting core knows whether to answer, forward, or complete the flow.
enum class FlowKind : std::uint8_t {
  kNone,     // plain open-loop packet, not part of any flow
  kRequest,  // first hop: requester -> destination (or directory)
  kForward,  // intermediate hop of a dependency chain
  kReply,    // final hop: carries the response back to the flow's origin
};

std::string toString(FlowKind kind);

/// Static description of a packet, shared by all its flits.
struct PacketDescriptor {
  PacketId id = 0;
  CoreId srcCore = 0;
  CoreId dstCore = 0;
  ClusterId srcCluster = 0;
  ClusterId dstCluster = 0;
  std::uint32_t numFlits = 1;
  Bits bitsPerFlit = 32;
  Cycle createdAt = 0;
  /// Index of the application bandwidth class that generated this packet
  /// (0..3 for the four per-BW-set channel bandwidths of Table 3-1); used by
  /// the DBA layer to look up the wavelength demand of the flow.
  std::uint32_t bandwidthClass = 0;

  // --- flow state (closed-loop / chain workloads; kNone for open loop) ---
  /// Role of this hop in its request--reply flow.
  FlowKind flowKind = FlowKind::kNone;
  /// Flow identity: the packet id of the flow's originating request; every
  /// continuation (forward, reply) carries it unchanged.
  PacketId flowId = 0;
  /// Core that issued the originating request (where the reply completes).
  CoreId originCore = 0;
  /// Cycle the originating request was enqueued; request latency is the
  /// reply's tail ejection minus this.
  Cycle flowStartedAt = 0;

  Bits totalBits() const { return static_cast<Bits>(numFlits) * bitsPerFlit; }
};

/// Compact reference to an interned descriptor.  The storage (typically a
/// PacketSlab owned by the network) must outlive every flit of the packet.
using PacketHandle = const PacketDescriptor*;

/// One flow-control unit.
struct Flit {
  PacketHandle handle = nullptr;
  FlitType type = FlitType::kHead;
  std::uint32_t sequence = 0;  // 0-based index within the packet

  const PacketDescriptor& packet() const { return *handle; }
  bool isHead() const { return type == FlitType::kHead || type == FlitType::kHeadTail; }
  bool isTail() const { return type == FlitType::kTail || type == FlitType::kHeadTail; }
  Bits bits() const { return handle->bitsPerFlit; }
};

/// Builds the flit at position `sequence` of a packet of `numFlits` flits.
/// Takes the flit count explicitly so callers that cache it (a VC holding
/// the packet's segment) never load the descriptor.
inline Flit makeFlit(PacketHandle packet, std::uint32_t sequence, std::uint32_t numFlits) {
  assert(packet != nullptr);
  assert(sequence < numFlits);
  Flit flit;
  flit.handle = packet;
  flit.sequence = sequence;
  if (numFlits == 1) {
    flit.type = FlitType::kHeadTail;
  } else if (sequence == 0) {
    flit.type = FlitType::kHead;
  } else if (sequence == numFlits - 1) {
    flit.type = FlitType::kTail;
  } else {
    flit.type = FlitType::kBody;
  }
  return flit;
}

/// Builds the flit at position `sequence` of the given packet.
inline Flit makeFlit(PacketHandle packet, std::uint32_t sequence) {
  assert(packet != nullptr);
  return makeFlit(packet, sequence, packet->numFlits);
}

/// Anything a flit can be handed to: a router input port, a link, a core
/// terminating its packets.  Upstream components (router outputs, links,
/// injecting cores) hold a FlitSink& and never know which it is.
class FlitSink {
 public:
  virtual ~FlitSink() = default;
  /// Must be side-effect free; if it returns true, accept() in the same
  /// cycle must succeed.
  virtual bool canAccept(const Flit& flit) const = 0;
  virtual void accept(const Flit& flit, Cycle now) = 0;

  /// Wake-on-drain: arranges a one-shot `waiter.requestWake()` the next time
  /// this sink frees acceptance capacity (a link pipe slot).  Returns false
  /// when the sink cannot provide the notification — the caller must then
  /// keep polling instead of parking.  Re-registering the same waiter is
  /// idempotent; the registration is consumed by the first drain event.
  virtual bool notifyOnDrain(sim::Clocked& waiter) {
    (void)waiter;
    return false;
  }
};

}  // namespace pnoc::noc
