// Virtual-channel buffers (paper Section 1.4, Figure 1-3; Table 3-3 sizes
// them at 16 VCs per port, 64 flits deep).
//
// Besides FIFO semantics the buffers keep the occupancy statistics the
// energy model needs: buffer energy is charged per bit on write and read, and
// congestion shows up as longer residency, which Section 3.4.1.2 identifies
// as the reason d-HetPNoC's packet energy is lower under skewed traffic.  We
// therefore track bit-cycles of residency explicitly.
//
// Wormhole switching locks a VC to one packet from head to tail, so a VC
// only ever holds a contiguous run of one packet's flits.  It therefore
// stores that run as a packet segment: the packet handle once, the front
// flit's sequence number, the packet's flit count and flit width (cached
// when the segment opens, so reading or popping the front never loads the
// descriptor), and a RingBuffer of per-flit arrival cycles (8 bytes a slot,
// grown on demand up to the VC depth, so a VC traffic never reaches holds
// no storage).  Flits are rebuilt from the segment with
// makeFlit when read.  Statistics, the masks and front-arrival array the
// routers scan, and the VC-per-packet locks live one level up, in the
// VcBufferBank.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "noc/flit.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/types.hpp"

namespace pnoc::noc {

/// Occupancy/energy statistics for one buffer (or aggregated over a bank).
struct BufferStats {
  std::uint64_t flitsWritten = 0;
  std::uint64_t flitsRead = 0;
  Bits bitsWritten = 0;
  Bits bitsRead = 0;
  /// Sum over all dequeued flits of bits * cyclesResident.
  std::uint64_t bitCyclesResident = 0;
  std::uint64_t peakOccupancy = 0;

  BufferStats& operator+=(const BufferStats& other);
};

/// One virtual channel: a bounded FIFO of flits, all from one packet.
class VirtualChannel {
 public:
  explicit VirtualChannel(std::uint32_t capacityFlits) : arrivals_(capacityFlits) {}

  bool empty() const { return arrivals_.empty(); }
  bool full() const { return arrivals_.full(); }
  std::uint32_t capacity() const { return arrivals_.capacity(); }
  std::uint32_t size() const { return arrivals_.size(); }
  std::uint32_t freeSlots() const { return arrivals_.freeSlots(); }

  /// Enqueues a flit at the given cycle.  Preconditions: !full(), and a
  /// non-empty VC only takes the next flit of the packet it holds.  An empty
  /// VC takes any flit and starts its segment there: a body can land in an
  /// empty (locked) VC mid-packet when the consumer drained ahead of the
  /// source.  Only a new packet loads the descriptor; the same packet's
  /// later flits reuse the cached fields (packet_ is cleared when its tail
  /// leaves, so a recycled handle always reloads).
  void push(const Flit& flit, Cycle now) {
    assert(!full());
    if (empty()) {
      if (flit.handle != packet_) {
        packet_ = flit.handle;
        numFlits_ = flit.handle->numFlits;
        bitsPerFlit_ = flit.handle->bitsPerFlit;
      } else {
        assert(flit.sequence == frontSequence_ && "flits arrive in order");
      }
      frontSequence_ = flit.sequence;
    } else {
      assert(flit.handle == packet_ && "a VC holds one packet's flits");
      assert(flit.sequence == frontSequence_ + size() && "flits arrive in order");
    }
    arrivals_.push_back(now);
  }

  /// Front flit without removing it. Precondition: !empty().
  Flit front() const {
    assert(!empty());
    return makeFlit(packet_, frontSequence_, numFlits_);
  }

  /// Cycle at which the front flit was enqueued. Precondition: !empty().
  Cycle frontArrival() const { return arrivals_.front(); }

  /// Width of the segment's flits (valid once a flit has been pushed; kept
  /// after the segment empties).
  Bits bitsPerFlit() const { return bitsPerFlit_; }

  /// Dequeues the front flit. Precondition: !empty().
  Flit pop() {
    const Flit flit = front();
    arrivals_.pop_front();
    ++frontSequence_;
    if (flit.isTail()) packet_ = nullptr;  // the packet may now be released
    return flit;
  }

  /// Empties the channel and forgets its segment (network reset).
  void reset() {
    arrivals_.clear();
    packet_ = nullptr;
    frontSequence_ = 0;
    numFlits_ = 0;
    bitsPerFlit_ = 0;
  }

 private:
  sim::RingBuffer<Cycle> arrivals_;  ///< enqueue cycle of each buffered flit
  PacketHandle packet_ = nullptr;    ///< packet of every buffered flit; null once its tail left
  std::uint32_t frontSequence_ = 0;  ///< sequence number of the front flit
  std::uint32_t numFlits_ = 0;       ///< packet_->numFlits, cached
  Bits bitsPerFlit_ = 0;             ///< packet_->bitsPerFlit, cached
};

/// Maps in-flight packets to the VC receiving them at one port.  The live
/// set is tiny (only packets mid-reception, usually 0-2), so a linear-scan
/// vector beats a node-based map on every hot ingress path.  Keys are packet
/// handles: unique while the packet is live, and an entry is erased when the
/// packet's tail arrives, before its slab slot can be recycled.  Lookups
/// therefore never dereference a descriptor.
class PacketVcMap {
 public:
  /// VC receiving `packet`, or kNoVc.
  VcId find(PacketHandle packet) const {
    for (const auto& [handle, vc] : entries_) {
      if (handle == packet) return vc;
    }
    return kNoVc;
  }

  void insert(PacketHandle packet, VcId vc) { entries_.emplace_back(packet, vc); }

  void erase(PacketHandle packet) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == packet) {
        *it = entries_.back();
        entries_.pop_back();
        return;
      }
    }
  }

  void clear() { entries_.clear(); }

 private:
  std::vector<std::pair<PacketHandle, VcId>> entries_;
};

/// A bank of VCs forming one router input port (at most 32 VCs so occupancy
/// and lock state fit in bitmasks), and the one home of the wormhole
/// VC-per-packet rule: accept() gives an arriving head the lowest free VC
/// and locks it, body and tail flits follow their packet's VC, and pop()
/// releases the lock when the tail leaves.
///
/// All mutation goes through the bank — accept/push/pop/lock — so it can
/// maintain an occupied-VC bitmask, a head-front bitmask, an O(1) flit
/// count, the bank's BufferStats and a per-VC front-arrival array.  The hot
/// arbitration and transmit/ejection loops iterate set bits of the masks
/// instead of scanning every VC, free-VC lookup is a count-trailing-zeros,
/// and pipeline eligibility is one read of frontArrival(vc) — none of it
/// touches a VC's ring buffer or a packet descriptor.
class VcBufferBank {
 public:
  VcBufferBank(std::uint32_t numVcs, std::uint32_t depthFlits);

  std::uint32_t numVcs() const { return static_cast<std::uint32_t>(vcs_.size()); }
  const VirtualChannel& vc(VcId id) const { return vcs_[id]; }

  /// Wormhole ingress check: a head needs a free VC, a body or tail needs
  /// room in the VC its packet's head claimed here.
  bool canAccept(const Flit& flit) const {
    if (flit.isHead()) return findFreeVcForNewPacket() != kNoVc;
    const VcId id = receiving_.find(flit.handle);
    return id != kNoVc && !vcs_[id].full();
  }

  /// Buffers an arriving flit and returns its VC: a head claims and locks
  /// the lowest free VC, a body or tail follows its packet.
  /// Precondition: canAccept(flit).
  VcId accept(const Flit& flit, Cycle now) {
    assert(canAccept(flit));
    VcId id = kNoVc;
    if (flit.isHead()) {
      id = findFreeVcForNewPacket();
      lock(id);
      if (!flit.isTail()) receiving_.insert(flit.handle, id);
    } else {
      id = receiving_.find(flit.handle);
      if (flit.isTail()) receiving_.erase(flit.handle);
    }
    push(id, flit, now);
    return id;
  }

  /// Enqueues into VC `id`, which the caller has locked for the flit's
  /// packet (accept() does both).  Precondition: !vc(id).full().
  void push(VcId id, const Flit& flit, Cycle now) {
    VirtualChannel& channel = vcs_[id];
    const bool wasEmpty = channel.empty();
    // Wormhole invariant: a head is the first flit of its packet into the
    // VC, so "front is a head" holds from a head's push until it is popped.
    if (flit.isHead()) {
      assert(wasEmpty && "a head flit must open an empty VC");
      headFrontMask_ |= bit(id);
    }
    channel.push(flit, now);
    occupiedMask_ |= bit(id);
    ++occupancy_;
    ++stats_.flitsWritten;
    stats_.bitsWritten += channel.bitsPerFlit();
    stats_.peakOccupancy = std::max<std::uint64_t>(stats_.peakOccupancy, channel.size());
    // The pushed flit becomes the front.  A non-head can land in an empty
    // (locked) VC mid-packet when the consumer drained ahead of the source.
    if (wasEmpty) frontArrival_[id] = now;
  }

  /// Dequeues the front flit of VC `id`; a tail leaving unlocks the VC.
  /// Precondition: !vc(id).empty().
  Flit pop(VcId id, Cycle now) {
    VirtualChannel& channel = vcs_[id];
    const Cycle enqueuedAt = frontArrival_[id];
    const Bits bits = channel.bitsPerFlit();
    const Flit flit = channel.pop();
    ++stats_.flitsRead;
    stats_.bitsRead += bits;
    stats_.bitCyclesResident += bits * (now >= enqueuedAt ? now - enqueuedAt : 0);
    assert(occupancy_ > 0);
    --occupancy_;
    // A popped head exposes a body/tail (heads only open empty VCs, so a
    // second head can never be queued behind one); a popped body/tail never
    // exposes a head for the same reason.
    if (flit.isHead()) headFrontMask_ &= ~bit(id);
    if (flit.isTail()) lockedMask_ &= ~bit(id);
    if (channel.empty()) {
      occupiedMask_ &= ~bit(id);
    } else {
      frontArrival_[id] = channel.frontArrival();
    }
    return flit;
  }

  /// Bit i set iff vc(i) is non-empty.
  std::uint32_t occupiedMask() const { return occupiedMask_; }

  /// Bit i set iff vc(i)'s front flit is a packet head (a head is always the
  /// first flit pushed into its VC, so the mask updates in O(1) on
  /// push/pop).  The router's arbitration stages only matter when this is
  /// non-zero: pure body/tail streaming takes the owned-output fast path,
  /// and the transmit scan pre-intersects candidates with this mask.
  std::uint32_t headFrontMask() const { return headFrontMask_; }

  /// Cycle at which vc(id)'s front flit was enqueued, read from the bank's
  /// contiguous front-arrival array. Precondition: vc(id) is non-empty.
  Cycle frontArrival(VcId id) const { return frontArrival_[id]; }

  /// First VC that can accept a new packet's head flit (empty and not
  /// reserved by an in-flight packet), or kNoVc.
  VcId findFreeVcForNewPacket() const {
    // Lowest VC that is both empty and unlocked — identical to a linear scan.
    const std::uint32_t freeBits = ~(occupiedMask_ | lockedMask_) & allVcsMask_;
    if (freeBits == 0) return kNoVc;
    return static_cast<VcId>(std::countr_zero(freeBits));
  }

  /// Marks a VC reserved-by-packet ahead of its flits (the photonic receive
  /// side reserves a VC per packet before pushing into it); the tail's
  /// pop() releases it.
  void lock(VcId id) { lockedMask_ |= bit(id); }
  bool isLocked(VcId id) const { return (lockedMask_ & bit(id)) != 0; }

  /// Write/read/residency totals over every VC of the bank; peakOccupancy is
  /// the largest size any single VC reached.
  const BufferStats& aggregateStats() const { return stats_; }

  /// Empties every VC, drops all locks and in-progress packets and zeroes
  /// statistics (network reset).
  void reset();

  /// Total flits currently buffered across all VCs (O(1)).
  std::uint32_t totalOccupancy() const { return occupancy_; }

 private:
  static std::uint32_t bit(VcId id) { return 1u << id; }

  std::vector<VirtualChannel> vcs_;
  std::uint32_t allVcsMask_ = 0;
  std::uint32_t lockedMask_ = 0;
  std::uint32_t occupiedMask_ = 0;
  std::uint32_t headFrontMask_ = 0;
  std::uint32_t occupancy_ = 0;
  BufferStats stats_;
  std::vector<Cycle> frontArrival_;  ///< [numVcs] enqueue cycle of each front flit
  PacketVcMap receiving_;            ///< VC of each packet accept() is mid-way through
};

}  // namespace pnoc::noc
