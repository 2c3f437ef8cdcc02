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
// flit's sequence number, and a RingBuffer of per-flit arrival cycles (8
// bytes a slot, allocated once at construction).  Flits are rebuilt from the
// handle and sequence with makeFlit when read.
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
  /// VC takes any flit: a body can land in an empty (locked) VC mid-packet
  /// when the consumer drained ahead of the source.
  void push(const Flit& flit, Cycle now) {
    assert(!full());
    if (empty()) {
      packet_ = flit.handle;
      frontSequence_ = flit.sequence;
    } else {
      assert(flit.handle == packet_ && "a VC holds one packet's flits");
      assert(flit.sequence == frontSequence_ + size() && "flits arrive in order");
    }
    arrivals_.push_back(now);
    ++stats_.flitsWritten;
    stats_.bitsWritten += flit.bits();
    stats_.peakOccupancy = std::max<std::uint64_t>(stats_.peakOccupancy, size());
  }

  /// Front flit without removing it. Precondition: !empty().
  Flit front() const {
    assert(!empty());
    return makeFlit(packet_, frontSequence_);
  }

  /// Cycle at which the front flit was enqueued. Precondition: !empty().
  Cycle frontArrival() const { return arrivals_.front(); }

  /// Dequeues the front flit at the given cycle. Precondition: !empty().
  Flit pop(Cycle now) {
    const Flit flit = front();
    const Cycle enqueuedAt = arrivals_.front();
    arrivals_.pop_front();
    ++frontSequence_;
    ++stats_.flitsRead;
    stats_.bitsRead += flit.bits();
    const Cycle resident = (now >= enqueuedAt) ? now - enqueuedAt : 0;
    stats_.bitCyclesResident += flit.bits() * resident;
    return flit;
  }

  /// Empties the channel and zeroes its statistics (network reset).
  void reset() {
    arrivals_.clear();
    packet_ = nullptr;
    frontSequence_ = 0;
    stats_ = BufferStats{};
  }

  const BufferStats& stats() const { return stats_; }

 private:
  sim::RingBuffer<Cycle> arrivals_;  ///< enqueue cycle of each buffered flit
  PacketHandle packet_ = nullptr;    ///< packet of every buffered flit
  std::uint32_t frontSequence_ = 0;  ///< sequence number of the front flit
  BufferStats stats_;
};

/// Hot VC-front metadata for one bank, exposed as raw pointers so an owner
/// (PhotonicNetwork's PhotonicHotState) can place every bank's slice in flat
/// contiguous arrays.  The per-cycle transmit/ejection scans then read
/// compact SoA memory instead of chasing bank->vc(id) object chains.  A bank
/// not attached to shared storage keeps its masks in plain members and pays
/// nothing for the mirroring (the electrical routers' banks stay exactly as
/// cheap as before the SoA existed).
struct VcHotSlice {
  std::uint32_t* occupied = nullptr;   ///< one word: bit i set iff VC i non-empty
  std::uint32_t* headFront = nullptr;  ///< one word: bit i set iff VC i's front is a head
  Flit* front = nullptr;               ///< [numVcs] front flit of each occupied VC
  Cycle* frontArrival = nullptr;       ///< [numVcs] enqueue cycle of each front flit
};

/// A bank of VCs forming one router input port (at most 32 VCs so occupancy
/// and lock state fit in bitmasks).
///
/// All mutation goes through the bank — push/pop/lock — so it can maintain
/// an occupied-VC bitmask, a head-front bitmask and an O(1) flit count in
/// the hot slice.  The hot arbitration loops iterate set bits of
/// occupiedMask() instead of scanning every VC, free-VC lookup is a
/// count-trailing-zeros, and front flits are read from the slice without
/// touching the ring buffers at all.
class VcBufferBank {
 public:
  VcBufferBank(std::uint32_t numVcs, std::uint32_t depthFlits);

  // An attached external slice mirrors this bank's state; copying would
  // alias it, so banks move but never copy.  Moves keep the attachment (the
  // external storage does not belong to the bank).
  VcBufferBank(const VcBufferBank&) = delete;
  VcBufferBank& operator=(const VcBufferBank&) = delete;
  VcBufferBank(VcBufferBank&&) = default;
  VcBufferBank& operator=(VcBufferBank&&) = default;

  std::uint32_t numVcs() const { return static_cast<std::uint32_t>(vcs_.size()); }
  const VirtualChannel& vc(VcId id) const { return vcs_[id]; }

  /// Enqueues into VC `id`. Precondition: !vc(id).full().
  void push(VcId id, const Flit& flit, Cycle now);

  /// Dequeues the front flit of VC `id`. Precondition: !vc(id).empty().
  Flit pop(VcId id, Cycle now);

  /// Bit i set iff vc(i) is non-empty.
  std::uint32_t occupiedMask() const { return occupiedMask_; }

  /// Bit i set iff vc(i)'s front flit is a packet head (a head is always the
  /// first flit pushed into its VC, so the mask updates in O(1) on
  /// push/pop).  The router's arbitration stages only matter when this is
  /// non-zero: pure body/tail streaming takes the owned-output fast path,
  /// and the transmit scan pre-intersects candidates with this mask.
  std::uint32_t headFrontMask() const { return headFrontMask_; }
  std::uint32_t headFrontCount() const {
    return static_cast<std::uint32_t>(std::popcount(headFrontMask_));
  }

  /// Mirrors this bank's hot metadata into externally owned storage (one
  /// slice of a network-wide SoA) from now on: push/pop keep the slice's
  /// masks and front-flit copies current, so the owner can scan the flat
  /// arrays instead of the banks.  Must be called while the bank is empty
  /// (it is — attachment happens at construction); the external storage must
  /// outlive the bank.  Slice arrays must hold at least numVcs() elements.
  void attachHotState(const VcHotSlice& slice);

  /// First VC that can accept a new packet's head flit (empty and not
  /// reserved by an in-flight packet), or kNoVc.
  VcId findFreeVcForNewPacket() const;

  /// Marks a VC reserved-by-packet (wormhole: one packet owns a VC from head
  /// to tail).
  void lock(VcId id) { lockedMask_ |= bit(id); }
  void unlock(VcId id) { lockedMask_ &= ~bit(id); }
  bool isLocked(VcId id) const { return (lockedMask_ & bit(id)) != 0; }

  /// True if every VC is either non-empty or locked: a newly arriving head
  /// flit would be dropped (paper Section 1.4 drop-and-retransmit).
  bool allBusy() const { return findFreeVcForNewPacket() == kNoVc; }

  BufferStats aggregateStats() const;

  /// Empties every VC, drops all locks and zeroes statistics (network reset).
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
  /// External SoA mirror; all pointers null when unattached (the common,
  /// electrical-router case — push/pop then skip the mirroring entirely).
  VcHotSlice ext_;
};

/// Maps in-flight packet ids to the VC receiving them at one port.  The live
/// set is tiny (only packets mid-reception, usually 0-2), so a linear-scan
/// vector beats a node-based map on every hot ingress path.
class PacketVcMap {
 public:
  /// VC receiving `id`, or kNoVc.
  VcId find(PacketId id) const {
    for (const auto& [packet, vc] : entries_) {
      if (packet == id) return vc;
    }
    return kNoVc;
  }

  void insert(PacketId id, VcId vc) { entries_.emplace_back(id, vc); }

  void erase(PacketId id) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == id) {
        *it = entries_.back();
        entries_.pop_back();
        return;
      }
    }
  }

  void clear() { entries_.clear(); }

 private:
  std::vector<std::pair<PacketId, VcId>> entries_;
};

}  // namespace pnoc::noc
