// Per-network interning slab for packet descriptors.
//
// A packet's descriptor is written once at generation, read by every hop, and
// dead once the tail flit reaches its ejection sink.  The slab gives each
// descriptor a stable address for its whole lifetime (std::deque never moves
// elements), hands out PacketHandles for flits to carry, and recycles slots
// through a free list so steady-state traffic allocates nothing.
//
// Not thread safe: each PhotonicNetwork owns its own slab, and a network is
// confined to the thread that built it (a fleet worker process runs one
// network at a time).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "noc/flit.hpp"

namespace pnoc::noc {

class PacketSlab {
 public:
  /// Copies `packet` into a stable slot and returns its handle.
  PacketHandle intern(const PacketDescriptor& packet);

  /// Returns the slot to the free list.  The caller guarantees no flit still
  /// references the handle (in the network: called when the tail flit is
  /// consumed by its ejection sink).
  void release(PacketHandle handle);

  /// Descriptors currently live (interned and not yet released).
  std::size_t live() const { return live_; }

  /// Slots ever allocated == peak simultaneous live descriptors.
  std::size_t slots() const { return storage_.size(); }

  /// Drops every descriptor and recycled slot (network reset).  The caller
  /// guarantees no flit anywhere still carries a handle into this slab.
  void clear() {
    freeList_.clear();
    storage_.clear();
    live_ = 0;
  }

 private:
  std::deque<PacketDescriptor> storage_;
  std::vector<PacketDescriptor*> freeList_;
  std::size_t live_ = 0;
};

}  // namespace pnoc::noc
