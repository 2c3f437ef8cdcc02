#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "noc/buffered_port.hpp"
#include "noc/flit.hpp"
#include "noc/packet_slab.hpp"
#include "noc/topology.hpp"
#include "noc/vc_buffer.hpp"
#include "sim/rng.hpp"

namespace pnoc::noc {
namespace {

/// Descriptors live in a test-local slab so flit handles stay valid for the
/// whole test (as the network's per-run slab guarantees in production).
PacketHandle makePacket(PacketId id, std::uint32_t numFlits, Bits bitsPerFlit = 32) {
  static PacketSlab slab;
  PacketDescriptor packet;
  packet.id = id;
  packet.numFlits = numFlits;
  packet.bitsPerFlit = bitsPerFlit;
  return slab.intern(packet);
}

/// Port owner that records every report a BufferedPort makes.
class RecordingOwner final : public PortOwner {
 public:
  struct Report {
    std::uint32_t port;
    VcId vc;
    std::uint32_t sequence;
  };
  void onFlitBuffered(std::uint32_t port, VcId vc, const Flit& flit) override {
    reports.push_back(Report{port, vc, flit.sequence});
  }
  std::vector<Report> reports;
};

TEST(Flit, TypesByPosition) {
  const auto packet = makePacket(1, 4);
  EXPECT_EQ(makeFlit(packet, 0).type, FlitType::kHead);
  EXPECT_EQ(makeFlit(packet, 1).type, FlitType::kBody);
  EXPECT_EQ(makeFlit(packet, 2).type, FlitType::kBody);
  EXPECT_EQ(makeFlit(packet, 3).type, FlitType::kTail);
}

TEST(Flit, SingleFlitPacketIsHeadTail) {
  const auto packet = makePacket(2, 1);
  const Flit flit = makeFlit(packet, 0);
  EXPECT_EQ(flit.type, FlitType::kHeadTail);
  EXPECT_TRUE(flit.isHead());
  EXPECT_TRUE(flit.isTail());
}

TEST(Flit, TotalBits) {
  EXPECT_EQ(makePacket(3, 64, 32)->totalBits(), 2048u);  // BW set 1 geometry
  EXPECT_EQ(makePacket(4, 16, 128)->totalBits(), 2048u);  // BW set 2
  EXPECT_EQ(makePacket(5, 8, 256)->totalBits(), 2048u);  // BW set 3
}

TEST(VirtualChannel, FifoOrder) {
  VirtualChannel vc(4);
  const auto packet = makePacket(1, 3);
  for (std::uint32_t i = 0; i < 3; ++i) vc.push(makeFlit(packet, i), i);
  EXPECT_EQ(vc.pop().sequence, 0u);
  EXPECT_EQ(vc.pop().sequence, 1u);
  EXPECT_EQ(vc.pop().sequence, 2u);
  EXPECT_TRUE(vc.empty());
}

TEST(VirtualChannel, CapacityAndFreeSlots) {
  VirtualChannel vc(2);
  const auto packet = makePacket(1, 2);
  EXPECT_EQ(vc.freeSlots(), 2u);
  vc.push(makeFlit(packet, 0), 0);
  EXPECT_EQ(vc.freeSlots(), 1u);
  vc.push(makeFlit(packet, 1), 0);
  EXPECT_TRUE(vc.full());
}

TEST(VirtualChannel, ResidencyBitCycles) {
  // Statistics are kept by the bank a VC belongs to.
  VcBufferBank bank(1, 4);
  const auto packet = makePacket(1, 1, 32);
  bank.push(0, makeFlit(packet, 0), 10);
  bank.pop(0, 25);  // resident 15 cycles
  EXPECT_EQ(bank.aggregateStats().bitCyclesResident, 32u * 15u);
}

TEST(VirtualChannel, StatsCountBits) {
  VcBufferBank bank(1, 4);
  const auto packet = makePacket(1, 2, 128);
  bank.push(0, makeFlit(packet, 0), 0);
  bank.push(0, makeFlit(packet, 1), 0);
  bank.pop(0, 1);
  EXPECT_EQ(bank.aggregateStats().bitsWritten, 256u);
  EXPECT_EQ(bank.aggregateStats().bitsRead, 128u);
  EXPECT_EQ(bank.aggregateStats().peakOccupancy, 2u);
}

TEST(VirtualChannel, BodyIntoEmptyLockedVcStartsTheSegment) {
  // The VC first carries a whole earlier packet.  Then the consumer drains
  // the next packet's head ahead of the source: the VC is empty but still
  // locked, and the next flit to arrive is a body.
  RecordingOwner owner;
  BufferedPort port(owner, 0, 1, 4);
  const auto earlier = makePacket(10, 2);
  port.accept(makeFlit(earlier, 0), 0);
  port.accept(makeFlit(earlier, 1), 0);
  port.bank().pop(0, 1);
  port.bank().pop(0, 1);
  const auto packet = makePacket(11, 4);
  port.accept(makeFlit(packet, 0), 2);
  port.bank().pop(0, 3);
  ASSERT_TRUE(port.bank().vc(0).empty());
  ASSERT_TRUE(port.bank().isLocked(0));
  port.accept(makeFlit(packet, 1), 7);
  port.accept(makeFlit(packet, 2), 8);
  const VirtualChannel& vc = port.bank().vc(0);
  EXPECT_EQ(vc.front().sequence, 1u);
  EXPECT_EQ(vc.front().type, FlitType::kBody);
  EXPECT_EQ(vc.front().packet().id, 11u);
  EXPECT_EQ(vc.frontArrival(), 7u);
  EXPECT_EQ(port.bank().pop(0, 9).sequence, 1u);
  EXPECT_EQ(vc.front().sequence, 2u);
  EXPECT_EQ(vc.frontArrival(), 8u);
}

TEST(VirtualChannel, PopRebuildsFlitTypes) {
  VirtualChannel vc(4);
  const auto packet = makePacket(12, 3);
  for (std::uint32_t i = 0; i < 3; ++i) vc.push(makeFlit(packet, i), i);
  EXPECT_EQ(vc.pop().type, FlitType::kHead);
  EXPECT_EQ(vc.pop().type, FlitType::kBody);
  const Flit tail = vc.pop();
  EXPECT_EQ(tail.type, FlitType::kTail);
  EXPECT_EQ(tail.handle, packet);

  const auto single = makePacket(13, 1);
  vc.push(makeFlit(single, 0), 6);
  EXPECT_EQ(vc.front().type, FlitType::kHeadTail);
  EXPECT_EQ(vc.pop().type, FlitType::kHeadTail);
  EXPECT_TRUE(vc.empty());
}

TEST(VirtualChannel, RecycledHandleReloadsTheSegment) {
  // A VC caches numFlits/bitsPerFlit per packet.  Once a tail leaves, the
  // slab may hand the same handle to a new packet: the VC must reload.
  VcBufferBank bank(1, 4);
  PacketSlab slab;
  PacketDescriptor wide;
  wide.id = 40;
  wide.numFlits = 2;
  wide.bitsPerFlit = 256;
  const PacketHandle first = slab.intern(wide);
  bank.push(0, makeFlit(first, 0), 0);
  bank.pop(0, 1);  // the head leaves: segment stays open, VC empty
  bank.push(0, makeFlit(first, 1), 2);
  EXPECT_EQ(bank.vc(0).front().type, FlitType::kTail);
  bank.pop(0, 3);
  slab.release(first);
  PacketDescriptor narrow;
  narrow.id = 41;
  narrow.numFlits = 3;
  narrow.bitsPerFlit = 32;
  const PacketHandle second = slab.intern(narrow);
  ASSERT_EQ(second, first) << "the slab recycles the released slot";
  bank.push(0, makeFlit(second, 0), 4);
  bank.pop(0, 5);
  bank.push(0, makeFlit(second, 1), 6);
  EXPECT_EQ(bank.vc(0).front().type, FlitType::kBody);
  EXPECT_EQ(bank.vc(0).bitsPerFlit(), 32u);
  EXPECT_EQ(bank.aggregateStats().bitsWritten, 2 * 256u + 2 * 32u);
  EXPECT_EQ(bank.aggregateStats().bitsRead, 2 * 256u + 32u);
}

#ifndef NDEBUG
TEST(VirtualChannelDeathTest, RejectsAnotherPacketsFlit) {
  VirtualChannel vc(4);
  const auto first = makePacket(14, 3);
  const auto second = makePacket(15, 3);
  vc.push(makeFlit(first, 0), 0);
  EXPECT_DEATH(vc.push(makeFlit(second, 1), 1), "one packet");
}

TEST(VirtualChannelDeathTest, RejectsOutOfOrderSequence) {
  VirtualChannel vc(4);
  const auto packet = makePacket(16, 4);
  vc.push(makeFlit(packet, 0), 0);
  EXPECT_DEATH(vc.push(makeFlit(packet, 2), 1), "in order");
}

TEST(VirtualChannelDeathTest, RejectsOutOfOrderSequenceIntoEmptyVc) {
  // The packet's segment stays open while the VC runs empty mid-packet.
  VirtualChannel vc(4);
  const auto packet = makePacket(17, 4);
  vc.push(makeFlit(packet, 0), 0);
  vc.pop();
  EXPECT_DEATH(vc.push(makeFlit(packet, 2), 1), "in order");
}
#endif

TEST(VcBufferBank, FindFreeSkipsLockedAndOccupied) {
  VcBufferBank bank(3, 2);
  EXPECT_EQ(bank.findFreeVcForNewPacket(), 0u);
  bank.lock(0);
  EXPECT_EQ(bank.findFreeVcForNewPacket(), 1u);
  bank.push(1, makeFlit(makePacket(1, 2), 0), 0);
  EXPECT_EQ(bank.findFreeVcForNewPacket(), 2u);
  bank.lock(2);
  EXPECT_EQ(bank.findFreeVcForNewPacket(), kNoVc);
}

TEST(VcBufferBank, AggregateStats) {
  VcBufferBank bank(2, 4);
  const auto packet = makePacket(1, 2, 64);
  bank.push(0, makeFlit(packet, 0), 0);
  bank.push(1, makeFlit(packet, 1), 0);
  const BufferStats stats = bank.aggregateStats();
  EXPECT_EQ(stats.flitsWritten, 2u);
  EXPECT_EQ(stats.bitsWritten, 128u);
  EXPECT_EQ(bank.totalOccupancy(), 2u);
}

TEST(VcBufferBank, StatsEqualThePerVcSums) {
  // Reference: the per-VC statistics each VirtualChannel used to keep,
  // summed with BufferStats::operator+= (peakOccupancy takes the max).
  // Random wormhole traffic over four VCs, packets of 1-5 flits and mixed
  // widths, pops at random later cycles.  After every step the bank's
  // occupancy and head-front masks and its flit count must also equal a
  // per-VC scan: the routers' transmit, ejection and arbitration scans read
  // only those.
  constexpr std::uint32_t kVcs = 4;
  VcBufferBank bank(kVcs, 3);
  BufferStats perVc[kVcs];
  std::vector<Cycle> arrivals[kVcs];
  std::vector<std::uint32_t> remaining(kVcs, 0);  // flits of the open packet
  std::vector<PacketHandle> packets(kVcs, nullptr);
  sim::Rng random(99);
  PacketId nextId = 100;
  Cycle now = 0;
  auto expectMasksMatchScan = [&bank] {
    std::uint32_t occupied = 0;
    std::uint32_t heads = 0;
    std::uint32_t flits = 0;
    for (VcId vc = 0; vc < kVcs; ++vc) {
      const VirtualChannel& channel = bank.vc(vc);
      flits += channel.size();
      if (channel.empty()) continue;
      occupied |= 1u << vc;
      if (channel.front().isHead()) heads |= 1u << vc;
    }
    EXPECT_EQ(bank.occupiedMask(), occupied);
    EXPECT_EQ(bank.headFrontMask(), heads);
    EXPECT_EQ(bank.totalOccupancy(), flits);
  };
  for (int step = 0; step < 4000; ++step) {
    expectMasksMatchScan();
    now += random.nextBelow(3);
    const auto vc = static_cast<VcId>(random.nextBelow(kVcs));
    const VirtualChannel& channel = bank.vc(vc);
    if (random.nextBool(0.5) && !channel.full()) {
      if (remaining[vc] == 0) {
        if (!channel.empty()) continue;  // a head opens an empty VC only
        const auto flits = static_cast<std::uint32_t>(1 + random.nextBelow(5));
        packets[vc] = makePacket(nextId++, flits, random.nextBool(0.5) ? 32 : 256);
        remaining[vc] = flits;
      }
      const PacketHandle packet = packets[vc];
      bank.push(vc, makeFlit(packet, packet->numFlits - remaining[vc]), now);
      --remaining[vc];
      perVc[vc].flitsWritten += 1;
      perVc[vc].bitsWritten += packet->bitsPerFlit;
      arrivals[vc].push_back(now);
      perVc[vc].peakOccupancy =
          std::max<std::uint64_t>(perVc[vc].peakOccupancy, arrivals[vc].size());
    } else if (!channel.empty()) {
      const Bits bits = channel.front().bits();
      EXPECT_EQ(bank.frontArrival(vc), arrivals[vc].front());
      bank.pop(vc, now);
      perVc[vc].flitsRead += 1;
      perVc[vc].bitsRead += bits;
      perVc[vc].bitCyclesResident += bits * (now - arrivals[vc].front());
      arrivals[vc].erase(arrivals[vc].begin());
    }
  }
  expectMasksMatchScan();
  BufferStats expected;
  for (const BufferStats& stats : perVc) expected += stats;
  const BufferStats& actual = bank.aggregateStats();
  EXPECT_GT(expected.flitsRead, 1000u);
  EXPECT_EQ(actual.peakOccupancy, 3u);
  EXPECT_EQ(actual.flitsWritten, expected.flitsWritten);
  EXPECT_EQ(actual.flitsRead, expected.flitsRead);
  EXPECT_EQ(actual.bitsWritten, expected.bitsWritten);
  EXPECT_EQ(actual.bitsRead, expected.bitsRead);
  EXPECT_EQ(actual.bitCyclesResident, expected.bitCyclesResident);
  EXPECT_EQ(actual.peakOccupancy, expected.peakOccupancy);
  bank.reset();
  EXPECT_EQ(bank.aggregateStats().flitsWritten, 0u);
  EXPECT_EQ(bank.aggregateStats().peakOccupancy, 0u);
}

TEST(VcBufferBank, AcceptClaimsFollowsAndPopReleases) {
  // The wormhole ingress rule: a head claims and locks the lowest free VC,
  // its body follows it, a body whose head never arrived is refused, and
  // the tail's pop frees the VC for the next head.
  VcBufferBank bank(2, 4);
  const auto first = makePacket(20, 2);
  const auto second = makePacket(21, 2);
  const auto stray = makePacket(22, 3);
  EXPECT_FALSE(bank.canAccept(makeFlit(stray, 1)));
  ASSERT_TRUE(bank.canAccept(makeFlit(first, 0)));
  EXPECT_EQ(bank.accept(makeFlit(first, 0), 0), VcId{0});
  EXPECT_TRUE(bank.isLocked(0));
  bank.pop(0, 1);  // the head leaves ahead of its tail: VC 0 stays locked
  EXPECT_TRUE(bank.isLocked(0));
  EXPECT_EQ(bank.accept(makeFlit(second, 0), 1), VcId{1});
  ASSERT_TRUE(bank.canAccept(makeFlit(first, 1)));
  EXPECT_EQ(bank.accept(makeFlit(first, 1), 2), VcId{0});
  EXPECT_FALSE(bank.canAccept(makeFlit(stray, 0))) << "every VC is claimed";
  EXPECT_TRUE(bank.pop(0, 3).isTail());
  EXPECT_FALSE(bank.isLocked(0));
  EXPECT_FALSE(bank.canAccept(makeFlit(first, 1))) << "the tail closed the packet";
  ASSERT_TRUE(bank.canAccept(makeFlit(stray, 0)));
  EXPECT_EQ(bank.accept(makeFlit(stray, 0), 4), VcId{0});
  EXPECT_TRUE(bank.isLocked(1)) << "the second packet still holds VC 1";
}

TEST(BufferedPort, HeadAllocatesVcAndBodyFollows) {
  RecordingOwner owner;
  BufferedPort port(owner, 0, 2, 4);
  const auto packet = makePacket(7, 3);
  ASSERT_TRUE(port.canAccept(makeFlit(packet, 0)));
  port.accept(makeFlit(packet, 0), 0);
  port.accept(makeFlit(packet, 1), 1);
  port.accept(makeFlit(packet, 2), 2);
  // All flits of the packet must land in the same VC, in order.
  EXPECT_EQ(port.bank().vc(0).size(), 3u);
  EXPECT_EQ(port.bank().pop(0, 3).sequence, 0u);
  EXPECT_EQ(port.bank().pop(0, 3).sequence, 1u);
  EXPECT_EQ(port.bank().pop(0, 3).sequence, 2u);
}

TEST(BufferedPort, RejectsBodyWithoutHead) {
  RecordingOwner owner;
  BufferedPort port(owner, 0, 2, 4);
  const auto packet = makePacket(8, 3);
  EXPECT_FALSE(port.canAccept(makeFlit(packet, 1)));
}

TEST(BufferedPort, TailPopUnlocksVc) {
  RecordingOwner owner;
  BufferedPort port(owner, 0, 1, 4);
  const auto first = makePacket(1, 2);
  port.accept(makeFlit(first, 0), 0);
  port.accept(makeFlit(first, 1), 0);
  // Only one VC and it is locked: a second packet's head must be refused.
  const auto second = makePacket(2, 2);
  EXPECT_FALSE(port.canAccept(makeFlit(second, 0)));
  port.bank().pop(0, 1);
  EXPECT_FALSE(port.canAccept(makeFlit(second, 0)));  // tail not yet popped
  port.bank().pop(0, 1);
  EXPECT_TRUE(port.canAccept(makeFlit(second, 0)));
}

TEST(BufferedPort, TwoPacketsUseDistinctVcs) {
  RecordingOwner owner;
  BufferedPort port(owner, 0, 2, 4);
  const auto a = makePacket(1, 2);
  const auto b = makePacket(2, 2);
  port.accept(makeFlit(a, 0), 0);
  port.accept(makeFlit(b, 0), 0);
  port.accept(makeFlit(a, 1), 1);
  port.accept(makeFlit(b, 1), 1);
  EXPECT_EQ(port.bank().vc(0).front().packet().id, 1u);
  EXPECT_EQ(port.bank().vc(1).front().packet().id, 2u);
}

TEST(BufferedPort, ReportsEachAcceptedFlitsVcToItsOwner) {
  // The owner learns the VC every flit took (the electrical router records
  // a head's route under it), and nothing for a refused flit.
  RecordingOwner owner;
  BufferedPort port(owner, /*index=*/3, /*numVcs=*/2, /*depthFlits=*/4);
  const auto a = makePacket(1, 2);
  const auto b = makePacket(2, 2);
  port.accept(makeFlit(a, 0), 0);
  port.accept(makeFlit(b, 0), 0);
  port.accept(makeFlit(b, 1), 1);
  ASSERT_FALSE(port.canAccept(makeFlit(makePacket(3, 2), 0)));  // both VCs held
  port.accept(makeFlit(a, 1), 2);
  ASSERT_EQ(owner.reports.size(), 4u);
  const std::vector<std::pair<VcId, std::uint32_t>> expected = {
      {0, 0}, {1, 0}, {1, 1}, {0, 1}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(owner.reports[i].port, 3u) << i;
    EXPECT_EQ(owner.reports[i].vc, expected[i].first) << i;
    EXPECT_EQ(owner.reports[i].sequence, expected[i].second) << i;
  }
}

TEST(ClusterTopology, PaperConfiguration) {
  ClusterTopology topology;  // defaults: 64 cores, clusters of 4
  EXPECT_EQ(topology.numCores(), 64u);
  EXPECT_EQ(topology.numClusters(), 16u);
  EXPECT_EQ(topology.clusterOf(0), 0u);
  EXPECT_EQ(topology.clusterOf(63), 15u);
  EXPECT_EQ(topology.localIndex(5), 1u);
  EXPECT_EQ(topology.coreAt(15, 3), 63u);
  EXPECT_TRUE(topology.sameCluster(4, 7));
  EXPECT_FALSE(topology.sameCluster(3, 4));
}

TEST(ClusterTopology, CoresInClusterRoundTrip) {
  ClusterTopology topology(12, 3);
  const auto cores = topology.coresInCluster(2);
  ASSERT_EQ(cores.size(), 3u);
  for (const CoreId core : cores) EXPECT_EQ(topology.clusterOf(core), 2u);
}

TEST(ClusterTopology, RejectsInvalidGeometry) {
  EXPECT_THROW(ClusterTopology(10, 4), std::invalid_argument);
  EXPECT_THROW(ClusterTopology(0, 4), std::invalid_argument);
  EXPECT_THROW(ClusterTopology(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pnoc::noc
