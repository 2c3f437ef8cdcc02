// Wake-on-drain backpressure edges: a sink that blocks an upstream
// component wakes it exactly when capacity frees, so the upstream can park
// instead of polling — and an occupied-but-blocked electrical router
// actually parks and resumes losslessly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/link.hpp"
#include "noc/packet_slab.hpp"
#include "noc/router.hpp"
#include "sim/engine.hpp"

namespace pnoc::noc {
namespace {

PacketHandle makePacket(PacketId id, CoreId dst, std::uint32_t numFlits,
                        Bits bitsPerFlit = 32) {
  static PacketSlab slab;
  PacketDescriptor packet;
  packet.id = id;
  packet.dstCore = dst;
  packet.numFlits = numFlits;
  packet.bitsPerFlit = bitsPerFlit;
  return slab.intern(packet);
}

/// Downstream sink with controllable fullness.
class GateSink final : public FlitSink {
 public:
  bool canAccept(const Flit&) const override { return !blocked; }
  void accept(const Flit& flit, Cycle) override { flits.push_back(flit); }
  bool blocked = false;
  std::vector<Flit> flits;
};

/// Parkable component that records its activations.
class Waiter final : public sim::Clocked {
 public:
  void evaluate(Cycle cycle) override { activations.push_back(cycle); }
  void advance(Cycle) override {}
  std::string name() const override { return "waiter"; }
  bool quiescent() const override { return true; }  // parks unless woken
  std::vector<Cycle> activations;
};

TEST(WakeOnDrain, LinkWakesWaiterWhenSlotFrees) {
  GateSink sink;
  Link link("l", /*latency=*/1, 0.0, sink);
  Waiter waiter;
  sim::Engine engine;
  engine.add(link);
  engine.add(waiter);
  engine.step();  // both park (link empty, waiter always quiescent)
  EXPECT_EQ(engine.activeCount(), 0u);

  sink.blocked = true;
  const PacketHandle packet = makePacket(1, 0, 2);
  link.accept(makeFlit(packet, 0), engine.now());
  ASSERT_FALSE(link.canAccept(makeFlit(packet, 1)));  // capacity 1: now full
  EXPECT_TRUE(link.notifyOnDrain(waiter));
  const std::size_t before = waiter.activations.size();
  engine.run(3);  // head stalls against the blocked sink: no drain, no wake
  EXPECT_EQ(waiter.activations.size(), before);

  sink.blocked = false;
  engine.step();  // link delivers in advance() and frees the slot
  ASSERT_EQ(sink.flits.size(), 1u);
  const Cycle deliveredAt = engine.now() - 1;
  engine.step();  // the wake lands the cycle after the drain
  ASSERT_EQ(waiter.activations.size(), before + 1);
  EXPECT_EQ(waiter.activations.back(), deliveredAt + 1);

  // One-shot: a second drain without re-registration must not wake again.
  link.accept(makeFlit(packet, 1), engine.now());
  engine.run(3);
  EXPECT_EQ(sink.flits.size(), 2u);
  EXPECT_EQ(waiter.activations.size(), before + 1);
}

TEST(WakeOnDrain, BlockedRouterParksAndResumesWithoutLoss) {
  // router -> link(latency 1, capacity 1) -> gate sink.  With the sink
  // blocked the link fills, the router stalls with buffered flits and must
  // park; unblocking drains the link, whose slot-free wake resumes the
  // router until every flit is delivered.
  RouterConfig config;
  config.numPorts = 2;
  config.vcsPerPort = 2;
  config.vcDepthFlits = 8;
  config.pipelineLatency = 3;
  GateSink sink;
  ElectricalRouter router("r", config,
                          [](const PacketDescriptor&) -> std::uint32_t { return 1; });
  Link link("l", /*latency=*/1, 0.0, sink);
  router.connectOutput(0, link);  // unused
  router.connectOutput(1, link);
  sim::Engine engine;
  engine.add(router);
  engine.add(link);

  sink.blocked = true;
  const PacketHandle packet = makePacket(3, 1, 6);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(router.inputPort(0).canAccept(makeFlit(packet, i)));
    router.inputPort(0).accept(makeFlit(packet, i), engine.now());
  }
  engine.run(20);
  // Head moved into the link, then everything stalled: the router must be
  // parked even though it still buffers flits (the link keeps polling the
  // blocked sink and counts the stall).
  EXPECT_GT(router.occupancy(), 0u);
  EXPECT_TRUE(router.quiescent());
  EXPECT_EQ(engine.activeCount(), 1u);  // just the link
  EXPECT_TRUE(sink.flits.empty());

  sink.blocked = false;
  engine.run(30);  // drain wakes ripple: every flit must arrive, in order
  ASSERT_EQ(sink.flits.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(sink.flits[i].sequence, i);
  EXPECT_EQ(router.occupancy(), 0u);
  EXPECT_EQ(engine.activeCount(), 0u);  // everything back asleep
}

TEST(PacketVcMap, InsertFindErase) {
  const PacketHandle a = makePacket(7, 0, 2);
  const PacketHandle b = makePacket(9, 0, 2);
  PacketVcMap map;
  EXPECT_EQ(map.find(a), kNoVc);
  map.insert(a, 2);
  map.insert(b, 0);
  EXPECT_EQ(map.find(a), 2u);
  EXPECT_EQ(map.find(b), 0u);
  map.erase(a);
  EXPECT_EQ(map.find(a), kNoVc);
  EXPECT_EQ(map.find(b), 0u);
  map.clear();
  EXPECT_EQ(map.find(b), kNoVc);
}

TEST(VcBufferBank, TracksHeadFrontCount) {
  VcBufferBank bank(2, 4);
  EXPECT_EQ(bank.headFrontMask(), 0u);
  const PacketHandle packet = makePacket(4, 0, 3);
  bank.push(0, makeFlit(packet, 0), 0);  // head
  EXPECT_EQ(bank.headFrontMask(), 0b01u);
  bank.push(0, makeFlit(packet, 1), 0);  // body behind it
  EXPECT_EQ(bank.headFrontMask(), 0b01u);
  bank.pop(0, 1);  // head leaves: body at front
  EXPECT_EQ(bank.headFrontMask(), 0u);
  bank.pop(0, 2);
  bank.push(1, makeFlit(makePacket(5, 0, 1), 0), 3);  // single-flit head/tail
  EXPECT_EQ(bank.headFrontMask(), 0b10u);
  bank.reset();
  EXPECT_EQ(bank.headFrontMask(), 0u);
}

}  // namespace
}  // namespace pnoc::noc
