#include "noc/router.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "noc/link.hpp"
#include "noc/packet_slab.hpp"
#include "sim/engine.hpp"

namespace pnoc::noc {
namespace {

/// Descriptors live in a test-local slab so flit handles stay valid for the
/// whole test (as the network's per-run slab guarantees in production).
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

/// Test sink that records accepted flits and can simulate fullness.
class RecordingSink final : public FlitSink {
 public:
  bool canAccept(const Flit&) const override { return !blocked; }
  void accept(const Flit& flit, Cycle now) override {
    flits.push_back(flit);
    arrivals.push_back(now);
  }
  bool blocked = false;
  std::vector<Flit> flits;
  std::vector<Cycle> arrivals;
};

RouterConfig smallConfig() {
  RouterConfig config;
  config.numPorts = 3;
  config.vcsPerPort = 2;
  config.vcDepthFlits = 8;
  config.pipelineLatency = 3;
  return config;
}

class RouterTest : public ::testing::Test {
 protected:
  /// Routes by destination core id modulo port count (test-only
  /// convention), counting the calls per packet.
  RouterTest()
      : router("r", smallConfig(), [this](const PacketDescriptor& packet) -> std::uint32_t {
          ++routeCalls[packet.id];
          return packet.dstCore % 3;
        }) {
    for (std::uint32_t p = 0; p < 3; ++p) router.connectOutput(p, sinks[p]);
    engine.add(router);
  }

  void injectPacket(std::uint32_t port, PacketHandle packet) {
    for (std::uint32_t i = 0; i < packet->numFlits; ++i) {
      const Flit flit = makeFlit(packet, i);
      ASSERT_TRUE(router.inputPort(port).canAccept(flit));
      router.inputPort(port).accept(flit, engine.now());
    }
  }

  std::map<PacketId, int> routeCalls;
  sim::Engine engine;
  ElectricalRouter router;
  RecordingSink sinks[3];
};

TEST_F(RouterTest, DeliversWholePacketInOrder) {
  injectPacket(0, makePacket(1, 1, 4));  // dst 1 -> output port 1
  engine.run(12);
  ASSERT_EQ(sinks[1].flits.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(sinks[1].flits[i].sequence, i);
  EXPECT_TRUE(sinks[0].flits.empty());
  EXPECT_TRUE(sinks[2].flits.empty());
}

TEST_F(RouterTest, RespectsPipelineLatency) {
  injectPacket(0, makePacket(1, 1, 1));
  engine.run(12);
  ASSERT_EQ(sinks[1].flits.size(), 1u);
  // 3-stage pipeline: a flit accepted at cycle 0 leaves at cycle 2 earliest.
  EXPECT_GE(sinks[1].arrivals[0], 2u);
}

TEST_F(RouterTest, OneFlitPerOutputPerCycle) {
  injectPacket(0, makePacket(1, 1, 6));
  engine.run(20);
  ASSERT_EQ(sinks[1].flits.size(), 6u);
  for (std::size_t i = 1; i < sinks[1].arrivals.size(); ++i) {
    EXPECT_GT(sinks[1].arrivals[i], sinks[1].arrivals[i - 1]);
  }
}

TEST_F(RouterTest, WormholeDoesNotInterleavePacketsOnOneOutput) {
  injectPacket(0, makePacket(1, 1, 4));
  injectPacket(1, makePacket(2, 1, 4));  // same output port 1
  engine.run(30);
  ASSERT_EQ(sinks[1].flits.size(), 8u);
  // Once a packet's head goes through, all its flits precede the other's.
  const PacketId first = sinks[1].flits[0].packet().id;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sinks[1].flits[i].packet().id, first);
  const PacketId second = sinks[1].flits[4].packet().id;
  EXPECT_NE(first, second);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(sinks[1].flits[i].packet().id, second);
}

TEST_F(RouterTest, DistinctOutputsFlowInParallel) {
  injectPacket(0, makePacket(1, 0, 4));  // -> output 0
  injectPacket(1, makePacket(2, 1, 4));  // -> output 1
  engine.run(10);
  EXPECT_EQ(sinks[0].flits.size(), 4u);
  EXPECT_EQ(sinks[1].flits.size(), 4u);
}

TEST_F(RouterTest, BlockedSinkBackpressures) {
  sinks[1].blocked = true;
  injectPacket(0, makePacket(1, 1, 2));
  engine.run(10);
  EXPECT_TRUE(sinks[1].flits.empty());
  EXPECT_EQ(router.occupancy(), 2u);
  sinks[1].blocked = false;
  engine.run(10);
  EXPECT_EQ(sinks[1].flits.size(), 2u);
  EXPECT_EQ(router.occupancy(), 0u);
}

TEST_F(RouterTest, HeadRefusedWhenAllVcsBusy) {
  // Two VCs per port: two in-flight packets exhaust them.
  sinks[1].blocked = true;
  injectPacket(0, makePacket(1, 1, 2));
  injectPacket(0, makePacket(2, 1, 2));
  const Flit head = makeFlit(makePacket(3, 1, 2), 0);
  EXPECT_FALSE(router.inputPort(0).canAccept(head));
}

TEST_F(RouterTest, BodyWithoutHeadRefused) {
  const Flit body = makeFlit(makePacket(9, 1, 3), 1);
  EXPECT_FALSE(router.inputPort(0).canAccept(body));
}

TEST_F(RouterTest, EnergyChargedPerBit) {
  injectPacket(0, makePacket(1, 1, 4, 32));
  engine.run(12);
  EXPECT_EQ(router.stats().bitsRouted, 128u);
  EXPECT_DOUBLE_EQ(router.stats().energyPj, 128 * 0.625);
}

TEST_F(RouterTest, RoutesEachPacketOnce) {
  // Heads wait at their VC fronts for many cycles — behind a blocked sink,
  // then behind each other on one output — yet each packet is routed once,
  // when its head is accepted.
  sinks[1].blocked = true;
  injectPacket(0, makePacket(21, 1, 3));
  injectPacket(1, makePacket(22, 1, 2));
  injectPacket(2, makePacket(23, 4, 1));  // -> output 1
  injectPacket(0, makePacket(24, 2, 2));  // -> output 2, free
  engine.run(15);
  sinks[1].blocked = false;
  engine.run(30);
  EXPECT_EQ(sinks[1].flits.size(), 6u);
  EXPECT_EQ(sinks[2].flits.size(), 2u);
  EXPECT_EQ(router.occupancy(), 0u);
  ASSERT_EQ(routeCalls.size(), 4u);
  for (const auto& [packet, calls] : routeCalls) EXPECT_EQ(calls, 1) << "packet " << packet;
}

TEST(RouterInputPort, LinkFeedsHeadRoutingAndBodyFollow) {
  // link -> router.inputPort(1), as the network wires every router input.
  // Each head is routed once, when the port reports the VC it claimed; the
  // body and tail follow it to the same output, in order.
  std::map<PacketId, int> routeCalls;
  ElectricalRouter router("r", smallConfig(),
                          [&routeCalls](const PacketDescriptor& packet) -> std::uint32_t {
                            ++routeCalls[packet.id];
                            return packet.dstCore % 3;
                          });
  RecordingSink sinks[3];
  for (std::uint32_t p = 0; p < 3; ++p) router.connectOutput(p, sinks[p]);
  Link link("l", /*latency=*/1, 0.0, router.inputPort(1));
  sim::Engine engine;
  engine.add(router);
  engine.add(link);

  const PacketHandle first = makePacket(41, 2, 4);   // -> output 2
  const PacketHandle second = makePacket(42, 3, 3);  // -> output 0
  std::vector<Flit> feed;
  for (std::uint32_t i = 0; i < 4; ++i) feed.push_back(makeFlit(first, i));
  for (std::uint32_t i = 0; i < 3; ++i) feed.push_back(makeFlit(second, i));
  std::size_t next = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    if (next < feed.size() && link.canAccept(feed[next])) {
      link.accept(feed[next++], engine.now());
    }
    engine.step();
  }

  ASSERT_EQ(next, feed.size());
  EXPECT_EQ(link.stats().flitsDelivered, 7u);
  ASSERT_EQ(sinks[2].flits.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sinks[2].flits[i].handle, first) << i;
    EXPECT_EQ(sinks[2].flits[i].sequence, i) << i;
  }
  ASSERT_EQ(sinks[0].flits.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sinks[0].flits[i].handle, second) << i;
    EXPECT_EQ(sinks[0].flits[i].sequence, i) << i;
  }
  EXPECT_TRUE(sinks[1].flits.empty());
  EXPECT_EQ(routeCalls[41], 1);
  EXPECT_EQ(routeCalls[42], 1);
  EXPECT_EQ(router.occupancy(), 0u);
}

TEST(RouterWiring, UnwiredOutputIsNamed) {
  ElectricalRouter router("r7", smallConfig(),
                          [](const PacketDescriptor&) -> std::uint32_t { return 0; });
  RecordingSink sink;
  router.connectOutput(0, sink);
  router.connectOutput(2, sink);
  try {
    router.validateWiring();
    FAIL() << "an unwired output must be refused";
  } catch (const std::logic_error& error) {
    EXPECT_STREQ(error.what(), "r7: output port 1 is not wired");
  }
  router.connectOutput(1, sink);
  EXPECT_NO_THROW(router.validateWiring());
}

TEST(Link, DeliversAfterLatency) {
  RecordingSink sink;
  Link link("l", 3, 0.1, sink);
  sim::Engine engine;
  engine.add(link);
  const Flit flit = makeFlit(makePacket(1, 0, 1), 0);
  ASSERT_TRUE(link.canAccept(flit));
  link.accept(flit, 0);
  engine.run(3);  // cycles 0..2: still traversing the wire
  EXPECT_TRUE(sink.flits.empty());
  engine.run(1);
  ASSERT_EQ(sink.flits.size(), 1u);
  EXPECT_EQ(sink.arrivals[0], 3u);  // accepted during cycle 0, arrives at 0+3
}

TEST(Link, BackpressureStallsWithoutLoss) {
  RecordingSink sink;
  sink.blocked = true;
  Link link("l", 1, 0.1, sink);
  sim::Engine engine;
  engine.add(link);
  const auto packet = makePacket(1, 0, 2);
  link.accept(makeFlit(packet, 0), 0);
  EXPECT_FALSE(link.canAccept(makeFlit(packet, 1)));  // pipe full (capacity 1)
  engine.run(5);
  EXPECT_TRUE(sink.flits.empty());
  EXPECT_GT(link.stats().stallCycles, 0u);
  sink.blocked = false;
  engine.run(2);
  EXPECT_EQ(sink.flits.size(), 1u);
}

TEST(Link, CountsEnergyPerBit) {
  RecordingSink sink;
  Link link("l", 1, 0.5, sink);
  sim::Engine engine;
  engine.add(link);
  link.accept(makeFlit(makePacket(1, 0, 1, 100), 0), 0);
  engine.run(3);
  EXPECT_DOUBLE_EQ(link.stats().energyPj, 50.0);
  EXPECT_EQ(link.stats().bitsDelivered, 100u);
}

TEST(Link, RouterStreamIntoLinkDeliversLatencyOverLatencyPlusOne) {
  // router -> link(latency L) -> sink, one 32-flit packet buffered up front.
  // A link slot freed by a delivery in cycle t is only seen by the router
  // in cycle t+1, so the stream delivers L flits every L+1 cycles, not one
  // flit per cycle.  This pins the current rate; changing it changes every
  // simulated number.
  for (const std::uint32_t latency : {1u, 2u, 3u, 4u}) {
    RouterConfig config;
    config.numPorts = 2;
    config.vcsPerPort = 2;
    config.vcDepthFlits = 32;
    config.pipelineLatency = 3;
    ElectricalRouter router("r", config,
                            [](const PacketDescriptor&) -> std::uint32_t { return 1; });
    RecordingSink sink;
    Link link("l", latency, 0.0, sink);
    router.connectOutput(0, link);
    router.connectOutput(1, link);
    sim::Engine engine;
    engine.add(router);
    engine.add(link);
    const PacketHandle packet = makePacket(30 + latency, 1, 32);
    for (std::uint32_t i = 0; i < 32; ++i) router.inputPort(0).accept(makeFlit(packet, i), 0);
    engine.run(100);
    const std::vector<Cycle>& at = sink.arrivals;
    ASSERT_EQ(at.size(), 32u) << "latency " << latency;
    // The head leaves the router pipeline at cycle 2 and crosses the link.
    EXPECT_EQ(at[0], 2u + latency) << "latency " << latency;
    for (std::size_t i = latency; i < at.size(); ++i) {
      EXPECT_EQ(at[i] - at[i - latency], latency + 1) << "latency " << latency << " flit " << i;
    }
    if (latency == 1) {
      EXPECT_EQ(at[31] - at[0], 62u);  // 0.5 flit per cycle
    }
    if (latency == 2) {
      EXPECT_EQ(at[15] - at[0], 22u);  // 15 more flits in 22 cycles
    }
  }
}

}  // namespace
}  // namespace pnoc::noc
