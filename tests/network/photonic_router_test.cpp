// Unit tests of the PhotonicRouter in isolation: a two-cluster rig with a
// stub channel policy, checking reservation flow control, serialization rate,
// receive-VC exhaustion (drop-and-retransmit) and ejection.
#include "network/photonic_router.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "network/channel_policy.hpp"
#include "noc/packet_slab.hpp"
#include "sim/engine.hpp"

namespace pnoc::network {
namespace {

/// Grants a fixed wavelength count to every pair.
class StubPolicy final : public ChannelPolicy {
 public:
  explicit StubPolicy(std::uint32_t lambdas) : lambdas_(lambdas) {}
  std::string name() const override { return "stub"; }
  std::uint32_t lambdasFor(ClusterId, ClusterId) const override { return lambdas_; }
  std::uint32_t maxReservationIdentifiers() const override { return lambdas_; }
  std::uint32_t numDataWaveguides() const override { return 1; }
  std::uint32_t lambdas_;
};

class CountingSink final : public noc::FlitSink {
 public:
  bool canAccept(const noc::Flit&) const override { return !blocked; }
  void accept(const noc::Flit& flit, Cycle now) override {
    flits.push_back(flit);
    lastArrival = now;
  }
  bool blocked = false;
  std::vector<noc::Flit> flits;
  Cycle lastArrival = 0;
};

PhotonicRouterConfig smallConfig(ClusterId cluster) {
  PhotonicRouterConfig config;
  config.cluster = cluster;
  config.clusterSize = 4;
  config.vcsPerPort = 2;  // small so exhaustion is easy to trigger
  config.vcDepthFlits = 8;
  config.flitBits = 32;
  config.packetFlits = 8;  // 256-bit packets for fast tests
  return config;
}

/// Descriptors live in a test-local slab so flit handles stay valid for the
/// whole test (as the network's per-run slab guarantees in production).
noc::PacketHandle interPacket(PacketId id, ClusterId srcCluster, CoreId dstCore) {
  static noc::PacketSlab slab;
  noc::PacketDescriptor packet;
  packet.id = id;
  packet.srcCluster = srcCluster;
  packet.dstCore = dstCore;
  packet.dstCluster = dstCore / 4;
  packet.numFlits = 8;
  packet.bitsPerFlit = 32;
  return slab.intern(packet);
}

class PhotonicRouterTest : public ::testing::Test {
 protected:
  PhotonicRouterTest()
      : policy(4),
        source("p0", smallConfig(0), policy),
        destination("p1", smallConfig(1), policy) {
    source.setPeers({&source, &destination});
    destination.setPeers({&source, &destination});
    for (std::uint32_t i = 0; i < 4; ++i) {
      source.connectEjection(i, sourceSinks[i]);
      destination.connectEjection(i, destinationSinks[i]);
    }
    engine.add(source);
    engine.add(destination);
  }

  void inject(noc::PacketHandle packet, std::uint32_t port = 0) {
    for (std::uint32_t i = 0; i < packet->numFlits; ++i) {
      const noc::Flit flit = noc::makeFlit(packet, i);
      ASSERT_TRUE(source.inputPort(port).canAccept(flit));
      source.inputPort(port).accept(flit, engine.now());
    }
  }

  StubPolicy policy;
  PhotonicRouter source;
  PhotonicRouter destination;
  CountingSink sourceSinks[4];
  CountingSink destinationSinks[4];
  sim::Engine engine;
};

TEST_F(PhotonicRouterTest, DeliversPacketToDestinationCoreSink) {
  inject(interPacket(1, 0, 6));  // cluster 1, local core 2
  engine.run(40);
  EXPECT_EQ(destinationSinks[2].flits.size(), 8u);
  EXPECT_EQ(destinationSinks[0].flits.size(), 0u);
  EXPECT_EQ(source.stats().packetsTransmitted, 1u);
  EXPECT_EQ(source.stats().bitsTransmitted, 256u);
}

TEST(PhotonicRouterWiring, UnwiredPeersAndEjectionSlotsAreNamed) {
  StubPolicy policy(4);
  PhotonicRouter router("p1", smallConfig(1), policy);
  CountingSink sink;
  const auto refusal = [&router]() -> std::string {
    try {
      router.validateWiring();
    } catch (const std::logic_error& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_EQ(refusal(), "p1: peer photonic routers are not wired");
  router.setPeers({&router, &router});
  for (const std::uint32_t core : {0u, 1u, 3u}) router.connectEjection(core, sink);
  EXPECT_EQ(refusal(), "p1: ejection slot 2 is not wired");
  router.connectEjection(2, sink);
  EXPECT_EQ(refusal(), "");
}

TEST_F(PhotonicRouterTest, SerializationMatchesChannelWidth) {
  // 4 lambdas * 5 bits/cycle = 20 bits/cycle; a 256-bit packet needs
  // ceil(256/20) = 13 streaming cycles plus reservation + propagation.
  inject(interPacket(1, 0, 4));
  engine.run(40);
  ASSERT_EQ(destinationSinks[0].flits.size(), 8u);
  EXPECT_GE(destinationSinks[0].lastArrival, 13u);
  EXPECT_LE(destinationSinks[0].lastArrival, 20u);
}

TEST_F(PhotonicRouterTest, WiderChannelIsFaster) {
  CountingSink narrowSink;
  Cycle narrowDone = 0;
  {
    inject(interPacket(1, 0, 4));
    engine.run(40);
    narrowDone = destinationSinks[0].lastArrival;
  }
  // Fresh rig with 8 lambdas.
  StubPolicy widePolicy(8);
  PhotonicRouter wideSource("w0", smallConfig(0), widePolicy);
  PhotonicRouter wideDestination("w1", smallConfig(1), widePolicy);
  wideSource.setPeers({&wideSource, &wideDestination});
  wideDestination.setPeers({&wideSource, &wideDestination});
  CountingSink wideSinks[4];
  for (std::uint32_t i = 0; i < 4; ++i) wideDestination.connectEjection(i, wideSinks[i]);
  for (std::uint32_t i = 0; i < 4; ++i) wideSource.connectEjection(i, narrowSink);
  sim::Engine wideEngine;
  wideEngine.add(wideSource);
  wideEngine.add(wideDestination);
  const auto packet = interPacket(1, 0, 4);
  for (std::uint32_t i = 0; i < packet->numFlits; ++i) {
    wideSource.inputPort(0).accept(noc::makeFlit(packet, i), 0);
  }
  wideEngine.run(40);
  ASSERT_EQ(wideSinks[0].flits.size(), 8u);
  EXPECT_LT(wideSinks[0].lastArrival, narrowDone);
}

TEST_F(PhotonicRouterTest, ReceiveVcExhaustionFailsReservation) {
  // Block ejection so receive VCs stay occupied; with 2 VCs the third packet
  // cannot reserve and the source counts failures (drop-and-retransmit).
  for (auto& sink : destinationSinks) sink.blocked = true;
  inject(interPacket(1, 0, 4), 0);
  inject(interPacket(2, 0, 5), 1);
  inject(interPacket(3, 0, 6), 2);
  engine.run(60);
  EXPECT_GT(source.stats().reservationFailures, 0u);
  EXPECT_EQ(source.stats().packetsTransmitted, 2u);
  // Unblock: the third packet goes through on retry.
  for (auto& sink : destinationSinks) sink.blocked = false;
  engine.run(60);
  EXPECT_EQ(source.stats().packetsTransmitted, 3u);
}

TEST_F(PhotonicRouterTest, OneTransmissionAtATimePerWriteChannel) {
  inject(interPacket(1, 0, 4), 0);
  inject(interPacket(2, 0, 5), 1);
  engine.run(14);  // enough for packet 1 (13 cycles) but not both
  const auto transmitted = source.stats().packetsTransmitted;
  EXPECT_LE(transmitted, 1u);
  engine.run(40);
  EXPECT_EQ(source.stats().packetsTransmitted, 2u);
}

TEST_F(PhotonicRouterTest, EjectionRoundRobinsAcrossConcurrentReceives) {
  // Two packets for the same destination core from different input ports:
  // both reserve receive VCs, ejection serves one flit per cycle.
  inject(interPacket(1, 0, 4), 0);
  inject(interPacket(2, 0, 4), 1);
  engine.run(80);
  EXPECT_EQ(destinationSinks[0].flits.size(), 16u);
}

/// Ejection sink with wake-on-drain support, like the production down links:
/// a stalled router may park and is re-woken when the sink frees up.
class NotifyingSink final : public noc::FlitSink {
 public:
  bool canAccept(const noc::Flit&) const override { return !blocked; }
  void accept(const noc::Flit& flit, Cycle) override { flits.push_back(flit); }
  bool notifyOnDrain(sim::Clocked& waiter) override {
    waiter_ = &waiter;
    return true;
  }
  void unblock() {
    blocked = false;
    if (waiter_ != nullptr) {
      waiter_->requestWake();
      waiter_ = nullptr;
    }
  }
  bool blocked = false;
  std::vector<noc::Flit> flits;

 private:
  sim::Clocked* waiter_ = nullptr;
};

/// A minimal two-router rig with drain-notifying ejection sinks, built per
/// test so a gated and a polled copy can run side by side.
struct Rig {
  explicit Rig(bool gating)
      : policy(4),
        source("p0", smallConfig(0), policy),
        destination("p1", smallConfig(1), policy),
        engine(gating) {
    source.setPeers({&source, &destination});
    destination.setPeers({&source, &destination});
    for (std::uint32_t i = 0; i < 4; ++i) destination.connectEjection(i, sinks[i]);
    engine.add(source);
    engine.add(destination);
  }
  void inject(noc::PacketHandle packet, std::uint32_t flits, std::uint32_t first = 0,
              std::uint32_t port = 0) {
    for (std::uint32_t i = first; i < first + flits; ++i) {
      source.inputPort(port).accept(noc::makeFlit(packet, i), engine.now());
    }
  }
  StubPolicy policy;
  PhotonicRouter source;
  PhotonicRouter destination;
  NotifyingSink sinks[4];
  sim::Engine engine;
};

bool statsEqual(const PhotonicRouterStats& a, const PhotonicRouterStats& b) {
  return a.reservationsIssued == b.reservationsIssued &&
         a.reservationFailures == b.reservationFailures &&
         a.packetsTransmitted == b.packetsTransmitted &&
         a.bitsTransmitted == b.bitsTransmitted &&
         a.transmitBusyCycles == b.transmitBusyCycles &&
         a.reservationCyclesSpent == b.reservationCyclesSpent;
}

TEST(PhotonicParking, FullDownLinkStallParksUntilDrainNotify) {
  // Every down link at the destination is blocked: after transmission the
  // received flits cannot eject.  With notifyOnDrain-capable sinks both
  // routers must park (zero engine work) until the sink wakes them.
  Rig rig(true);
  for (auto& sink : rig.sinks) sink.blocked = true;
  rig.inject(interPacket(40, 0, 4), 8);
  rig.engine.run(60);
  EXPECT_EQ(rig.sinks[0].flits.size(), 0u);
  EXPECT_TRUE(rig.source.quiescent());
  EXPECT_TRUE(rig.destination.quiescent());
  const std::uint64_t stepsBefore = rig.engine.stats().componentSteps;
  const PhotonicRouterStats frozen = rig.destination.stats();
  rig.engine.run(50);
  EXPECT_EQ(rig.engine.stats().componentSteps, stepsBefore)
      << "a fully stalled rig must burn no engine work";
  EXPECT_TRUE(statsEqual(rig.destination.stats(), frozen))
      << "blocked polled cycles touch no counters";
  rig.sinks[0].unblock();
  rig.engine.run(60);
  EXPECT_EQ(rig.sinks[0].flits.size(), 8u);
}

TEST(PhotonicParking, ReservationStormReplaysRetryStatsExactly) {
  // A reservation-failure storm: the destination's down links are blocked,
  // two packets fill both of its receive VCs, and a third keeps failing to
  // reserve until the links drain.  The gated source parks between retries;
  // its replayed issue/failure counts must match the poll-mode rig bit for
  // bit, and every packet must still arrive once the links are unblocked.
  Rig gated(true);
  Rig polled(false);
  for (Rig* rig : {&gated, &polled}) {
    for (auto& sink : rig->sinks) sink.blocked = true;
    for (std::uint32_t port = 0; port < 3; ++port) {
      rig->inject(interPacket(41 + port, 0, 4 + port), 8, 0, port);
    }
    rig->engine.run(150);
  }
  EXPECT_EQ(gated.source.stats().packetsTransmitted, 2u) << "both receive VCs filled";
  for (Rig* rig : {&gated, &polled}) {
    for (auto& sink : rig->sinks) sink.unblock();
    rig->engine.run(200);
    for (std::uint32_t core = 0; core < 3; ++core) {
      EXPECT_EQ(rig->sinks[core].flits.size(), 8u) << "core " << core;
    }
  }
  EXPECT_GT(gated.source.stats().reservationFailures, 20u) << "storm never happened";
  EXPECT_TRUE(statsEqual(gated.source.stats(), polled.source.stats()));
  EXPECT_TRUE(statsEqual(gated.destination.stats(), polled.destination.stats()));
  EXPECT_LT(gated.engine.stats().componentSteps, polled.engine.stats().componentSteps)
      << "the gated source should park through the storm, not poll it";
}

TEST(PhotonicParking, WormholeBubbleReplaysBusyCyclesExactly) {
  // Start an 8-flit transmission with only 2 flits buffered: the channel
  // drains ahead of the feeder and the transmission bubbles mid-packet.
  // The gated router parks through the bubble (burning replayed busy
  // cycles); topping up the ingress wakes it via the owner hook.
  Rig gated(true);
  Rig polled(false);
  const auto packet = interPacket(42, 0, 4);
  gated.inject(packet, 2);
  polled.inject(packet, 2);
  gated.engine.run(30);
  polled.engine.run(30);
  EXPECT_LT(gated.sinks[0].flits.size(), 8u) << "packet cannot finish on 2 flits";
  gated.inject(packet, 6, 2);
  polled.inject(packet, 6, 2);
  gated.engine.run(60);
  polled.engine.run(60);
  EXPECT_EQ(gated.sinks[0].flits.size(), 8u);
  EXPECT_EQ(polled.sinks[0].flits.size(), 8u);
  ASSERT_TRUE(statsEqual(gated.source.stats(), polled.source.stats()));
  // ~13 streaming cycles suffice for a 256-bit packet at 20 bits/cycle; the
  // bubble must have held the channel busy well beyond that.
  EXPECT_GT(gated.source.stats().transmitBusyCycles, 20u) << "no bubble occurred";
}

TEST_F(PhotonicRouterTest, ChargesPhotonicEnergyPerBit) {
  inject(interPacket(1, 0, 4));
  engine.run(40);
  // 256 data bits at 0.43 pJ/bit (launch+mod+tuning) plus the reservation
  // flit's bits.
  const double dataOnly = 256 * 0.43;
  EXPECT_GT(source.transferLedger().total(), dataOnly - 1e-9);
  EXPECT_LT(source.transferLedger().total(), dataOnly * 1.3);
}

}  // namespace
}  // namespace pnoc::network
