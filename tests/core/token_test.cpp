#include "core/token.hpp"

#include <gtest/gtest.h>

#include "core/reservation.hpp"
#include "sim/clock.hpp"

namespace pnoc::core {
namespace {

TEST(Token, SizeMatchesEquationOne) {
  // N_TW = NW * lambda_W - N_lambdaR: 64 total - 16 reserved = 48 for set 1.
  Token token(64, 16);
  EXPECT_EQ(token.sizeBits(), 48u);
  EXPECT_EQ(token.freeCount(), 48u);
  Token token3(512, 16);
  EXPECT_EQ(token3.sizeBits(), 496u);
}

TEST(Token, AllocateFreeRoundTrip) {
  Token token(64, 16);
  token.markAllocated(5);
  EXPECT_TRUE(token.isAllocated(5));
  EXPECT_EQ(token.freeCount(), 47u);
  token.markFree(5);
  EXPECT_FALSE(token.isAllocated(5));
  EXPECT_EQ(token.freeCount(), 48u);
}

TEST(Token, FlatIndexMappingSkipsReserved) {
  Token token(64, 16);
  EXPECT_EQ(token.flatIndexFor(0), 16u);
  EXPECT_EQ(token.flatIndexFor(47), 63u);
  EXPECT_EQ(token.tokenBitFor(16), 0u);
  EXPECT_EQ(token.tokenBitFor(63), 47u);
}

TEST(Token, TokenBitForInvertsFlatIndexFor) {
  Token token(512, 16);  // set-3 geometry: bits span eight waveguides
  for (std::uint32_t bit = 0; bit < token.sizeBits(); ++bit) {
    EXPECT_EQ(token.tokenBitFor(token.flatIndexFor(bit)), bit);
  }
  EXPECT_EQ(token.flatIndexFor(token.sizeBits() - 1), token.totalWavelengths() - 1);
}

TEST(Token, ClearFreesEveryBit) {
  Token token(256, 16);
  for (std::uint32_t bit = 0; bit < token.sizeBits(); bit += 3) token.markAllocated(bit);
  EXPECT_EQ(token.freeCount(), token.sizeBits() - 80u);
  token.clear();
  EXPECT_EQ(token.freeCount(), token.sizeBits());
  for (std::uint32_t bit = 0; bit < token.sizeBits(); ++bit) {
    EXPECT_FALSE(token.isAllocated(bit)) << "bit " << bit;
  }
}

TEST(TokenHop, MatchesEquationTwoTimings) {
  // eq. (2): T_L = N_TW / (lambda_W * B).  The control waveguide moves
  // 64 lambda * 5 bits/cycle = 320 bits per cycle at 2.5 GHz.
  const sim::Clock clock;
  // Set 1: 48 bits -> 60 ps -> 1 cycle.
  EXPECT_EQ(tokenHopCycles(48, 64, clock), 1u);
  // Set 2: 240 bits -> < 1 cycle -> 1 cycle.
  EXPECT_EQ(tokenHopCycles(240, 64, clock), 1u);
  // Set 3: 496 bits -> 620 ps -> 2 cycles.
  EXPECT_EQ(tokenHopCycles(496, 64, clock), 2u);
  // Exactly one channel-cycle of bits stays a single cycle.
  EXPECT_EQ(tokenHopCycles(320, 64, clock), 1u);
  EXPECT_EQ(tokenHopCycles(321, 64, clock), 2u);
}

class CountingClient final : public TokenClient {
 public:
  void onToken(Token&, Cycle now) override {
    ++visits;
    lastVisit = now;
  }
  int visits = 0;
  Cycle lastVisit = 0;
};

TEST(TokenRing, VisitsClientsRoundRobinWithHopLatency) {
  TokenRing ring(Token(64, 16), /*hopLatency=*/2);
  CountingClient a;
  CountingClient b;
  CountingClient c;
  ring.addClient(a);
  ring.addClient(b);
  ring.addClient(c);
  sim::Engine engine;
  engine.add(ring);
  engine.run(12);
  // Arrivals at cycles 0,2,4,6,8,10: a,b,c,a,b,c.
  EXPECT_EQ(a.visits, 2);
  EXPECT_EQ(b.visits, 2);
  EXPECT_EQ(c.visits, 2);
  EXPECT_EQ(ring.rotations(), 2u);
}

TEST(TokenRing, WorstCaseRepossessionIsHopTimesClients) {
  // Section 3.2.1: worst case T_L * N_PR.  With 4 clients and 2-cycle hops a
  // client sees the token every 8 cycles.
  TokenRing ring(Token(64, 16), 2);
  CountingClient clients[4];
  for (auto& client : clients) ring.addClient(client);
  sim::Engine engine;
  engine.add(ring);
  engine.run(1);
  EXPECT_EQ(clients[0].visits, 1);
  engine.run(7);  // cycles 1..7: token at b, c, d
  EXPECT_EQ(clients[0].visits, 1);
  engine.run(1);  // cycle 8: back at a
  EXPECT_EQ(clients[0].visits, 2);
}

TEST(ReservationTiming, IdentifierPayloadBits) {
  // 8 ids * 6 bits = 48 (set 1, single waveguide).
  EXPECT_EQ(identifierPayloadBits(8, 1), 48u);
  // 64 ids * 9 bits = 576 (set 3, 8 waveguides).
  EXPECT_EQ(identifierPayloadBits(64, 8), 576u);
}

TEST(ReservationTiming, MatchesSection3411) {
  const sim::Clock clock;
  // Firefly carries no identifiers: always 1 cycle.
  EXPECT_EQ(reservationCycles(0, 1, 64, clock), 1u);
  EXPECT_EQ(reservationCycles(0, 8, 64, clock), 1u);
  // BW set 1: 48 bits over 320 bits/cycle -> 60 ps -> 1 cycle.
  EXPECT_EQ(reservationCycles(8, 1, 64, clock), 1u);
  // BW set 3: 576 bits -> 720 ps -> 2 cycles.
  EXPECT_EQ(reservationCycles(64, 8, 64, clock), 2u);
  // BW set 2: 32 ids * 8 bits = 256 bits -> 1 cycle.
  EXPECT_EQ(reservationCycles(32, 4, 64, clock), 1u);
}

}  // namespace
}  // namespace pnoc::core
