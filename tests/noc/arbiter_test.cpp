#include "noc/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

namespace pnoc::noc {
namespace {

std::uint32_t requests(std::initializer_list<int> indices, std::uint32_t size) {
  std::uint32_t mask = 0;
  for (const int i : indices) {
    EXPECT_LT(static_cast<std::uint32_t>(i), size);
    mask |= 1u << i;
  }
  return mask;
}

TEST(RoundRobinArbiter, NoRequestsNoGrant) {
  RoundRobinArbiter arbiter(4);
  EXPECT_EQ(arbiter.grant(requests({}, 4)), kNoGrant);
}

TEST(RoundRobinArbiter, SingleRequestWins) {
  RoundRobinArbiter arbiter(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(arbiter.grant(requests({i}, 4)), static_cast<std::uint32_t>(i));
  }
}

TEST(RoundRobinArbiter, GrantIsAlwaysARequester) {
  RoundRobinArbiter arbiter(5);
  const auto mask = requests({1, 3}, 5);
  for (int i = 0; i < 20; ++i) {
    const auto winner = arbiter.grant(mask);
    EXPECT_TRUE(winner == 1 || winner == 3);
  }
}

TEST(RoundRobinArbiter, StarvationFree) {
  // Under persistent full contention, every requester is granted within a
  // window of `size` grants.
  RoundRobinArbiter arbiter(4);
  const auto all = requests({0, 1, 2, 3}, 4);
  std::map<std::uint32_t, int> lastGranted;
  for (int round = 0; round < 40; ++round) {
    const auto winner = arbiter.grant(all);
    ASSERT_NE(winner, kNoGrant);
    lastGranted[winner] = round;
  }
  ASSERT_EQ(lastGranted.size(), 4u);
  for (const auto& [who, when] : lastGranted) EXPECT_GE(when, 36) << "requester " << who;
}

TEST(RoundRobinArbiter, FairShareUnderFullLoad) {
  RoundRobinArbiter arbiter(3);
  const auto all = requests({0, 1, 2}, 3);
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 300; ++i) ++counts[arbiter.grant(all)];
  for (const auto& [who, count] : counts) EXPECT_EQ(count, 100) << "requester " << who;
}

TEST(RoundRobinArbiter, RotatesPriorityPastWinner) {
  RoundRobinArbiter arbiter(3);
  EXPECT_EQ(arbiter.grant(requests({0, 2}, 3)), 0u);
  // Priority now starts at 1; index 2 beats 0.
  EXPECT_EQ(arbiter.grant(requests({0, 2}, 3)), 2u);
  EXPECT_EQ(arbiter.grant(requests({0, 2}, 3)), 0u);
}

// Reference model: the scan-based arbiter over std::vector<bool> that the
// bitmask implementation replaced.  The router's grants (and so every
// simulated number) depend on the mask version reproducing it exactly.
class ReferenceRoundRobin {
 public:
  explicit ReferenceRoundRobin(std::uint32_t size) : size_(size) {}
  std::uint32_t grant(const std::vector<bool>& requests) {
    for (std::uint32_t offset = 0; offset < size_; ++offset) {
      const std::uint32_t candidate = (next_ + offset) % size_;
      if (requests[candidate]) {
        next_ = (candidate + 1) % size_;
        return candidate;
      }
    }
    return kNoGrant;
  }

 private:
  std::uint32_t size_;
  std::uint32_t next_ = 0;
};

TEST(RoundRobinArbiter, MaskGrantsMatchTheScanReference) {
  std::mt19937_64 random(20261017);
  for (const std::uint32_t size : {1u, 2u, 3u, 5u, 16u, 31u, 32u}) {
    RoundRobinArbiter arbiter(size);
    ReferenceRoundRobin reference(size);
    for (int step = 0; step < 2000; ++step) {
      // Mix sparse, dense and empty request sets.
      std::uint32_t mask = static_cast<std::uint32_t>(random());
      if (step % 3 == 0) mask &= static_cast<std::uint32_t>(random());
      if (step % 7 == 0) mask = 0;
      if (size < 32) mask &= (1u << size) - 1;
      std::vector<bool> requests(size, false);
      for (std::uint32_t i = 0; i < size; ++i) requests[i] = ((mask >> i) & 1u) != 0;
      ASSERT_EQ(arbiter.grant(mask), reference.grant(requests))
          << "size " << size << " step " << step;
    }
    // reset() restores the initial priority.
    arbiter.reset();
    ReferenceRoundRobin fresh(size);
    const std::uint32_t all = size == 32 ? ~0u : (1u << size) - 1;
    for (std::uint32_t i = 0; i < size; ++i) {
      ASSERT_EQ(arbiter.grant(all), fresh.grant(std::vector<bool>(size, true)));
    }
  }
}

}  // namespace
}  // namespace pnoc::noc
