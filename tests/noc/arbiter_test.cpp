#include "noc/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
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

/// Both arbiter kinds must satisfy the same contract; run the shared suite
/// over each via a parameterized fixture.
class ArbiterContract : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Arbiter> make(std::uint32_t size) { return makeArbiter(GetParam(), size); }
};

TEST_P(ArbiterContract, NoRequestsNoGrant) {
  auto arbiter = make(4);
  EXPECT_EQ(arbiter->grant(requests({}, 4)), kNoGrant);
}

TEST_P(ArbiterContract, SingleRequestWins) {
  auto arbiter = make(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(arbiter->grant(requests({i}, 4)), static_cast<std::uint32_t>(i));
  }
}

TEST_P(ArbiterContract, GrantIsAlwaysARequester) {
  auto arbiter = make(5);
  const auto mask = requests({1, 3}, 5);
  for (int i = 0; i < 20; ++i) {
    const auto winner = arbiter->grant(mask);
    EXPECT_TRUE(winner == 1 || winner == 3);
  }
}

TEST_P(ArbiterContract, StarvationFree) {
  // Under persistent full contention, every requester is granted within a
  // window of `size` grants.
  auto arbiter = make(4);
  const auto all = requests({0, 1, 2, 3}, 4);
  std::map<std::uint32_t, int> lastGranted;
  for (int round = 0; round < 40; ++round) {
    const auto winner = arbiter->grant(all);
    ASSERT_NE(winner, kNoGrant);
    lastGranted[winner] = round;
  }
  ASSERT_EQ(lastGranted.size(), 4u);
  for (const auto& [who, when] : lastGranted) EXPECT_GE(when, 36) << "requester " << who;
}

TEST_P(ArbiterContract, FairShareUnderFullLoad) {
  auto arbiter = make(3);
  const auto all = requests({0, 1, 2}, 3);
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 300; ++i) ++counts[arbiter->grant(all)];
  for (const auto& [who, count] : counts) EXPECT_EQ(count, 100) << "requester " << who;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArbiterContract,
                         ::testing::Values("round-robin", "matrix"));

TEST(RoundRobinArbiter, RotatesPriorityPastWinner) {
  RoundRobinArbiter arbiter(3);
  EXPECT_EQ(arbiter.grant(requests({0, 2}, 3)), 0u);
  // Priority now starts at 1; index 2 beats 0.
  EXPECT_EQ(arbiter.grant(requests({0, 2}, 3)), 2u);
  EXPECT_EQ(arbiter.grant(requests({0, 2}, 3)), 0u);
}

TEST(MatrixArbiter, LeastRecentlyServedWins) {
  MatrixArbiter arbiter(3);
  EXPECT_EQ(arbiter.grant(requests({0, 1, 2}, 3)), 0u);
  EXPECT_EQ(arbiter.grant(requests({0, 1, 2}, 3)), 1u);
  EXPECT_EQ(arbiter.grant(requests({0, 1, 2}, 3)), 2u);
  // 0 was served longest ago among {0,1}.
  EXPECT_EQ(arbiter.grant(requests({0, 1}, 3)), 0u);
  // 2 was served after 1, so 1 wins.
  EXPECT_EQ(arbiter.grant(requests({1, 2}, 3)), 1u);
}

// Reference models: the scan-based arbiters over std::vector<bool> that the
// bitmask implementations replaced.  The router's grants (and so every
// simulated number) depend on the mask versions reproducing them exactly.
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

class ReferenceMatrix {
 public:
  explicit ReferenceMatrix(std::uint32_t size) : size_(size), matrix_(size * size, false) {
    for (std::uint32_t i = 0; i < size_; ++i) {
      for (std::uint32_t j = i + 1; j < size_; ++j) matrix_[i * size_ + j] = true;
    }
  }
  std::uint32_t grant(const std::vector<bool>& requests) {
    std::uint32_t winner = kNoGrant;
    for (std::uint32_t i = 0; i < size_ && winner == kNoGrant; ++i) {
      if (!requests[i]) continue;
      bool dominated = false;
      for (std::uint32_t j = 0; j < size_; ++j) {
        if (j != i && requests[j] && matrix_[j * size_ + i]) dominated = true;
      }
      if (!dominated) winner = i;
    }
    if (winner != kNoGrant) {
      for (std::uint32_t j = 0; j < size_; ++j) {
        matrix_[winner * size_ + j] = false;
        if (j != winner) matrix_[j * size_ + winner] = true;
      }
    }
    return winner;
  }

 private:
  std::uint32_t size_;
  std::vector<bool> matrix_;
};

template <typename Reference>
void expectMaskGrantsMatch(const char* kind) {
  std::mt19937_64 random(20261017);
  for (const std::uint32_t size : {1u, 2u, 3u, 5u, 16u, 31u, 32u}) {
    auto arbiter = makeArbiter(kind, size);
    Reference reference(size);
    for (int step = 0; step < 2000; ++step) {
      // Mix sparse, dense and empty request sets.
      std::uint32_t mask = static_cast<std::uint32_t>(random());
      if (step % 3 == 0) mask &= static_cast<std::uint32_t>(random());
      if (step % 7 == 0) mask = 0;
      if (size < 32) mask &= (1u << size) - 1;
      std::vector<bool> requests(size, false);
      for (std::uint32_t i = 0; i < size; ++i) requests[i] = ((mask >> i) & 1u) != 0;
      ASSERT_EQ(arbiter->grant(mask), reference.grant(requests))
          << kind << " size " << size << " step " << step;
    }
    // reset() restores the initial priorities.
    arbiter->reset();
    Reference fresh(size);
    const std::uint32_t all = size == 32 ? ~0u : (1u << size) - 1;
    for (std::uint32_t i = 0; i < size; ++i) {
      ASSERT_EQ(arbiter->grant(all), fresh.grant(std::vector<bool>(size, true)));
    }
  }
}

TEST(RoundRobinArbiter, MaskGrantsMatchTheScanReference) {
  expectMaskGrantsMatch<ReferenceRoundRobin>("round-robin");
}

TEST(MatrixArbiter, MaskGrantsMatchTheScanReference) {
  expectMaskGrantsMatch<ReferenceMatrix>("matrix");
}

TEST(ArbiterFactory, RejectsUnknownKind) {
  EXPECT_THROW(makeArbiter("random", 4), std::invalid_argument);
}

}  // namespace
}  // namespace pnoc::noc
