#include "sim/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace pnoc::sim {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> buffer(3);
  EXPECT_TRUE(buffer.empty());
  EXPECT_FALSE(buffer.full());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 3u);
  EXPECT_EQ(buffer.freeSlots(), 3u);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> buffer(4);
  for (int i = 1; i <= 4; ++i) buffer.push_back(i);
  EXPECT_TRUE(buffer.full());
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(buffer.front(), i);
    buffer.pop_front();
  }
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, WrapsAroundManyTimes) {
  // Interleaved push/pop crosses the wrap boundary repeatedly; FIFO order
  // and size accounting must survive it.
  RingBuffer<int> buffer(3);
  int next = 0;
  int expect = 0;
  buffer.push_back(next++);
  buffer.push_back(next++);
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(buffer.front(), expect++);
    buffer.pop_front();
    buffer.push_back(next++);
    EXPECT_EQ(buffer.size(), 2u);
  }
  EXPECT_EQ(buffer.front(), expect);
}

TEST(RingBuffer, AtIndexesFromFront) {
  RingBuffer<int> buffer(3);
  buffer.push_back(10);
  buffer.push_back(11);
  buffer.pop_front();
  buffer.push_back(12);  // storage now wraps
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.at(0), 11);
  EXPECT_EQ(buffer.at(1), 12);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> buffer(2);
  buffer.push_back(1);
  buffer.push_back(2);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  buffer.push_back(7);
  EXPECT_EQ(buffer.front(), 7);
}

TEST(RingBuffer, CapacityOne) {
  RingBuffer<int> buffer(1);
  for (int i = 0; i < 5; ++i) {
    buffer.push_back(i);
    EXPECT_TRUE(buffer.full());
    EXPECT_EQ(buffer.front(), i);
    buffer.pop_front();
    EXPECT_TRUE(buffer.empty());
  }
}

/// Element that counts its live instances, so a test can see how many slots
/// a ring has allocated without a test-only accessor: the ring's storage is
/// the only place instances outlive a push.
struct Counted {
  static inline std::int64_t live = 0;
  static inline std::int64_t defaultConstructed = 0;
  int value = -1;
  Counted() {
    ++live;
    ++defaultConstructed;
  }
  explicit Counted(int v) : value(v) { ++live; }
  Counted(const Counted& other) : value(other.value) { ++live; }
  Counted& operator=(const Counted&) = default;
  ~Counted() { --live; }
};

class RingBufferGrowth : public ::testing::Test {
 protected:
  void SetUp() override {
    Counted::live = 0;
    Counted::defaultConstructed = 0;
  }
};

TEST_F(RingBufferGrowth, NoStorageBeforeFirstPush) {
  RingBuffer<Counted> buffer(64);
  EXPECT_EQ(Counted::defaultConstructed, 0);
  EXPECT_EQ(Counted::live, 0);
  buffer.push_back(Counted(1));
  EXPECT_EQ(Counted::live, 4);  // first block: min(capacity, 4)
  EXPECT_EQ(buffer.front().value, 1);
}

TEST_F(RingBufferGrowth, NeverAllocatesMoreThanCapacity) {
  // 64 = 4, 8, 16, 32, 64; 10 = 4, 8, 10; 5 = 4, 5; 3 and 1 fit one block.
  for (const std::uint32_t capacity : {64u, 10u, 5u, 3u, 1u}) {
    {
      RingBuffer<Counted> buffer(capacity);
      for (std::uint32_t i = 0; i < capacity; ++i) {
        buffer.push_back(Counted(static_cast<int>(i)));
        EXPECT_LE(Counted::live, static_cast<std::int64_t>(capacity));
        EXPECT_GE(Counted::live, static_cast<std::int64_t>(buffer.size()));
      }
      EXPECT_EQ(Counted::live, static_cast<std::int64_t>(capacity));
      for (std::uint32_t i = 0; i < capacity; ++i) {
        EXPECT_EQ(buffer.at(i).value, static_cast<int>(i));
      }
    }
    EXPECT_EQ(Counted::live, 0) << "capacity " << capacity;
  }
}

TEST_F(RingBufferGrowth, BoundIsFixedAtEveryStage) {
  RingBuffer<Counted> buffer(10);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(buffer.capacity(), 10u);
    EXPECT_EQ(buffer.freeSlots(), 10u - i);
    EXPECT_FALSE(buffer.full()) << "after " << i << " pushes";
    buffer.push_back(Counted(static_cast<int>(i)));
  }
  EXPECT_TRUE(buffer.full());
  EXPECT_EQ(buffer.capacity(), 10u);
  EXPECT_EQ(buffer.freeSlots(), 0u);
}

TEST_F(RingBufferGrowth, FifoOrderSurvivesGrowthWhileWrapped) {
  // Fill the 4-slot first block, pop two and push two so the live run
  // wraps (head at slot 2), then push once more: the growth must copy the
  // elements front-first, not in storage order.
  RingBuffer<Counted> buffer(64);
  for (int i = 0; i < 4; ++i) buffer.push_back(Counted(i));
  buffer.pop_front();
  buffer.pop_front();
  buffer.push_back(Counted(4));
  buffer.push_back(Counted(5));
  ASSERT_EQ(Counted::live, 4);  // still the first block, now wrapped
  buffer.push_back(Counted(6));
  EXPECT_EQ(Counted::live, 8);  // grown
  ASSERT_EQ(buffer.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(buffer.at(i).value, static_cast<int>(i) + 2);
  for (int expect = 2; expect <= 6; ++expect) {
    EXPECT_EQ(buffer.front().value, expect);
    buffer.pop_front();
  }
  EXPECT_TRUE(buffer.empty());
}

TEST_F(RingBufferGrowth, InterleavedTrafficAcrossEveryGrowth) {
  // Keep the occupancy rising by one every two pushes so each growth lands
  // at a different head offset; FIFO order must hold throughout.
  RingBuffer<Counted> buffer(37);
  int next = 0;
  int expect = 0;
  while (!buffer.full()) {
    buffer.push_back(Counted(next++));
    if (buffer.full()) break;
    buffer.push_back(Counted(next++));
    EXPECT_EQ(buffer.front().value, expect++);
    buffer.pop_front();
  }
  EXPECT_EQ(Counted::live, 37);
  for (std::uint32_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer.at(i).value, expect + static_cast<int>(i));
  }
}

TEST_F(RingBufferGrowth, ClearKeepsStorageForRefill) {
  RingBuffer<Counted> buffer(16);
  for (int i = 0; i < 16; ++i) buffer.push_back(Counted(i));
  const std::int64_t grown = Counted::defaultConstructed;
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.freeSlots(), 16u);
  EXPECT_EQ(Counted::live, 16);  // storage kept
  for (int i = 100; i < 116; ++i) buffer.push_back(Counted(i));
  EXPECT_EQ(Counted::defaultConstructed, grown);  // refill allocated nothing
  EXPECT_EQ(Counted::live, 16);
  for (int expect = 100; expect < 116; ++expect) {
    EXPECT_EQ(buffer.front().value, expect);
    buffer.pop_front();
  }
}

TEST_F(RingBufferGrowth, NonPowerOfTwoCapacityWrapsAtTheBound) {
  // Capacity 5 grows 4 -> 5; then the ring must wrap at 5, not 8.
  RingBuffer<Counted> buffer(5);
  int next = 0;
  int expect = 0;
  for (int i = 0; i < 5; ++i) buffer.push_back(Counted(next++));
  EXPECT_TRUE(buffer.full());
  EXPECT_EQ(Counted::live, 5);
  for (int round = 0; round < 23; ++round) {
    EXPECT_EQ(buffer.front().value, expect++);
    buffer.pop_front();
    buffer.push_back(Counted(next++));
    EXPECT_TRUE(buffer.full());
  }
  EXPECT_EQ(Counted::live, 5);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(buffer.at(i).value, expect + static_cast<int>(i));
}

}  // namespace
}  // namespace pnoc::sim
