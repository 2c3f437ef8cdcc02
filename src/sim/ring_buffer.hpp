// Bounded ring buffer: the simulator's FIFO workhorse.
//
// Link pipes, virtual channels and injection queues all have capacities that
// are known at construction (link latency, VC depth, queue size), so a
// std::deque's chunked heap allocation is pure overhead on the hot path.
// Push and pop are an index bump each — no pointer chasing, cache-friendly
// iteration.
//
// Storage grows on demand up to that fixed capacity.  The paper's routers
// carry 16 VCs x 64 flits per port, but traffic fills little of it (a new
// packet takes the lowest free VC), so most rings would never touch storage
// allocated at full depth.  A ring starts with no storage; a push that
// finds the allocated block full grows it to min(capacity, 4) slots and
// then doubles it up to capacity.
// Storage never shrinks and clear() keeps it, so a network reset reuses what
// earlier episodes grew.  capacity(), full() and freeSlots() always report
// the constructor's bound: growth is invisible to flow control.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

namespace pnoc::sim {

/// Bounded FIFO over storage that grows on demand.  T must be default
/// constructible and move-assignable.  Overflow/underflow are programming
/// errors (asserted), as with the flow-control preconditions elsewhere in
/// the simulator.  A push may reallocate, so it invalidates references
/// returned by front() and at(): copy an element out before the next push.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::uint32_t capacity) : capacity_(capacity) {
    assert(capacity > 0 && "a ring buffer needs at least one slot");
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  std::uint32_t size() const { return size_; }
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t freeSlots() const { return capacity_ - size_; }

  void push_back(const T& value) {
    assert(!full());
    if (size_ == allocated_) [[unlikely]] grow();
    data_[wrap(head_ + size_)] = value;
    ++size_;
  }

  T& front() {
    assert(!empty());
    return data_[head_];
  }
  const T& front() const {
    assert(!empty());
    return data_[head_];
  }

  void pop_front() {
    assert(!empty());
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// i-th element from the front (0 == front()); bounds asserted.
  const T& at(std::uint32_t i) const {
    assert(i < size_);
    return data_[wrap(head_ + i)];
  }

  /// Empties the buffer; the storage grown so far is kept for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kFirstBlock = 4;

  std::uint32_t wrap(std::uint32_t index) const {
    return index >= allocated_ ? index - allocated_ : index;
  }

  /// Moves the live elements, front first, into a block twice the size
  /// (the first block is kFirstBlock), clamped to capacity_.
  void grow() {
    const std::uint32_t next = std::min(capacity_, std::max(kFirstBlock, 2 * allocated_));
    auto block = std::make_unique_for_overwrite<T[]>(next);
    for (std::uint32_t i = 0; i < size_; ++i) block[i] = std::move(data_[wrap(head_ + i)]);
    data_ = std::move(block);
    allocated_ = next;
    head_ = 0;
  }

  std::unique_ptr<T[]> data_;
  std::uint32_t capacity_;
  std::uint32_t allocated_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace pnoc::sim
