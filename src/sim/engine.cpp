#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace pnoc::sim {

namespace {

using Phase = obs::CycleProfiler::Phase;
using ProfClock = std::chrono::steady_clock;

std::uint64_t elapsedNs(ProfClock::time_point from, ProfClock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// Observer of an unprofiled run: every hook is empty, so
// stepWith<NullObserver> compiles down to the bare step loop.
struct NullObserver {
  void step(std::uint32_t /*slot*/) {}
  void endPhase(Phase /*phase*/) {}
  void endCycle() {}
};

// Observer of a profiled run: charges each phase's wall time to its phase
// bucket and each run of consecutive same-kind component steps to that kind.
// A run ends when the kind changes or the phase ends.  Registration order
// groups kinds, so runs are long and the clock is read a handful of times
// per cycle, not once per component.
class ProfileObserver {
 public:
  ProfileObserver(obs::CycleProfiler& profiler,
                  const std::vector<obs::ComponentKind>& kinds)
      : profiler_(profiler), kinds_(kinds), phaseStart_(ProfClock::now()),
        runStart_(phaseStart_) {}

  void step(std::uint32_t slot) {
    const obs::ComponentKind kind = kinds_[slot];
    if (runLen_ > 0 && kind != runKind_) flushRun(ProfClock::now());
    runKind_ = kind;
    ++runLen_;
  }

  void endPhase(Phase phase) {
    const ProfClock::time_point now = ProfClock::now();
    flushRun(now);
    profiler_.addPhase(phase, elapsedNs(phaseStart_, now));
    phaseStart_ = now;
  }

  void endCycle() { profiler_.addCycle(); }

 private:
  void flushRun(ProfClock::time_point now) {
    if (runLen_ > 0) profiler_.addKind(runKind_, elapsedNs(runStart_, now), runLen_);
    runStart_ = now;
    runLen_ = 0;
  }

  obs::CycleProfiler& profiler_;
  const std::vector<obs::ComponentKind>& kinds_;  // parallel to components_
  ProfClock::time_point phaseStart_;
  ProfClock::time_point runStart_;
  obs::ComponentKind runKind_ = obs::ComponentKind::kOther;
  std::uint64_t runLen_ = 0;
};

}  // namespace

void Engine::add(Clocked& component) {
  component.engine_ = this;
  component.slot_ = static_cast<std::uint32_t>(components_.size());
  components_.push_back(&component);
  kinds_.push_back(component.profileKind());
  active_.push_back(1);
  lastWakeCycle_.push_back(kNoCycle);
  activeSlots_.push_back(component.slot_);  // slots ascend, so stays sorted
}

void Engine::reset() {
  now_ = 0;
  wakeQueue_.clear();
  // Everything starts active, exactly as after the add() calls; with gating
  // on, the quiescent components park again at the end of the first cycle.
  activeSlots_.clear();
  for (std::uint32_t slot = 0; slot < components_.size(); ++slot) {
    active_[slot] = 1;
    lastWakeCycle_[slot] = kNoCycle;
    activeSlots_.push_back(slot);
  }
  timers_.clear();
  joiners_.clear();
  joinerNext_ = 0;
  nextJoiner_ = kNoJoiner;
  advancing_ = false;
  stats_ = EngineStats{};
  if (profiler_ != nullptr) profiler_->reset();
}

void Engine::scheduleAt(std::uint32_t slot, Cycle cycle) {
  // A timer fires at the start of its cycle; anything due now or earlier can
  // only take effect next cycle (same contract as requestWake()).
  const Cycle due = std::max(cycle, now_ + 1);
  timers_.push_back(Timer{slot, due});
  std::push_heap(timers_.begin(), timers_.end(), laterDue);
  ++stats_.timersScheduled;
}

void Engine::expireTimers() {
  while (!timers_.empty() && timers_.front().due <= now_) {
    assert(timers_.front().due == now_ && "timer missed its cycle");
    const std::uint32_t slot = timers_.front().slot;
    std::pop_heap(timers_.begin(), timers_.end(), laterDue);
    timers_.pop_back();
    // A fire on an active component is dropped: the timer fires at the
    // START of the cycle, so an active component will run its phases this
    // cycle anyway and re-park / re-schedule on its own authority.  Timers
    // popped within one cycle come out in no particular order;
    // drainWakeQueue() sorts them into registration order.
    if (gating_ && !active_[slot]) {
      wakeQueue_.push_back(slot);
      ++stats_.timersFired;
    }
  }
}

void Engine::drainWakeQueue() {
  if (wakeQueue_.empty()) return;
  std::sort(wakeQueue_.begin(), wakeQueue_.end());
  const std::size_t mid = activeSlots_.size();
  for (const std::uint32_t slot : wakeQueue_) {
    if (active_[slot]) continue;  // duplicates collapse here
    active_[slot] = 1;
    activeSlots_.push_back(slot);
    ++stats_.wakes;
  }
  std::inplace_merge(activeSlots_.begin(),
                     activeSlots_.begin() + static_cast<std::ptrdiff_t>(mid),
                     activeSlots_.end());
  wakeQueue_.clear();
}

template <class Observer>
void Engine::runJoinersBefore(std::uint32_t limit, Observer& observer) {
  // Cold path: only entered when a requestWakeInCycle() actually spliced a
  // joiner ahead of `limit`.  Re-reads joiners_ each iteration because a
  // joiner's advance can insert further joiners (cascading hand-offs).
  while (joinerNext_ < joiners_.size() && joiners_[joinerNext_] < limit) {
    const std::uint32_t joiner = joiners_[joinerNext_++];
    advanceSlot_ = joiner;
    observer.step(joiner);
    components_[joiner]->advance(now_);
  }
  nextJoiner_ = joinerNext_ < joiners_.size() ? joiners_[joinerNext_] : kNoJoiner;
}

template <class Observer>
void Engine::stepWith(Observer& observer) {
  // With gating off every slot stays on activeSlots_ (add() and reset() put
  // it there; wakes return early), so poll mode is this same body with the
  // park scan skipped.
  assert(gating_ || activeSlots_.size() == components_.size());
  expireTimers();
  observer.endPhase(Phase::kTimerExpire);
  drainWakeQueue();
  observer.endPhase(Phase::kWakeDrain);
  for (const std::uint32_t slot : activeSlots_) {
    observer.step(slot);
    components_[slot]->evaluate(now_);
  }
  observer.endPhase(Phase::kEvaluate);
  // Advance with same-cycle joins: a requestWakeInCycle() from the slot
  // currently advancing splices later parked slots into this sweep at
  // their registration-order position (see wakeInCycle()).  The hot loop
  // pays one nextJoiner_ compare per slot; the drain itself is out of line.
  advancing_ = true;
  joinerNext_ = 0;
  for (const std::uint32_t slot : activeSlots_) {
    if (nextJoiner_ < slot) runJoinersBefore(slot, observer);
    advanceSlot_ = slot;
    observer.step(slot);
    components_[slot]->advance(now_);
  }
  if (nextJoiner_ != kNoJoiner) runJoinersBefore(kNoJoiner, observer);
  advancing_ = false;
  observer.endPhase(Phase::kAdvance);
  stats_.componentSteps += activeSlots_.size() + joiners_.size();
  if (!joiners_.empty()) {
    const std::size_t mid = activeSlots_.size();
    activeSlots_.insert(activeSlots_.end(), joiners_.begin(), joiners_.end());
    std::inplace_merge(activeSlots_.begin(),
                       activeSlots_.begin() + static_cast<std::ptrdiff_t>(mid),
                       activeSlots_.end());
    joiners_.clear();
    nextJoiner_ = kNoJoiner;
  }
  if (gating_) {
    // Park components that ended the cycle with nothing to do.  quiescent()
    // sees the post-advance state, including flits accepted this cycle; a
    // component woken DURING this cycle stays active (the wake arrived after
    // its phases ran and must not be lost).
    std::size_t kept = 0;
    for (const std::uint32_t slot : activeSlots_) {
      if (components_[slot]->quiescent() && lastWakeCycle_[slot] != now_) {
        active_[slot] = 0;
      } else {
        activeSlots_[kept++] = slot;
      }
    }
    activeSlots_.resize(kept);
  }
  observer.endPhase(Phase::kParkScan);
  observer.endCycle();
  ++stats_.cycles;
  ++now_;
}

void Engine::run(Cycle cycles) {
  // The observer is chosen once per call, so no cycle tests profiler_.
  if (profiler_ == nullptr) {
    NullObserver observer;
    for (Cycle i = 0; i < cycles; ++i) stepWith(observer);
  } else {
    ProfileObserver observer(*profiler_, kinds_);
    for (Cycle i = 0; i < cycles; ++i) stepWith(observer);
  }
}

}  // namespace pnoc::sim
