#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace pnoc::sim {

namespace {

using ProfClock = std::chrono::steady_clock;

std::uint64_t elapsedNs(ProfClock::time_point from, ProfClock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

Engine::Engine()
    : level0_(kWheelSlots),
      level1_(kWheelSlots),
      statCycles_(metrics_.counter("engine_cycles_total")),
      statComponentSteps_(metrics_.counter("engine_component_steps_total")),
      statWakes_(metrics_.counter("engine_wakes_total")),
      statTimersScheduled_(metrics_.counter("engine_timers_scheduled_total")),
      statTimersFired_(metrics_.counter("engine_timers_fired_total")) {}

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
  for (auto& bucket : level0_) bucket.clear();
  for (auto& bucket : level1_) bucket.clear();
  overflow_.clear();
  pendingTimers_ = 0;
  joiners_.clear();
  joinerNext_ = 0;
  nextJoiner_ = kNoJoiner;
  advancing_ = false;
  metrics_.reset();
  if (profiler_ != nullptr) profiler_->reset();
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.cycles = statCycles_.value();
  s.componentSteps = statComponentSteps_.value();
  s.wakes = statWakes_.value();
  s.timersScheduled = statTimersScheduled_.value();
  s.timersFired = statTimersFired_.value();
  return s;
}

void Engine::setActivityGating(bool enabled) {
  gating_ = enabled;
  // Re-activate everything: correct for both directions (when enabling, the
  // first parked components drop out at the end of the next cycle).  Timers
  // stay scheduled — fires on active components are dropped, and components
  // that park again rely on their still-pending timers.  Stats survive the
  // toggle: the counters describe the whole run, not one gating regime.
  activeSlots_.clear();
  for (std::uint32_t slot = 0; slot < components_.size(); ++slot) {
    active_[slot] = 1;
    activeSlots_.push_back(slot);
  }
  wakeQueue_.clear();
  joiners_.clear();
  joinerNext_ = 0;
  nextJoiner_ = kNoJoiner;
}

void Engine::scheduleAt(std::uint32_t slot, Cycle cycle) {
  // A timer fires at the start of its cycle; anything due now or earlier can
  // only take effect next cycle (same contract as requestWake()).
  const Cycle due = std::max(cycle, now_ + 1);
  placeTimer(Timer{slot, due});
  ++pendingTimers_;
  statTimersScheduled_.inc();
}

void Engine::placeTimer(const Timer& timer) {
  // Level-0 window: the 256 cycles containing now_.  Buckets at or before
  // now_'s index were already expired this lap, and due > now_ always holds,
  // so placement by masked index is unambiguous.
  const Cycle level0End = (now_ & ~kWheelMask) + kWheelSlots;
  if (timer.due < level0End) {
    level0_[timer.due & kWheelMask].push_back(timer);
    return;
  }
  const Cycle level1End = (now_ & ~(kLevel1Span - 1)) + kLevel1Span;
  if (timer.due < level1End) {
    level1_[(timer.due >> kWheelBits) & kWheelMask].push_back(timer);
    return;
  }
  overflow_.push_back(timer);
}

void Engine::expireTimers() {
  if (pendingTimers_ == 0) return;
  const Cycle cycle = now_;
  if ((cycle & kWheelMask) == 0) {
    if ((cycle & (kLevel1Span - 1)) == 0 && !overflow_.empty()) {
      // New level-1 lap: rebin overflow timers that now fit the horizon.
      std::vector<Timer> pending;
      pending.swap(overflow_);
      for (const Timer& timer : pending) placeTimer(timer);
    }
    // New level-0 window: cascade its coarse bucket into one-cycle buckets.
    auto& coarse = level1_[(cycle >> kWheelBits) & kWheelMask];
    for (const Timer& timer : coarse) {
      level0_[timer.due & kWheelMask].push_back(timer);
    }
    coarse.clear();
  }
  auto& bucket = level0_[cycle & kWheelMask];
  if (bucket.empty()) return;
  for (const Timer& timer : bucket) {
    assert(timer.due == cycle && "timer landed in the wrong bucket");
    assert(pendingTimers_ > 0);
    --pendingTimers_;
    // A fire on an active component is dropped: the timer fires at the
    // START of the cycle, so an active component will run its phases this
    // cycle anyway and re-park / re-schedule on its own authority.
    if (gating_ && !active_[timer.slot]) {
      wakeQueue_.push_back(timer.slot);
      statTimersFired_.inc();
    }
  }
  bucket.clear();
}

void Engine::drainWakeQueue() {
  if (wakeQueue_.empty()) return;
  std::sort(wakeQueue_.begin(), wakeQueue_.end());
  const std::size_t mid = activeSlots_.size();
  for (const std::uint32_t slot : wakeQueue_) {
    if (active_[slot]) continue;  // duplicates collapse here
    active_[slot] = 1;
    activeSlots_.push_back(slot);
    statWakes_.inc();
  }
  std::inplace_merge(activeSlots_.begin(),
                     activeSlots_.begin() + static_cast<std::ptrdiff_t>(mid),
                     activeSlots_.end());
  wakeQueue_.clear();
}

void Engine::runJoinersBefore(std::uint32_t limit) {
  // Cold path: only entered when a requestWakeInCycle() actually spliced a
  // joiner ahead of `limit`.  Re-reads joiners_ each iteration because a
  // joiner's advance can insert further joiners (cascading hand-offs).
  while (joinerNext_ < joiners_.size() && joiners_[joinerNext_] < limit) {
    const std::uint32_t joiner = joiners_[joinerNext_++];
    advanceSlot_ = joiner;
    components_[joiner]->advance(now_);
  }
  nextJoiner_ = joinerNext_ < joiners_.size() ? joiners_[joinerNext_] : kNoJoiner;
}

void Engine::stepFast() {
  if (gating_) {
    expireTimers();
    drainWakeQueue();
    for (const std::uint32_t slot : activeSlots_) components_[slot]->evaluate(now_);
    // Advance with same-cycle joins: a requestWakeInCycle() from the slot
    // currently advancing splices later parked slots into this sweep at
    // their registration-order position (see wakeInCycle()).  The hot loop
    // pays one nextJoiner_ compare per slot; the drain itself is out of line.
    advancing_ = true;
    joinerNext_ = 0;
    for (const std::uint32_t slot : activeSlots_) {
      if (nextJoiner_ < slot) runJoinersBefore(slot);
      advanceSlot_ = slot;
      components_[slot]->advance(now_);
    }
    if (nextJoiner_ != kNoJoiner) runJoinersBefore(kNoJoiner);
    advancing_ = false;
    statComponentSteps_.inc(activeSlots_.size() + joiners_.size());
    if (!joiners_.empty()) {
      const std::size_t mid = activeSlots_.size();
      activeSlots_.insert(activeSlots_.end(), joiners_.begin(), joiners_.end());
      std::inplace_merge(activeSlots_.begin(),
                         activeSlots_.begin() + static_cast<std::ptrdiff_t>(mid),
                         activeSlots_.end());
      joiners_.clear();
      nextJoiner_ = kNoJoiner;
    }
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
  } else {
    expireTimers();  // keep the wheel draining so gating can toggle back on
    for (Clocked* c : components_) c->evaluate(now_);
    for (Clocked* c : components_) c->advance(now_);
    statComponentSteps_.inc(components_.size());
  }
  statCycles_.inc();
  ++now_;
}

// The profiled step: IDENTICAL stepping semantics to stepFast(), plus
// steady-clock brackets around each phase and around each run of
// consecutive same-kind components (registration order groups kinds, so
// runs are long and the extra clock reads are a handful per cycle, not per
// component).  Any semantic change here must be mirrored in stepFast() —
// tests/obs/profiler_test.cpp asserts bit-identical results between the two.
void Engine::stepProfiled() {
  obs::CycleProfiler& prof = *profiler_;
  const ProfClock::time_point t0 = ProfClock::now();
  if (gating_) {
    expireTimers();
    const ProfClock::time_point t1 = ProfClock::now();
    prof.addPhase(obs::CycleProfiler::Phase::kTimerExpire, elapsedNs(t0, t1));
    drainWakeQueue();
    const ProfClock::time_point t2 = ProfClock::now();
    prof.addPhase(obs::CycleProfiler::Phase::kWakeDrain, elapsedNs(t1, t2));

    ProfClock::time_point runStart = t2;
    obs::ComponentKind runKind = obs::ComponentKind::kOther;
    std::uint64_t runLen = 0;
    for (const std::uint32_t slot : activeSlots_) {
      const obs::ComponentKind kind = kinds_[slot];
      if (runLen > 0 && kind != runKind) {
        const ProfClock::time_point now = ProfClock::now();
        prof.addKind(runKind, elapsedNs(runStart, now), runLen);
        runStart = now;
        runLen = 0;
      }
      runKind = kind;
      components_[slot]->evaluate(now_);
      ++runLen;
    }
    ProfClock::time_point t3 = ProfClock::now();
    if (runLen > 0) prof.addKind(runKind, elapsedNs(runStart, t3), runLen);
    prof.addPhase(obs::CycleProfiler::Phase::kEvaluate, elapsedNs(t2, t3));

    runStart = t3;
    runLen = 0;
    // Same-cycle join interleave — must stay mirrored with stepFast().
    // Joiner advances are attributed to the joiner's own kind (flushing the
    // current run if the kind changes), so profile buckets stay truthful.
    advancing_ = true;
    joinerNext_ = 0;
    for (const std::uint32_t slot : activeSlots_) {
      while (joinerNext_ < joiners_.size() && joiners_[joinerNext_] < slot) {
        const std::uint32_t joiner = joiners_[joinerNext_++];
        const obs::ComponentKind jkind = kinds_[joiner];
        if (runLen > 0 && jkind != runKind) {
          const ProfClock::time_point now = ProfClock::now();
          prof.addKind(runKind, elapsedNs(runStart, now), runLen);
          runStart = now;
          runLen = 0;
        }
        runKind = jkind;
        advanceSlot_ = joiner;
        components_[joiner]->advance(now_);
        ++runLen;
      }
      const obs::ComponentKind kind = kinds_[slot];
      if (runLen > 0 && kind != runKind) {
        const ProfClock::time_point now = ProfClock::now();
        prof.addKind(runKind, elapsedNs(runStart, now), runLen);
        runStart = now;
        runLen = 0;
      }
      runKind = kind;
      advanceSlot_ = slot;
      components_[slot]->advance(now_);
      ++runLen;
    }
    while (joinerNext_ < joiners_.size()) {
      const std::uint32_t joiner = joiners_[joinerNext_++];
      const obs::ComponentKind jkind = kinds_[joiner];
      if (runLen > 0 && jkind != runKind) {
        const ProfClock::time_point now = ProfClock::now();
        prof.addKind(runKind, elapsedNs(runStart, now), runLen);
        runStart = now;
        runLen = 0;
      }
      runKind = jkind;
      advanceSlot_ = joiner;
      components_[joiner]->advance(now_);
      ++runLen;
    }
    advancing_ = false;
    const ProfClock::time_point t4 = ProfClock::now();
    if (runLen > 0) prof.addKind(runKind, elapsedNs(runStart, t4), runLen);
    prof.addPhase(obs::CycleProfiler::Phase::kAdvance, elapsedNs(t3, t4));

    statComponentSteps_.inc(activeSlots_.size() + joiners_.size());
    if (!joiners_.empty()) {
      const std::size_t mid = activeSlots_.size();
      activeSlots_.insert(activeSlots_.end(), joiners_.begin(), joiners_.end());
      std::inplace_merge(activeSlots_.begin(),
                         activeSlots_.begin() + static_cast<std::ptrdiff_t>(mid),
                         activeSlots_.end());
      joiners_.clear();
      nextJoiner_ = kNoJoiner;  // consumed without the stepFast sentinel
    }
    std::size_t kept = 0;
    for (const std::uint32_t slot : activeSlots_) {
      if (components_[slot]->quiescent() && lastWakeCycle_[slot] != now_) {
        active_[slot] = 0;
      } else {
        activeSlots_[kept++] = slot;
      }
    }
    activeSlots_.resize(kept);
    prof.addPhase(obs::CycleProfiler::Phase::kParkScan,
                  elapsedNs(t4, ProfClock::now()));
  } else {
    expireTimers();
    const ProfClock::time_point t1 = ProfClock::now();
    prof.addPhase(obs::CycleProfiler::Phase::kTimerExpire, elapsedNs(t0, t1));
    for (Clocked* c : components_) c->evaluate(now_);
    const ProfClock::time_point t2 = ProfClock::now();
    prof.addPhase(obs::CycleProfiler::Phase::kEvaluate, elapsedNs(t1, t2));
    for (Clocked* c : components_) c->advance(now_);
    const ProfClock::time_point t3 = ProfClock::now();
    prof.addPhase(obs::CycleProfiler::Phase::kAdvance, elapsedNs(t2, t3));
    statComponentSteps_.inc(components_.size());
  }
  prof.addCycle();
  statCycles_.inc();
  ++now_;
}

void Engine::step() {
  if (profiler_ != nullptr) {
    stepProfiled();
  } else {
    stepFast();
  }
}

void Engine::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) step();
}

}  // namespace pnoc::sim
