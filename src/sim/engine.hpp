// Cycle-accurate simulation engine.
//
// Components implement Clocked and are registered with an Engine.  Each cycle
// runs in two phases so results do not depend on registration order:
//   evaluate(cycle)  - read the state other components exposed last cycle and
//                      compute this cycle's outputs; must not publish state
//                      that other components read this cycle.
//   advance(cycle)   - commit the computed outputs, making them visible to
//                      every component's evaluate() next cycle.
// This is the standard two-phase (combinational/sequential) discipline used
// by RTL-ish NoC simulators such as BookSim.
//
// Activity gating: a component whose evaluate()/advance() would be a no-op
// can report quiescent(); the engine then parks it on an inactive list and
// stops stepping it.  Whoever hands the component new work (a link delivering
// a flit, a peer scheduling an arrival) calls requestWake(), which re-joins
// the component to the active list from the *next* cycle.  A wake arriving
// while the component is still active this cycle instead pins it on the
// active list through the next cycle, so a mid-cycle hand-off (e.g. a link
// draining a slot during the advance phase, after the waiter already decided
// it could park) can never be lost.  Because every hand-off in this simulator
// has at least one cycle of latency, skipping a quiescent component is
// exactly equivalent to stepping it — the gated and ungated engines produce
// bit-identical runs (asserted by tests/integration/determinism_test.cpp).
//
// Timers: a parked component that knows WHEN its next work arrives (a
// core's pre-drawn packet arrival, a router waiting out its pipeline
// latency) calls scheduleWakeAt(cycle) and sleeps for the whole gap instead
// of polling.  Timers live in one binary min-heap on due cycle (O(log n)
// schedule and expiry; the perfbench workloads schedule fewer than one per
// cycle) and fire at the START of their cycle, merging into the same sorted
// wake-queue drain as ordinary wakes — activation order stays registration
// order whatever order the heap pops them in, so timer-driven runs are
// deterministic and bit-identical to polling.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/types.hpp"

namespace pnoc::sim {

class Engine;

class Clocked {
 public:
  virtual ~Clocked() = default;

  /// Phase 1: compute, reading only previously committed state.
  virtual void evaluate(Cycle cycle) = 0;

  /// Phase 2: commit computed state.
  virtual void advance(Cycle cycle) = 0;

  /// Human-readable name for tracing and error messages.
  virtual std::string name() const = 0;

  /// True when both phases would be no-ops until an external event arrives.
  /// A component returning true may be parked; it must arrange (via the
  /// components that feed it calling requestWake(), or via a timer it
  /// scheduled with scheduleWakeAt()) to be woken before it has work again.
  /// The default keeps a component permanently active.
  virtual bool quiescent() const { return false; }

  /// Marks this component active starting next cycle.  Safe to call from any
  /// phase, on active or parked components, and before engine registration
  /// (no-op until added to an engine).  Calling it on a component that is
  /// active this cycle keeps it active through the next cycle.
  void requestWake();

  /// Schedules a wake so this component runs AT `cycle` (clamped to the next
  /// cycle if already due).  The timer survives parking; it is dropped by
  /// Engine::reset().  Scheduling is idempotent in effect (a fire on an
  /// already-active component is a no-op), so callers may re-schedule
  /// defensively.  No-op before engine registration.
  void scheduleWakeAt(Cycle cycle);

  /// Same-cycle wake for advance-phase hand-offs between components whose
  /// evaluate() is a no-op.  When called during the advance phase on a
  /// parked component registered AFTER the one currently advancing, the
  /// component joins THIS cycle's advance sweep at its registration-order
  /// position — exactly where a polling engine would have stepped it.  In
  /// every other situation (component active, earlier slot, outside the
  /// advance phase, gating off) it degrades to requestWake().  This is how
  /// a destination router's VC unlock reaches a parked source in the same
  /// cycle the polling engine's scan would have seen it.
  void requestWakeInCycle();

  /// True when this component is registered with an engine whose activity
  /// gating is on — the only regime where parking bookkeeping (quiescent()
  /// eligibility, wake arming) has any effect.  Components with a
  /// non-trivial eligibility scan skip it entirely when this is false.
  bool activityGated() const;

  /// Coarse taxonomy for profile attribution (obs::CycleProfiler buckets
  /// evaluate/advance time by kind).  Purely observational — never affects
  /// stepping order or results.
  virtual obs::ComponentKind profileKind() const {
    return obs::ComponentKind::kOther;
  }

 private:
  friend class Engine;
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Counters describing how much work the engine actually did — the park rate
/// they imply is the whole point of activity gating + timers, so the
/// microbench and perfbench record it per run.  The engine increments these
/// fields directly; Engine::reset() zeroes them.
struct EngineStats {
  std::uint64_t cycles = 0;             ///< cycles stepped since construction/reset
  std::uint64_t componentSteps = 0;     ///< sum over cycles of components stepped
  std::uint64_t wakes = 0;              ///< wake-queue activations (incl. timer fires)
  std::uint64_t timersScheduled = 0;
  std::uint64_t timersFired = 0;        ///< fires delivered to a parked component

  /// Fraction of component-cycles skipped by parking: 0 = everything stepped
  /// every cycle, 1 = everything parked always.
  double parkRate(std::size_t componentCount) const {
    const double total = static_cast<double>(cycles) * static_cast<double>(componentCount);
    return total > 0.0 ? 1.0 - static_cast<double>(componentSteps) / total : 0.0;
  }
};

class Engine {
 public:
  /// `activityGating` off steps every component every cycle (the classic
  /// polling engine); on, quiescent components park.  Fixed for the engine's
  /// lifetime.
  explicit Engine(bool activityGating = true) : gating_(activityGating) {}

  /// Registers a component. The engine does not own components; callers keep
  /// them alive for the engine's lifetime (they are typically members of the
  /// network object that also owns the engine).
  void add(Clocked& component);

  /// Runs `cycles` more cycles.
  void run(Cycle cycles);

  /// Runs exactly one cycle (run(1)).
  void step() { run(1); }

  /// Returns the engine to its just-built state: cycle 0, every registered
  /// component active, wake queue empty, all pending timers dropped, stats
  /// zeroed.  The components themselves are not touched — callers reset
  /// those separately (PhotonicNetwork::reset()) and re-schedule their own
  /// timers as they run.
  void reset();

  /// Cycles executed so far (also the cycle number passed to the next step).
  Cycle now() const { return now_; }

  std::size_t componentCount() const { return components_.size(); }

  /// Components currently on the active list (== componentCount() when
  /// gating is off); inspectable for tests and the microbench.
  std::size_t activeCount() const {
    return gating_ ? activeSlots_.size() : components_.size();
  }

  /// Timers scheduled and not yet fired (tests / introspection).
  std::size_t pendingTimerCount() const { return timers_.size(); }

  /// Snapshot of the work counters since construction or the last reset().
  EngineStats stats() const { return stats_; }

  /// Attaches (or detaches, with nullptr) a cycle profiler.  run() picks
  /// the step body's observer once per call: with a profiler attached it
  /// brackets each phase and each component-kind run with steady-clock
  /// reads, without one the observer hooks are empty and compile away.  The
  /// step body is the same either way, so results are bit-identical.  The
  /// profiler must outlive the attachment.
  void setProfiler(obs::CycleProfiler* profiler) { profiler_ = profiler; }
  obs::CycleProfiler* profiler() const { return profiler_; }

  /// The constructor's activity-gating flag.
  bool activityGating() const { return gating_; }

 private:
  friend class Clocked;

  struct Timer {
    std::uint32_t slot;
    Cycle due;
  };
  // Heap order for timers_: the std heap algorithms keep the "largest"
  // element on top, so ordering by later-due puts the earliest timer there.
  static bool laterDue(const Timer& a, const Timer& b) { return a.due > b.due; }

  void wake(std::uint32_t slot) {
    if (!gating_) return;
    if (active_[slot]) {
      // Mid-cycle wake on an active component: pin it through next cycle so
      // the event that arrived after its phases ran is not lost to parking.
      lastWakeCycle_[slot] = now_;
      return;
    }
    wakeQueue_.push_back(slot);
  }

  // Same-cycle join (see Clocked::requestWakeInCycle).  A parked component
  // registered after the slot currently advancing is spliced into this
  // cycle's sweep; the joiner list stays sorted so cascading joins (a joiner
  // waking a later joiner) run in registration order, mirroring polling.
  void wakeInCycle(std::uint32_t slot) {
    if (!gating_) return;
    if (active_[slot]) {
      lastWakeCycle_[slot] = now_;
      return;
    }
    if (advancing_ && slot > advanceSlot_) {
      active_[slot] = 1;
      auto it = std::lower_bound(joiners_.begin() + static_cast<std::ptrdiff_t>(joinerNext_),
                                 joiners_.end(), slot);
      joiners_.insert(it, slot);
      nextJoiner_ = joiners_[joinerNext_];
      ++stats_.wakes;
      return;
    }
    wakeQueue_.push_back(slot);
  }
  void scheduleAt(std::uint32_t slot, Cycle cycle);
  void expireTimers();
  void drainWakeQueue();
  // The one step body.  `Observer` sees each component step and the end of
  // each phase and cycle; engine.cpp instantiates it with an empty observer
  // (the fast path) and with the profiler's.
  template <class Observer>
  void stepWith(Observer& observer);
  template <class Observer>
  void runJoinersBefore(std::uint32_t limit, Observer& observer);

  std::vector<Clocked*> components_;
  std::vector<char> active_;                // parallel to components_
  std::vector<Cycle> lastWakeCycle_;        // parallel; kNoCycle = never
  std::vector<std::uint32_t> activeSlots_;  // sorted registration order
  std::vector<std::uint32_t> wakeQueue_;    // wakes land next cycle
  std::vector<Timer> timers_;               // heap, earliest due on top
  EngineStats stats_;
  obs::CycleProfiler* profiler_ = nullptr;
  std::vector<obs::ComponentKind> kinds_;  // parallel to components_
  // Same-cycle join state: valid only while the advance loop runs.  Joins
  // are rare, so the hot advance loop only compares the current slot against
  // nextJoiner_ (a cached copy of joiners_[joinerNext_], kNoJoiner when none
  // are pending) — a single register compare instead of vector bookkeeping.
  static constexpr std::uint32_t kNoJoiner = 0xFFFFFFFFu;
  std::vector<std::uint32_t> joiners_;  // sorted slots joining this cycle
  std::size_t joinerNext_ = 0;          // first not-yet-run joiner
  std::uint32_t nextJoiner_ = kNoJoiner;
  std::uint32_t advanceSlot_ = 0;  // slot currently advancing
  bool advancing_ = false;
  Cycle now_ = 0;
  bool gating_;
};

inline void Clocked::requestWake() {
  if (engine_ != nullptr) engine_->wake(slot_);
}

inline void Clocked::scheduleWakeAt(Cycle cycle) {
  if (engine_ != nullptr) engine_->scheduleAt(slot_, cycle);
}

inline void Clocked::requestWakeInCycle() {
  if (engine_ != nullptr) engine_->wakeInCycle(slot_);
}

inline bool Clocked::activityGated() const {
  return engine_ != nullptr && engine_->activityGating();
}

}  // namespace pnoc::sim
