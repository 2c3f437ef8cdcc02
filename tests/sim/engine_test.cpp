#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/config.hpp"

namespace pnoc::sim {
namespace {

/// Records the phase interleaving so tests can assert the two-phase contract.
class Probe final : public Clocked {
 public:
  Probe(std::string name, std::vector<std::string>& log) : name_(std::move(name)), log_(&log) {}
  void evaluate(Cycle cycle) override {
    log_->push_back(name_ + ".eval@" + std::to_string(cycle));
  }
  void advance(Cycle cycle) override {
    log_->push_back(name_ + ".adv@" + std::to_string(cycle));
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<std::string>* log_;
};

TEST(Engine, AllEvaluatesBeforeAnyAdvance) {
  std::vector<std::string> log;
  Probe a("a", log);
  Probe b("b", log);
  Engine engine;
  engine.add(a);
  engine.add(b);
  engine.step();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "a.eval@0");
  EXPECT_EQ(log[1], "b.eval@0");
  EXPECT_EQ(log[2], "a.adv@0");
  EXPECT_EQ(log[3], "b.adv@0");
}

TEST(Engine, RunAdvancesCycleCount) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0u);
  engine.run(10);
  EXPECT_EQ(engine.now(), 10u);
  engine.step();
  EXPECT_EQ(engine.now(), 11u);
}

TEST(Engine, CycleNumbersAreSequential) {
  std::vector<std::string> log;
  Probe a("a", log);
  Engine engine;
  engine.add(a);
  engine.run(3);
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[0], "a.eval@0");
  EXPECT_EQ(log[2], "a.eval@1");
  EXPECT_EQ(log[4], "a.eval@2");
}

/// Probe whose quiescence is externally controlled, for gating tests.
class GatedProbe final : public Clocked {
 public:
  GatedProbe(std::string name, std::vector<std::string>& log)
      : name_(std::move(name)), log_(&log) {}
  void evaluate(Cycle cycle) override {
    log_->push_back(name_ + ".eval@" + std::to_string(cycle));
  }
  void advance(Cycle cycle) override {
    log_->push_back(name_ + ".adv@" + std::to_string(cycle));
  }
  std::string name() const override { return name_; }
  bool quiescent() const override { return idle; }

  bool idle = false;

 private:
  std::string name_;
  std::vector<std::string>* log_;
};

TEST(Engine, QuiescentComponentIsParked) {
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine;
  engine.add(probe);
  EXPECT_EQ(engine.activeCount(), 1u);
  probe.idle = true;
  engine.step();  // runs this cycle, parked at its end
  EXPECT_EQ(engine.activeCount(), 0u);
  engine.run(3);  // parked: neither phase runs
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "p.eval@0");
  EXPECT_EQ(log[1], "p.adv@0");
}

TEST(Engine, RequestWakeReactivatesFromNextCycle) {
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine;
  engine.add(probe);
  probe.idle = true;
  engine.run(2);  // parked after cycle 0
  probe.idle = false;
  probe.requestWake();
  engine.step();  // cycle 2: active again
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2], "p.eval@2");
  EXPECT_EQ(log[3], "p.adv@2");
  EXPECT_EQ(engine.activeCount(), 1u);
}

TEST(Engine, ActiveComponentsKeepRegistrationOrderAfterWake) {
  std::vector<std::string> log;
  GatedProbe a("a", log);
  GatedProbe b("b", log);
  GatedProbe c("c", log);
  Engine engine;
  engine.add(a);
  engine.add(b);
  engine.add(c);
  a.idle = true;
  b.idle = true;
  engine.step();  // parks a and b
  log.clear();
  a.idle = false;
  a.requestWake();  // rejoin: must run before the always-active c
  engine.step();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "a.eval@1");
  EXPECT_EQ(log[1], "c.eval@1");
  EXPECT_EQ(log[2], "a.adv@1");
  EXPECT_EQ(log[3], "c.adv@1");
}

TEST(Engine, GatingOffStepsQuiescentComponents) {
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine(/*activityGating=*/false);
  engine.add(probe);
  probe.idle = true;
  engine.run(3);
  EXPECT_EQ(log.size(), 6u);  // both phases every cycle despite quiescence
  EXPECT_EQ(engine.activeCount(), 1u);
}

TEST(Engine, ConstructorFlagFixesActivityGating) {
  std::vector<std::string> log;
  GatedProbe gated("g", log);
  GatedProbe polled("p", log);
  EXPECT_FALSE(gated.activityGated());  // not attached to any engine yet
  Engine gatedEngine;
  Engine pollEngine(/*activityGating=*/false);
  gatedEngine.add(gated);
  pollEngine.add(polled);
  EXPECT_TRUE(gatedEngine.activityGating());
  EXPECT_FALSE(pollEngine.activityGating());
  EXPECT_TRUE(gated.activityGated());
  EXPECT_FALSE(polled.activityGated());
  // reset() keeps the engine's gating mode.
  gatedEngine.reset();
  pollEngine.reset();
  EXPECT_TRUE(gated.activityGated());
  EXPECT_FALSE(polled.activityGated());
}

// --- timers ---

/// Runs the engine until `cycle` has been stepped (now() == cycle + 1).
void runThrough(Engine& engine, Cycle cycle) {
  while (engine.now() <= cycle) engine.step();
}

TEST(EngineTimers, WakesParkedComponentAtScheduledCycle) {
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine;
  engine.add(probe);
  probe.idle = true;
  engine.step();  // parks at the end of cycle 0
  probe.scheduleWakeAt(5);
  EXPECT_EQ(engine.pendingTimerCount(), 1u);
  runThrough(engine, 10);
  // Exactly one extra activation, at cycle 5 (parks again at its end).
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2], "p.eval@5");
  EXPECT_EQ(log[3], "p.adv@5");
  EXPECT_EQ(engine.pendingTimerCount(), 0u);
  EXPECT_EQ(engine.stats().timersFired, 1u);
}

TEST(EngineTimers, FarFutureSchedulesFireInDueOrder) {
  // Scheduled out of due order and far apart: each fires exactly at its
  // cycle, and the far one waits out the whole gap.
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine;
  engine.add(probe);
  probe.idle = true;
  engine.step();
  for (const Cycle due : {Cycle{700}, Cycle{70000}, Cycle{3}}) {
    probe.scheduleWakeAt(due);
  }
  EXPECT_EQ(engine.pendingTimerCount(), 3u);
  runThrough(engine, 70001);
  ASSERT_EQ(log.size(), 8u);
  EXPECT_EQ(log[2], "p.eval@3");
  EXPECT_EQ(log[4], "p.eval@700");
  EXPECT_EQ(log[6], "p.eval@70000");
  EXPECT_EQ(engine.pendingTimerCount(), 0u);
}

TEST(EngineTimers, UngatedEngineConsumesTimersWithoutWaking) {
  // With gating off every component is already active, so a timer expires
  // at its cycle without counting a fire or a wake, and never lingers.
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine(/*activityGating=*/false);
  engine.add(probe);
  probe.idle = true;
  engine.step();
  probe.scheduleWakeAt(4);
  EXPECT_EQ(engine.pendingTimerCount(), 1u);
  runThrough(engine, 4);
  EXPECT_EQ(engine.pendingTimerCount(), 0u);
  EXPECT_EQ(log.size(), 10u);  // both phases on each of cycles 0..4
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.timersScheduled, 1u);
  EXPECT_EQ(stats.timersFired, 0u);
  EXPECT_EQ(stats.wakes, 0u);
  EXPECT_EQ(engine.activeCount(), 1u);
}

TEST(EngineTimers, PastDueClampsToNextCycle) {
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine;
  engine.add(probe);
  probe.idle = true;
  engine.run(4);  // parked after cycle 0; now() == 4
  probe.scheduleWakeAt(1);  // long past: must fire at cycle 5, not be lost
  engine.run(3);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2], "p.eval@5");
}

TEST(EngineTimers, SameCycleTimerAndWakeActivateOnce) {
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine;
  engine.add(probe);
  probe.idle = true;
  engine.step();
  probe.scheduleWakeAt(3);
  probe.requestWake();  // wake lands at cycle 1... but probe re-parks
  runThrough(engine, 4);
  // One activation from the wake (cycle 1), one from the timer (cycle 3);
  // the coincidence at a single drain would still activate exactly once.
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[2], "p.eval@1");
  EXPECT_EQ(log[4], "p.eval@3");
}

TEST(EngineTimers, TimerAndWakeOnSameCycleCollapse) {
  std::vector<std::string> log;
  GatedProbe a("a", log);
  GatedProbe b("b", log);
  Engine engine;
  engine.add(a);
  engine.add(b);
  a.idle = true;
  b.idle = true;
  engine.step();  // both parked after cycle 0
  // b gets BOTH a timer for cycle 2 and a plain wake landing at cycle 2;
  // a gets only a timer — activation order must stay registration order.
  b.scheduleWakeAt(2);
  a.scheduleWakeAt(2);
  engine.step();  // cycle 1: both still parked
  b.requestWake();
  log.clear();
  engine.step();  // cycle 2
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "a.eval@2");
  EXPECT_EQ(log[1], "b.eval@2");
  EXPECT_EQ(log[2], "a.adv@2");
  EXPECT_EQ(log[3], "b.adv@2");
}

TEST(EngineTimers, FireOnActiveComponentIsDropped) {
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine;
  engine.add(probe);  // stays active (idle == false)
  probe.scheduleWakeAt(2);
  engine.run(4);
  EXPECT_EQ(engine.pendingTimerCount(), 0u);  // consumed ...
  EXPECT_EQ(engine.stats().timersFired, 0u);  // ... but not delivered
  EXPECT_EQ(log.size(), 8u);                  // stepped every cycle regardless
}

TEST(EngineTimers, ResetDropsPendingTimers) {
  std::vector<std::string> log;
  GatedProbe probe("p", log);
  Engine engine;
  engine.add(probe);
  probe.idle = true;
  engine.step();
  probe.scheduleWakeAt(4);
  probe.scheduleWakeAt(70000);
  EXPECT_EQ(engine.pendingTimerCount(), 2u);
  engine.reset();
  EXPECT_EQ(engine.pendingTimerCount(), 0u);
  log.clear();
  runThrough(engine, 6);
  // Active at cycle 0 (reset reactivates), parked after; no timer fires.
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "p.eval@0");
}

TEST(EngineTimers, SameCycleTimersActivateInRegistrationOrder) {
  // Timers due the same cycle, scheduled in reverse registration order from
  // different earlier cycles, must activate in registration order, exactly
  // as a polling engine would step them.
  std::vector<std::string> log;
  GatedProbe a("a", log);
  GatedProbe b("b", log);
  GatedProbe c("c", log);
  Engine engine;
  engine.add(a);
  engine.add(b);
  engine.add(c);
  a.idle = true;
  b.idle = true;
  c.idle = true;
  engine.step();  // all three parked after cycle 0
  c.scheduleWakeAt(6);
  engine.step();
  b.scheduleWakeAt(6);
  b.scheduleWakeAt(6);  // two timers on one slot for one cycle
  engine.step();
  a.scheduleWakeAt(6);
  log.clear();
  const EngineStats before = engine.stats();
  runThrough(engine, 6);
  const std::vector<std::string> expected = {"a.eval@6", "b.eval@6", "c.eval@6",
                                             "a.adv@6",  "b.adv@6",  "c.adv@6"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(engine.pendingTimerCount(), 0u);
  // Both of b's timers fire on a parked component, but b activates once.
  EXPECT_EQ(engine.stats().timersFired - before.timersFired, 4u);
  EXPECT_EQ(engine.stats().wakes - before.wakes, 3u);
}

TEST(EngineTimers, MidCycleWakePreventsParkingThatCycle) {
  // A component that receives a wake DURING a cycle (e.g. a link draining a
  // slot in its advance phase) must not park at that cycle's end even if it
  // reports quiescent — the wake would otherwise be lost.
  std::vector<std::string> log;
  GatedProbe target("t", log);

  class Waker final : public Clocked {
   public:
    explicit Waker(Clocked& target) : target_(&target) {}
    void evaluate(Cycle) override {}
    void advance(Cycle) override {
      if (fire) {
        target_->requestWake();
        fire = false;
      }
    }
    std::string name() const override { return "waker"; }
    bool fire = false;

   private:
    Clocked* target_;
  };

  Waker waker(target);
  Engine engine;
  engine.add(target);
  engine.add(waker);
  target.idle = true;
  waker.fire = true;
  engine.step();  // wake arrives mid-cycle 0: target must stay active
  EXPECT_EQ(engine.activeCount(), 2u);
  engine.step();  // no new wake: target parks at the end of cycle 1
  EXPECT_EQ(engine.activeCount(), 1u);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2], "t.eval@1");
}

// --- same-cycle joins (requestWakeInCycle) ---

/// Gated probe that, when armed, hands off to `targets` with
/// requestWakeInCycle() from its advance phase.
class JoinProbe final : public Clocked {
 public:
  JoinProbe(std::string name, std::vector<std::string>& log,
            obs::ComponentKind kind = obs::ComponentKind::kOther)
      : name_(std::move(name)), log_(&log), kind_(kind) {}
  void evaluate(Cycle cycle) override {
    log_->push_back(name_ + ".eval@" + std::to_string(cycle));
  }
  void advance(Cycle cycle) override {
    log_->push_back(name_ + ".adv@" + std::to_string(cycle));
    if (!armed) return;
    armed = false;
    for (Clocked* target : targets) target->requestWakeInCycle();
  }
  std::string name() const override { return name_; }
  bool quiescent() const override { return idle; }
  obs::ComponentKind profileKind() const override { return kind_; }

  bool idle = false;
  bool armed = false;
  std::vector<Clocked*> targets;

 private:
  std::string name_;
  std::vector<std::string>* log_;
  obs::ComponentKind kind_;
};

/// a (core) hands off to the parked b (link) in cycle 1; c (core) stays
/// active behind b.  Returns the call log of cycle 1 and fills `steps`.
std::vector<std::string> runMidSweepJoin(obs::CycleProfiler* profiler,
                                         std::uint64_t& steps) {
  std::vector<std::string> log;
  JoinProbe a("a", log, obs::ComponentKind::kCore);
  JoinProbe b("b", log, obs::ComponentKind::kLink);
  JoinProbe c("c", log, obs::ComponentKind::kCore);
  Engine engine;
  engine.setProfiler(profiler);
  engine.add(a);
  engine.add(b);
  engine.add(c);
  b.idle = true;
  a.targets = {&b};
  engine.step();  // b parks at the end of cycle 0
  EXPECT_EQ(engine.activeCount(), 2u);
  log.clear();
  a.armed = true;
  engine.step();
  EXPECT_EQ(engine.activeCount(), 2u);  // the joiner parks again
  steps = engine.stats().componentSteps;
  return log;
}

TEST(Engine, SameCycleJoinAdvancesAtRegistrationPosition) {
  std::uint64_t steps = 0;
  const std::vector<std::string> log = runMidSweepJoin(nullptr, steps);
  // b joins cycle 1's advance sweep between a and c, without evaluating.
  const std::vector<std::string> expected = {"a.eval@1", "c.eval@1", "a.adv@1",
                                             "b.adv@1", "c.adv@1"};
  EXPECT_EQ(log, expected);
  // Cycle 0 steps all three; cycle 1 steps a, c and the joiner b.
  EXPECT_EQ(steps, 6u);
}

TEST(Engine, SameCycleJoinOnEarlierSlotIsDeferredToNextCycle) {
  std::vector<std::string> log;
  JoinProbe b("b", log);
  JoinProbe a("a", log);
  Engine engine;
  engine.add(b);
  engine.add(a);
  b.idle = true;
  a.targets = {&b};
  engine.step();
  log.clear();
  a.armed = true;
  engine.step();  // b precedes a: too late to join cycle 1
  engine.step();
  const std::vector<std::string> expected = {"a.eval@1", "a.adv@1", "b.eval@2",
                                             "a.eval@2", "b.adv@2", "a.adv@2"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(engine.stats().componentSteps, 5u);
}

TEST(Engine, CascadingJoinersRunInRegistrationOrder) {
  // a wakes the parked b; b's advance wakes the parked d, which sits behind
  // the always-active c and so joins at the tail of the sweep.
  std::vector<std::string> log;
  JoinProbe a("a", log);
  JoinProbe b("b", log);
  JoinProbe c("c", log);
  JoinProbe d("d", log);
  Engine engine;
  engine.add(a);
  engine.add(b);
  engine.add(c);
  engine.add(d);
  b.idle = true;
  d.idle = true;
  a.targets = {&b};
  b.targets = {&d};
  engine.step();
  log.clear();
  a.armed = true;
  b.armed = true;
  engine.step();
  const std::vector<std::string> expected = {"a.eval@1", "c.eval@1", "a.adv@1",
                                             "b.adv@1", "c.adv@1", "d.adv@1"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(engine.stats().componentSteps, 8u);  // 4 + a, c and both joiners
  EXPECT_EQ(engine.activeCount(), 2u);
}

TEST(Engine, ProfiledSameCycleJoinKeepsOrderAndChargesJoinerKind) {
  std::uint64_t plainSteps = 0;
  const std::vector<std::string> plain = runMidSweepJoin(nullptr, plainSteps);
  obs::CycleProfiler profiler;
  std::uint64_t profiledSteps = 0;
  const std::vector<std::string> profiled = runMidSweepJoin(&profiler, profiledSteps);
  EXPECT_EQ(profiled, plain);
  EXPECT_EQ(profiledSteps, plainSteps);

  const obs::CycleProfiler::Snapshot snap = profiler.snapshot();
  EXPECT_EQ(snap.cycles, 2u);
  // Cores: 2 phases x 2 cycles x {a, c}.  Link b: both phases in cycle 0,
  // then its joined advance in cycle 1.
  EXPECT_EQ(snap.kindSteps[static_cast<std::size_t>(obs::ComponentKind::kCore)], 8u);
  EXPECT_EQ(snap.kindSteps[static_cast<std::size_t>(obs::ComponentKind::kLink)], 3u);
  EXPECT_EQ(snap.kindSteps[static_cast<std::size_t>(obs::ComponentKind::kOther)], 0u);
}

TEST(EngineStats, TracksStepsAndParkRate) {
  std::vector<std::string> log;
  GatedProbe busy("busy", log);
  GatedProbe idle("idle", log);
  Engine engine;
  engine.add(busy);
  engine.add(idle);
  idle.idle = true;
  engine.run(10);
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.cycles, 10u);
  EXPECT_EQ(stats.componentSteps, 11u);  // both at cycle 0, busy alone after
  EXPECT_NEAR(stats.parkRate(engine.componentCount()), 1.0 - 11.0 / 20.0, 1e-12);
  engine.reset();
  EXPECT_EQ(engine.stats().cycles, 0u);
}

TEST(Clock, DefaultMatchesTable33) {
  Clock clock;
  EXPECT_DOUBLE_EQ(clock.frequencyHz(), 2.5e9);
  EXPECT_DOUBLE_EQ(clock.periodSeconds(), 400e-12);
}

TEST(Clock, WavelengthBitsPerCycleIsFive) {
  // 12.5 Gb/s per wavelength at 2.5 GHz -> 5 bits per cycle (Section 3.4).
  Clock clock;
  EXPECT_DOUBLE_EQ(clock.bitsPerCycle(12.5e9), 5.0);
}

TEST(Clock, CyclesForSecondsRoundsUp) {
  Clock clock;
  EXPECT_EQ(clock.cyclesForSeconds(400e-12), 1u);
  EXPECT_EQ(clock.cyclesForSeconds(401e-12), 2u);
  EXPECT_EQ(clock.cyclesForSeconds(0.0), 0u);
}

TEST(Clock, ToSecondsRoundTrips) {
  Clock clock;
  EXPECT_DOUBLE_EQ(clock.toSeconds(10000), 4e-6);
}

TEST(Config, ParsesKeyValuePairs) {
  Config config;
  const char* argv[] = {"a=1", "b=hello", "c=0.5"};
  EXPECT_FALSE(config.parseArgs(3, argv).has_value());
  EXPECT_EQ(config.getU64("a", 0), 1u);
  EXPECT_EQ(config.getString("b", ""), "hello");
  EXPECT_DOUBLE_EQ(config.getDouble("c", 0.0), 0.5);
}

TEST(Config, RejectsMalformedArguments) {
  Config config;
  const char* argv[] = {"novalue"};
  EXPECT_TRUE(config.parseArgs(1, argv).has_value());
  const char* argv2[] = {"=x"};
  EXPECT_TRUE(config.parseArgs(1, argv2).has_value());
}

TEST(Config, FallbacksWhenMissing) {
  Config config;
  EXPECT_EQ(config.getU64("missing", 7), 7u);
  EXPECT_EQ(config.getU32("missing", 9), 9u);
  EXPECT_EQ(config.getString("missing", "d"), "d");
  EXPECT_TRUE(config.getBool("missing", true));
}

TEST(Config, ThrowsOnUnparseableValues) {
  Config config;
  config.set("n", "abc");
  EXPECT_THROW(config.getU64("n", 0), std::invalid_argument);
  EXPECT_THROW(config.getU32("n", 0), std::invalid_argument);
  config.set("d", "1.2.3");
  EXPECT_THROW(config.getDouble("d", 0.0), std::invalid_argument);
  for (const char* nonFinite : {"nan", "inf", "-inf", "1e999"}) {
    EXPECT_THROW(parseDouble(nonFinite), std::invalid_argument) << nonFinite;
  }
  config.set("b", "maybe");
  EXPECT_THROW(config.getBool("b", false), std::invalid_argument);
}

TEST(Config, BoolAcceptsCommonSpellings) {
  Config config;
  config.set("a", "TRUE");
  config.set("b", "off");
  config.set("c", "1");
  EXPECT_TRUE(config.getBool("a", false));
  EXPECT_FALSE(config.getBool("b", true));
  EXPECT_TRUE(config.getBool("c", false));
  // The shared parser behind it, which scenario keys read too.
  for (const char* yes : {"1", "true", "TRUE", "Yes", "on", "ON"}) {
    EXPECT_TRUE(parseBool(yes)) << yes;
  }
  for (const char* no : {"0", "false", "False", "NO", "off", "Off"}) {
    EXPECT_FALSE(parseBool(no)) << no;
  }
  EXPECT_THROW(parseBool("2"), std::invalid_argument);
  EXPECT_THROW(parseBool(""), std::invalid_argument);
}

TEST(Config, NumbersAreStrictAndErrorsNameTheKey) {
  // The one value grammar: an unsigned number is digits only, and a value
  // past the getter's width is refused instead of wrapped.
  const auto messageOf = [](const std::string& value, auto get) -> std::string {
    Config config;
    config.set("offset", value);
    try {
      get(config);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "(no exception)";
  };
  const auto u32 = [](const Config& config) { return config.getU32("offset", 0); };
  const auto u64 = [](const Config& config) { return config.getU64("offset", 0); };
  EXPECT_EQ(messageOf("4294967297", u32),
            "option 'offset': '4294967297' does not fit in 32 bits");
  EXPECT_EQ(messageOf("4294967297", u64), "(no exception)");
  EXPECT_EQ(messageOf("18446744073709551616", u64),
            "option 'offset': '18446744073709551616' is not an unsigned integer");
  for (const char* bad : {"-1", " 3", "+3", "3x", "", "0x10"}) {
    EXPECT_NE(messageOf(bad, u64).find("option 'offset': "), std::string::npos) << bad;
  }

  Config config;
  config.set("max", "4294967295");
  EXPECT_EQ(config.getU32("max", 0), 4294967295u);
  EXPECT_EQ(parseU64("18446744073709551615"), 18446744073709551615ull);
}

TEST(Config, TracksUnconsumedKeys) {
  Config config;
  config.set("used", "1");
  config.set("typo", "2");
  config.getU32("used", 0);
  const auto unused = config.unconsumedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
  // A key read while absent still counts as read: typo hints suggest it.
  config.getString("absent", "");
  EXPECT_EQ(config.consumedKeys(), (std::vector<std::string>{"absent", "used"}));
}

}  // namespace
}  // namespace pnoc::sim
