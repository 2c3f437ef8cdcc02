// obs::CycleProfiler — attributes engine wall time to phases and component
// kinds.
//
// The engine's per-cycle loop has five phases (timer expiry, wake-queue
// drain, evaluate, advance, park scan); within the two component phases the
// time further splits by component KIND (policy token ring, photonic router,
// electrical router, link, core).  The profiler is a bag of plain uint64
// nanosecond accumulators the engine adds into from its profiling observer —
// no locks, single writer, read via snapshot().
//
// The engine has one step body, templated on an observer that sees each
// component step and the end of each phase.  Engine::run() picks the
// observer once per call: without a profiler its hooks are empty and compile
// away, so a disabled profiler costs one pointer test per run() and nothing
// per cycle or component; with one, the hooks bracket each phase and each
// same-kind component run with steady_clock reads.  Results stay
// bit-identical either way (asserted by tests/obs/profiler_test.cpp) because
// both runs execute the same body and the observer only adds timing.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace pnoc::obs {

class Registry;

/// Coarse component taxonomy for profile attribution.  Components report
/// theirs via sim::Clocked::profileKind(); unknown subclasses land in kOther.
enum class ComponentKind : std::uint8_t {
  kOther = 0,
  kPolicy,            // arbitration policy machinery (token ring)
  kPhotonicRouter,    // photonic tx/eject scan
  kElectricalRouter,  // electrical router evaluate/advance
  kLink,              // pipeline links
  kCore,              // traffic-generating cores
};
inline constexpr std::size_t kComponentKindCount = 6;

const char* toString(ComponentKind kind);

class CycleProfiler {
 public:
  enum class Phase : std::uint8_t {
    kTimerExpire = 0,  // timer-heap pops due this cycle
    kWakeDrain,        // sorted wake-queue merge
    kEvaluate,         // phase 1 across all components
    kAdvance,          // phase 2 across all components
    kParkScan,         // quiescence scan + active-list compaction
  };
  static constexpr std::size_t kPhaseCount = 5;

  static const char* phaseName(Phase phase);

  // --- accumulation (engine-side, single writer, hot) ---
  void addPhase(Phase phase, std::uint64_t ns) {
    phaseNs_[static_cast<std::size_t>(phase)] += ns;
  }
  void addKind(ComponentKind kind, std::uint64_t ns, std::uint64_t steps) {
    kindNs_[static_cast<std::size_t>(kind)] += ns;
    kindSteps_[static_cast<std::size_t>(kind)] += steps;
  }
  void addCycle() { ++cycles_; }

  void reset();

  // --- reporting ---
  struct Snapshot {
    std::uint64_t cycles = 0;
    std::array<std::uint64_t, kPhaseCount> phaseNs{};
    std::array<std::uint64_t, kComponentKindCount> kindNs{};
    std::array<std::uint64_t, kComponentKindCount> kindSteps{};

    std::uint64_t totalNs() const;
    /// {"cycles":..,"total_ns":..,"phases":{"evaluate_ns":..},
    ///  "kinds":{"link":{"ns":..,"steps":..},..}} — zero kinds elided.
    std::string toJson() const;
  };
  Snapshot snapshot() const;

  /// Publishes the current totals into a registry as gauges named
  /// profile_<phase>_ns / profile_kind_<kind>_ns / profile_kind_<kind>_steps
  /// plus profile_cycles — the bridge from the profiler's private cells to
  /// the common exposition path.
  void publishTo(Registry& registry) const;

 private:
  std::uint64_t cycles_ = 0;
  std::array<std::uint64_t, kPhaseCount> phaseNs_{};
  std::array<std::uint64_t, kComponentKindCount> kindNs_{};
  std::array<std::uint64_t, kComponentKindCount> kindSteps_{};
};

}  // namespace pnoc::obs
