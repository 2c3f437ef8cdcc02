// InProcessBackend: scenario execution on a std::thread pool in this address
// space (one of two ExecutionBackend implementations).
//
// Scenario jobs are embarrassingly parallel — each builds its own
// PhotonicNetwork (own engine, RNG streams, packet slab) — and results land
// by index, so thread count and scheduling cannot change any number.
#pragma once

#include <functional>

#include "scenario/execution_backend.hpp"

namespace pnoc::scenario {

class InProcessBackend : public ExecutionBackend {
 public:
  /// `threads` == 0: auto (see resolveWorkerCount).
  explicit InProcessBackend(unsigned threads = 0) : threads_(threads) {}

  std::string name() const override { return "threads"; }
  unsigned workersFor(std::size_t jobCount) const override {
    return resolveWorkerCount(threads_, jobCount);
  }

  std::vector<ScenarioOutcome> execute(const std::vector<ScenarioJob>& jobs) override;

 private:
  /// Runs fn(i) for every i in [0, n) across the pool.  Results are indexed
  /// by i; the first exception thrown by any worker is rethrown after all
  /// workers join.
  void forEach(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  unsigned threads_;
};

}  // namespace pnoc::scenario
