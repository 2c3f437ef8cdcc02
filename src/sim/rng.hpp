// Deterministic pseudo-random number generation for the simulator.
//
// Cycle-accurate NoC experiments must be reproducible: a given seed must
// produce the exact same packet stream on every platform.  std::mt19937_64
// is seedable but its distributions (std::uniform_int_distribution etc.) are
// implementation defined, so we ship our own generator (xoshiro256**) and our
// own distribution helpers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace pnoc::sim {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from a single seed via SplitMix64,
  /// which guarantees a non-zero, well-mixed initial state.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  std::uint64_t next();
  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t nextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double nextDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool nextBool(double p);

  /// Number of failing Bernoulli(p) trials before the first success, drawn
  /// by RUNNING the trials themselves (one nextBool per trial).  The result
  /// is geometric by construction, and — crucially for the timer-driven
  /// injectors — the stream position afterwards is exactly where per-trial
  /// sampling would have left it, so pre-drawing a whole inter-arrival gap
  /// is bit-identical to flipping the coin every cycle.  p >= 1 returns 0
  /// without consuming state (as nextBool does).  Precondition: p > 0.
  std::uint64_t nextGeometricTrials(double p);

  /// Splits off an independent stream (useful to give each core its own RNG
  /// so per-core behaviour is independent of simulation interleaving).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Samples indices 0..n-1 with the given non-negative weights.
/// Weights need not be normalized; all-zero weights degrade to uniform.
class DiscreteDistribution {
 public:
  DiscreteDistribution() = default;
  explicit DiscreteDistribution(std::span<const double> weights);

  /// Number of categories.
  std::size_t size() const { return cumulative_.size(); }
  bool empty() const { return cumulative_.empty(); }

  /// Draws a category index. Precondition: !empty().
  std::size_t sample(Rng& rng) const;

  /// Probability of category i after normalization (for tests/inspection).
  double probability(std::size_t i) const;

 private:
  std::vector<double> cumulative_;  // strictly increasing, back() == total
  double total_ = 0.0;
};

}  // namespace pnoc::sim
