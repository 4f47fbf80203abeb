#ifndef QUASAQ_COMMON_RNG_H_
#define QUASAQ_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

// Seeded random number generation. Every stochastic component in QuaSAQ
// receives an explicit Rng so that experiments are reproducible; there is
// no global generator and no wall-clock seeding.

namespace quasaq {

// Pseudo-random source with the distribution helpers the simulator and
// workload generators need. Not thread-safe; use one per logical stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Returns a uniform draw from [0, 1).
  double NextDouble();

  /// Returns a uniform draw from [lo, hi).
  double Uniform(double lo, double hi);

  /// Returns a uniform integer draw from [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns an exponential draw with the given mean (> 0).
  double Exponential(double mean);

  /// Returns a normal draw; values are NOT clamped.
  double Normal(double mean, double stddev);

  /// Returns a normal draw clamped to [lo, hi].
  double ClampedNormal(double mean, double stddev, double lo, double hi);

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Returns an index in [0, weights.size()) drawn proportionally to
  /// `weights`; all weights must be non-negative with a positive sum.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Returns a Zipf(s) draw over ranks [0, n); s = 0 degenerates to
  /// uniform. Used to model skewed video popularity in extensions of the
  /// paper's uniform-access workload.
  size_t Zipf(size_t n, double s);

 private:
  std::mt19937_64 engine_;
};

}  // namespace quasaq

#endif  // QUASAQ_COMMON_RNG_H_
