#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace quasaq {

double Rng::NextDouble() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double Rng::Normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::ClampedNormal(double mean, double stddev, double lo, double hi) {
  assert(lo <= hi);
  return std::clamp(Normal(mean, stddev), lo, hi);
}

bool Rng::Bernoulli(double p) {
  return NextDouble() < std::clamp(p, 0.0, 1.0);
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double draw = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (draw < acc) return i;
  }
  return weights.size() - 1;
}

size_t Rng::Zipf(size_t n, double s) {
  assert(n > 0);
  // Direct inversion over the (small) rank space; n is at most a few
  // thousand in our workloads, so the linear scan is fine.
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return WeightedIndex(weights);
}

}  // namespace quasaq
