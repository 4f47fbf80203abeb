#include "core/cost_model.h"

#include <algorithm>
#include <cctype>

namespace quasaq::core {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

double LrbCostModel::Cost(const ResourceVector& demand,
                          const res::ResourcePool& pool) {
  // Fullest bucket once the demand is overlaid: the touched buckets
  // plus the pool's fullest untouched one.
  return pool.OverlayMaxFill(demand);
}

double RandomCostModel::Cost(const ResourceVector& demand,
                             const res::ResourcePool& pool) {
  (void)demand;
  (void)pool;
  return rng_.NextDouble();
}

double MinTotalCostModel::Cost(const ResourceVector& demand,
                               const res::ResourcePool& pool) {
  return pool.FractionalDemand(demand);
}

double WeightedSumCostModel::Cost(const ResourceVector& demand,
                                  const res::ResourcePool& pool) {
  // Quadratic fill penalty: loading an already-hot bucket costs more
  // than the same demand on a cold one.
  return pool.OverlaySquaredFill(demand);
}

std::unique_ptr<CostModel> MakeCostModel(std::string_view name,
                                         uint64_t seed) {
  if (EqualsIgnoreCase(name, "lrb")) {
    return std::make_unique<LrbCostModel>();
  }
  if (EqualsIgnoreCase(name, "random")) {
    return std::make_unique<RandomCostModel>(seed);
  }
  if (EqualsIgnoreCase(name, "mintotal")) {
    return std::make_unique<MinTotalCostModel>();
  }
  if (EqualsIgnoreCase(name, "weightedsum")) {
    return std::make_unique<WeightedSumCostModel>();
  }
  return nullptr;
}

}  // namespace quasaq::core
