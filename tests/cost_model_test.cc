#include "core/cost_model.h"

#include <gtest/gtest.h>

#include "core/cost_evaluator.h"

namespace quasaq::core {
namespace {

BucketId Cpu(int site) { return {SiteId(site), ResourceKind::kCpu}; }
BucketId Net(int site) {
  return {SiteId(site), ResourceKind::kNetworkBandwidth};
}

// ResourcePool owns a mutex and is pinned in place; fill in situ.
void FillTwoSitePool(res::ResourcePool& pool) {
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 100.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Cpu(1), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Net(1), 100.0).ok());
}

TEST(LrbCostModelTest, EmptySystemCostEqualsLargestDemandFill) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  LrbCostModel lrb;
  ResourceVector demand;
  demand.Add(Cpu(0), 0.2);
  demand.Add(Net(0), 50.0);
  EXPECT_NEAR(lrb.Cost(demand, pool), 0.5, 1e-12);
}

TEST(LrbCostModelTest, IncludesCurrentUsage) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  ResourceVector used;
  used.Add(Cpu(1), 0.7);
  ASSERT_TRUE(pool.Acquire(used).ok());
  LrbCostModel lrb;
  ResourceVector demand;
  demand.Add(Cpu(0), 0.2);
  // The hot untouched bucket (site1 cpu at 0.7) dominates.
  EXPECT_NEAR(lrb.Cost(demand, pool), 0.7, 1e-12);
  // A plan stacked on the hot bucket costs more.
  ResourceVector stacked;
  stacked.Add(Cpu(1), 0.2);
  EXPECT_NEAR(lrb.Cost(stacked, pool), 0.9, 1e-12);
}

TEST(LrbCostModelTest, PrefersLoadBalancingPlacement) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  ResourceVector used;
  used.Add(Net(0), 60.0);
  ASSERT_TRUE(pool.Acquire(used).ok());
  LrbCostModel lrb;
  ResourceVector on_hot;
  on_hot.Add(Net(0), 30.0);
  ResourceVector on_cold;
  on_cold.Add(Net(1), 30.0);
  EXPECT_LT(lrb.Cost(on_cold, pool), lrb.Cost(on_hot, pool));
}

TEST(LrbCostModelTest, MatchesPaperFormula) {
  // f(r) = max_i (U_i + r_i) / R_i over all buckets (paper Eq. 1).
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  ResourceVector used;
  used.Add(Cpu(0), 0.30);
  used.Add(Net(0), 42.0);
  ASSERT_TRUE(pool.Acquire(used).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.15);
  demand.Add(Net(0), 15.0);
  LrbCostModel lrb;
  // cpu: 0.45, net: 0.57 -> max 0.57.
  EXPECT_NEAR(lrb.Cost(demand, pool), 0.57, 1e-12);
}

TEST(RandomCostModelTest, DeterministicGivenSeed) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  ResourceVector demand;
  RandomCostModel a(5);
  RandomCostModel b(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.Cost(demand, pool), b.Cost(demand, pool));
  }
}

TEST(RandomCostModelTest, IgnoresDemand) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  RandomCostModel model(5);
  ResourceVector heavy;
  heavy.Add(Cpu(0), 0.99);
  for (int i = 0; i < 100; ++i) {
    double cost = model.Cost(heavy, pool);
    EXPECT_GE(cost, 0.0);
    EXPECT_LT(cost, 1.0);
  }
}

TEST(MinTotalCostModelTest, SumsNormalizedDemand) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  MinTotalCostModel model;
  ResourceVector demand;
  demand.Add(Cpu(0), 0.2);
  demand.Add(Net(0), 30.0);
  EXPECT_NEAR(model.Cost(demand, pool), 0.5, 1e-12);
  // Current usage is ignored by design.
  ResourceVector used;
  used.Add(Cpu(0), 0.7);
  ASSERT_TRUE(pool.Acquire(used).ok());
  EXPECT_NEAR(model.Cost(demand, pool), 0.5, 1e-12);
}

TEST(WeightedSumCostModelTest, PenalizesHotBucketsQuadratically) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  ResourceVector used;
  used.Add(Net(0), 60.0);
  ASSERT_TRUE(pool.Acquire(used).ok());
  WeightedSumCostModel model;
  ResourceVector on_hot;
  on_hot.Add(Net(0), 30.0);
  ResourceVector on_cold;
  on_cold.Add(Net(1), 30.0);
  EXPECT_LT(model.Cost(on_cold, pool), model.Cost(on_hot, pool));
}

TEST(CostModelFactoryTest, KnownNames) {
  EXPECT_EQ(MakeCostModel("lrb")->name(), "LRB");
  EXPECT_EQ(MakeCostModel("LRB")->name(), "LRB");
  EXPECT_EQ(MakeCostModel("random", 3)->name(), "Random");
  EXPECT_EQ(MakeCostModel("mintotal")->name(), "MinTotal");
  EXPECT_EQ(MakeCostModel("WeightedSum")->name(), "WeightedSum");
  EXPECT_EQ(MakeCostModel("bogus"), nullptr);
}

// --- RuntimeCostEvaluator -------------------------------------------------

Plan PlanWithDemand(double cpu0, double net0, double cpu1 = 0.0) {
  Plan plan;
  plan.replica_oid = PhysicalOid(1);
  plan.source_site = SiteId(0);
  plan.delivery_site = SiteId(0);
  if (cpu0 > 0.0) plan.resources.Add(Cpu(0), cpu0);
  if (net0 > 0.0) plan.resources.Add(Net(0), net0);
  if (cpu1 > 0.0) plan.resources.Add(Cpu(1), cpu1);
  return plan;
}

TEST(RuntimeCostEvaluatorTest, RanksAscendingByCost) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  LrbCostModel lrb;
  RuntimeCostEvaluator evaluator(&lrb);
  std::vector<Plan> plans;
  plans.push_back(PlanWithDemand(0.8, 0.0));   // cost 0.8
  plans.push_back(PlanWithDemand(0.1, 0.0));   // cost 0.1
  plans.push_back(PlanWithDemand(0.0, 40.0));  // cost 0.4
  evaluator.Rank(plans, pool);
  EXPECT_NEAR(plans[0].resources.Get(Cpu(0)), 0.1, 1e-12);
  EXPECT_NEAR(plans[1].resources.Get(Net(0)), 40.0, 1e-12);
  EXPECT_NEAR(plans[2].resources.Get(Cpu(0)), 0.8, 1e-12);
}

TEST(RuntimeCostEvaluatorTest, TieBreaksOnTotalDemand) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  // Pre-load site 1 so it dominates every LRB cost identically.
  ResourceVector used;
  used.Add(Cpu(1), 0.9);
  ASSERT_TRUE(pool.Acquire(used).ok());
  LrbCostModel lrb;
  RuntimeCostEvaluator evaluator(&lrb);
  std::vector<Plan> plans;
  plans.push_back(PlanWithDemand(0.5, 10.0));  // larger total demand
  plans.push_back(PlanWithDemand(0.1, 10.0));  // smaller total demand
  evaluator.Rank(plans, pool);
  EXPECT_NEAR(plans[0].resources.Get(Cpu(0)), 0.1, 1e-12);
}

TEST(RuntimeCostEvaluatorTest, GainDividesCost) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  LrbCostModel lrb;
  RuntimeCostEvaluator evaluator(&lrb);
  // Gain = delivered quality: mark one plan as twice as valuable.
  auto gain = [](const Plan& plan) {
    return plan.resources.Get(Cpu(0)) > 0.3 ? 4.0 : 1.0;
  };
  std::vector<Plan> plans;
  plans.push_back(PlanWithDemand(0.2, 0.0));  // cost 0.2 / 1
  plans.push_back(PlanWithDemand(0.4, 0.0));  // cost 0.4 / 4 = 0.1
  evaluator.Rank(plans, pool, gain);
  EXPECT_NEAR(plans[0].resources.Get(Cpu(0)), 0.4, 1e-12);
  // The gain is the call's own: the next call without one ranks by pure
  // cost again.
  evaluator.Rank(plans, pool);
  EXPECT_NEAR(plans[0].resources.Get(Cpu(0)), 0.2, 1e-12);
}

TEST(RuntimeCostEvaluatorTest, EmptyAndSingleInputsAreFine) {
  res::ResourcePool pool;
  FillTwoSitePool(pool);
  LrbCostModel lrb;
  RuntimeCostEvaluator evaluator(&lrb);
  std::vector<Plan> empty;
  evaluator.Rank(empty, pool);
  EXPECT_TRUE(empty.empty());
  std::vector<Plan> one;
  one.push_back(PlanWithDemand(0.1, 0.0));
  evaluator.Rank(one, pool);
  EXPECT_EQ(one.size(), 1u);
}

}  // namespace
}  // namespace quasaq::core
