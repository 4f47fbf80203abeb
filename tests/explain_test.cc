// EXPLAIN path: plan enumeration and ranking exposed without execution.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "core/system.h"
#include "query/parser.h"

namespace quasaq::core {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest()
      : ExplainTest("lrb", QualityManager::OptimizationGoal::kThroughput) {}
  ExplainTest(const std::string& cost_model,
              QualityManager::OptimizationGoal goal) {
    MediaDbSystem::Options options;
    options.kind = SystemKind::kVdbmsQuasaq;
    options.seed = 3;
    options.cost_model = cost_model;
    options.quality.goal = goal;
    system_ = std::make_unique<MediaDbSystem>(&simulator_, options);
    keyword_ = system_->library().contents[0].keywords[0];
  }

  std::string Query(bool explain) {
    return std::string(explain ? "EXPLAIN " : "") +
           "SELECT video FROM videos WHERE CONTAINS('" + keyword_ +
           "') WITH QOS (framerate >= 5)";
  }

  sim::Simulator simulator_;
  std::unique_ptr<MediaDbSystem> system_;
  std::string keyword_;
};

TEST_F(ExplainTest, ParserRecognizesExplainPrefix) {
  Result<query::ParsedQuery> parsed = query::ParseQuery(Query(true));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->explain);
  Result<query::ParsedQuery> plain = query::ParseQuery(Query(false));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);
}

// The listing runs under every cost model and optimization goal, and
// the cost it shows is the key the plans were ranked by: C(r)/G, drawn
// once per plan (the Random model draws a fresh cost on every call).
struct RankingConfig {
  const char* name;
  const char* cost_model;
  QualityManager::OptimizationGoal goal;
};

constexpr RankingConfig kRankingConfigs[] = {
    {"lrb_throughput", "lrb", QualityManager::OptimizationGoal::kThroughput},
    {"lrb_satisfaction", "lrb",
     QualityManager::OptimizationGoal::kUserSatisfaction},
    {"random_throughput", "random",
     QualityManager::OptimizationGoal::kThroughput},
    {"random_satisfaction", "random",
     QualityManager::OptimizationGoal::kUserSatisfaction},
};

// The parameter indexes kRankingConfigs, which keeps the listed test
// names short.
class ExplainRankingTest : public ExplainTest,
                           public ::testing::WithParamInterface<size_t> {
 protected:
  ExplainRankingTest()
      : ExplainTest(kRankingConfigs[GetParam()].cost_model,
                    kRankingConfigs[GetParam()].goal) {}
};

TEST_P(ExplainRankingTest, RanksPlansWithoutReservingAnything) {
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(true));
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  ASSERT_FALSE(explanation->plans.empty());
  EXPECT_LE(explanation->plans.size(), 10u);
  // Ranked ascending by cost; all admissible on an idle system.
  double previous = -1.0;
  for (const QualityManager::RankedPlan& entry : explanation->plans) {
    EXPECT_GE(entry.cost, previous);
    previous = entry.cost;
    EXPECT_TRUE(entry.admissible);
  }
  // Nothing was executed or reserved.
  EXPECT_EQ(system_->outstanding_sessions(), 0);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Models, ExplainRankingTest,
    ::testing::Range<size_t>(0, std::size(kRankingConfigs)),
    [](const auto& info) {
      return std::string(kRankingConfigs[info.param].name);
    });

TEST_F(ExplainTest, WorksWithoutThePrefixToo) {
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(false));
  ASSERT_TRUE(explanation.ok());
  EXPECT_FALSE(explanation->plans.empty());
}

TEST_F(ExplainTest, LimitCapsTheListing) {
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(true), 3);
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->plans.size(), 3u);
}

TEST_F(ExplainTest, AdmissibilityReflectsSystemLoad) {
  // Saturate the network everywhere: high-rate plans turn inadmissible.
  for (const net::ServerSpec& server : system_->topology().servers) {
    ResourceVector used;
    used.Add({server.id, ResourceKind::kNetworkBandwidth},
             server.outbound_kbps - 10.0);
    ASSERT_TRUE(system_->pool().Acquire(used).ok());
  }
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(true), 50);
  ASSERT_TRUE(explanation.ok());
  bool any_inadmissible = false;
  for (const QualityManager::RankedPlan& entry : explanation->plans) {
    if (entry.plan.wire_rate_kbps > 10.0) {
      EXPECT_FALSE(entry.admissible) << entry.plan.ToString();
      any_inadmissible = true;
    }
  }
  EXPECT_TRUE(any_inadmissible);
}

TEST_F(ExplainTest, SubmitRejectsExplainQueries) {
  Result<MediaDbSystem::TextQueryOutcome> outcome =
      system_->SubmitTextQuery(SiteId(0), Query(true));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExplainTest, ToStringListsEveryPlan) {
  Result<MediaDbSystem::Explanation> explanation =
      system_->ExplainTextQuery(SiteId(0), Query(true), 5);
  ASSERT_TRUE(explanation.ok());
  std::string text = explanation->ToString();
  EXPECT_NE(text.find("EXPLAIN: 5 plans"), std::string::npos);
  EXPECT_NE(text.find("cost="), std::string::npos);
  EXPECT_NE(text.find("KB/s"), std::string::npos);
}

// EXPLAIN materializes and costs plans like an admission, so the plan
// counters of stats() and of the registry must agree after any mix of
// admissions, renegotiations and EXPLAINs.
// Admissions, renegotiations and EXPLAIN each feed the plan counters,
// and stats() reads those counters from the registry.
TEST_F(ExplainTest, PlanCountersAgreeWithTheRegistry) {
  const QualityManager& manager = *system_->quality_manager();
  uint64_t generated_so_far = 0;
  auto generated_grew = [&] {
    const uint64_t now = manager.stats().plans_generated;
    const bool grew = now > generated_so_far;
    generated_so_far = now;
    return grew;
  };
  Result<MediaDbSystem::TextQueryOutcome> admitted =
      system_->SubmitTextQuery(SiteId(0), Query(false));
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  ASSERT_TRUE(admitted->delivery.status.ok());
  EXPECT_TRUE(generated_grew());
  query::QosRequirement lower;
  lower.range.min_frame_rate = 1.0;
  ASSERT_TRUE(
      system_->ChangeSessionQos(admitted->delivery.session, lower).ok());
  EXPECT_TRUE(generated_grew());
  ASSERT_TRUE(system_->ExplainTextQuery(SiteId(0), Query(true)).ok());
  EXPECT_TRUE(generated_grew());

  const QualityManager::Stats stats = manager.stats();
  obs::MetricsRegistry& registry = system_->observability().metrics();
  const double generated =
      registry
          .GetCounter("quasaq_plan_generated_total",
                      "Plans materialized and costed")
          ->value();
  const double pruned =
      registry
          .GetCounter("quasaq_plan_groups_pruned_total",
                      "Search branches the LRB lower bound cut off")
          ->value();
  EXPECT_GT(stats.plans_generated, 0u);
  EXPECT_EQ(static_cast<double>(stats.plans_generated), generated);
  EXPECT_EQ(static_cast<double>(stats.groups_pruned), pruned);
}

TEST(ExplainOnVdbmsTest, RequiresQuasaq) {
  sim::Simulator simulator;
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbms;
  MediaDbSystem system(&simulator, options);
  Result<MediaDbSystem::Explanation> explanation =
      system.ExplainTextQuery(SiteId(0), "SELECT v FROM videos");
  ASSERT_FALSE(explanation.ok());
  EXPECT_EQ(explanation.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace quasaq::core
