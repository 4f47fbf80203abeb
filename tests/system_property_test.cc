// System-level property sweep: a randomized storm of user operations
// (submit, cancel, pause, resume, quality changes) against the QuaSAQ
// facade must never corrupt resource accounting — buckets never
// overflow, and everything drains to zero when the storm ends.

#include <gtest/gtest.h>

#include "core/system.h"
#include "workload/traffic.h"

namespace quasaq {
namespace {

class SystemStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SystemStormTest, ResourceAccountingSurvivesRandomUserActions) {
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.seed = GetParam();
  options.library.min_duration_seconds = 20.0;
  options.library.max_duration_seconds = 60.0;
  core::MediaDbSystem system(&simulator, options);
  core::UserProfile profile(UserId(1), "storm");
  workload::TrafficOptions traffic_options;
  traffic_options.seed = GetParam() * 17 + 1;
  traffic_options.fraction_secure = 0.2;
  workload::TrafficGenerator traffic(traffic_options, 15,
                                     options.topology.SiteIds());
  Rng rng(GetParam() * 31 + 7);

  std::vector<SessionId> live;
  std::vector<SessionId> paused;
  for (int step = 0; step < 600; ++step) {
    simulator.RunUntil(simulator.Now() +
                       SecondsToSimTime(rng.Uniform(0.0, 2.0)));
    double dice = rng.NextDouble();
    if (dice < 0.5 || live.empty()) {
      workload::QuerySpec spec = traffic.Next();
      core::MediaDbSystem::DeliveryOutcome outcome = system.SubmitDelivery(
          spec.client_site, spec.content, spec.qos, &profile);
      if (outcome.status.ok()) live.push_back(outcome.session);
    } else if (dice < 0.65) {
      size_t index = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      // The session may have completed already; both outcomes are fine.
      (void)system.CancelSession(live[index]);
      live.erase(live.begin() + static_cast<long>(index));
    } else if (dice < 0.8) {
      size_t index = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (system.PauseSession(live[index]).ok()) {
        paused.push_back(live[index]);
        live.erase(live.begin() + static_cast<long>(index));
      }
    } else if (dice < 0.9 && !paused.empty()) {
      size_t index = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(paused.size()) - 1));
      if (system.ResumeSession(paused[index]).ok()) {
        live.push_back(paused[index]);
        paused.erase(paused.begin() + static_cast<long>(index));
      }
    } else {
      size_t index = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      workload::QuerySpec spec = traffic.Next();
      (void)system.ChangeSessionQos(live[index], spec.qos);
    }
    ASSERT_LE(system.pool().MaxUtilization(), 1.0)
        << "bucket overflow at step " << step;
  }

  // Cancel the paused stragglers (they never complete on their own),
  // then drain.
  for (SessionId session : paused) {
    (void)system.CancelSession(session);
  }
  simulator.RunAll();
  EXPECT_EQ(system.outstanding_sessions(), 0);
  EXPECT_EQ(system.pool().MaxUtilization(), 0.0)
      << system.pool().DebugString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemStormTest,
                         ::testing::Range<uint64_t>(1, 7));

// Parser robustness: random garbage must produce a clean error, never a
// crash; random valid queries always parse.
class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, GarbageNeverCrashesTheParser) {
  Rng rng(GetParam());
  const std::string alphabet =
      "SELECT FROM WHERE WITH QOS CONTAINS video () ',= ><0123x9.'\n\t";
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    int length = static_cast<int>(rng.UniformInt(0, 120));
    for (int i = 0; i < length; ++i) {
      input += alphabet[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(alphabet.size()) - 1))];
    }
    Result<query::ParsedQuery> parsed = query::ParseQuery(input);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace quasaq
