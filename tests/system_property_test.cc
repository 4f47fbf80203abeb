// System-level property sweep: a randomized storm of user operations
// (submit, cancel, pause, resume, quality changes) against the QuaSAQ
// facade must never corrupt resource accounting — buckets never
// overflow, and everything drains to zero when the storm ends. The
// CatalogWrites instances run the storm with dynamic replication and
// segment caching on, so replica inserts and drops in the metadata
// catalog interleave with the user operations.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "core/system.h"
#include "workload/traffic.h"

namespace quasaq {
namespace {

struct StormCase {
  uint64_t seed = 0;
  bool catalog_writes = false;
};

// Prints the seed alone, which names each instance.
void PrintTo(const StormCase& storm, std::ostream* os) { *os << storm.seed; }

std::vector<StormCase> StormCases(bool catalog_writes) {
  std::vector<StormCase> cases;
  for (uint64_t seed = 1; seed < 7; ++seed) {
    cases.push_back({seed, catalog_writes});
  }
  return cases;
}

class SystemStormTest : public ::testing::TestWithParam<StormCase> {};

TEST_P(SystemStormTest, ResourceAccountingSurvivesRandomUserActions) {
  const uint64_t seed = GetParam().seed;
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.seed = seed;
  options.library.min_duration_seconds = 20.0;
  options.library.max_duration_seconds = 60.0;
  if (GetParam().catalog_writes) {
    options.cache.enabled = true;
    options.replication.enabled = true;
    options.replication.manager.period = 10 * kSecond;
    options.replication.manager.demand_window = 30 * kSecond;
    options.replication.manager.policy.consolidate_cold_replicas = true;
  }
  core::MediaDbSystem system(&simulator, options);
  core::UserProfile profile(UserId(1), "storm");
  workload::TrafficOptions traffic_options;
  traffic_options.seed = seed * 17 + 1;
  traffic_options.fraction_secure = 0.2;
  workload::TrafficGenerator traffic(traffic_options, 15,
                                     options.topology.SiteIds());
  Rng rng(seed * 31 + 7);

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
  // The replication timer never runs dry; stop it so the drain ends.
  if (GetParam().catalog_writes) system.replication_manager()->Stop();
  simulator.RunAll();
  EXPECT_EQ(system.outstanding_sessions(), 0);
  EXPECT_EQ(system.pool().MaxUtilization(), 0.0)
      << system.pool().DebugString();
  if (GetParam().catalog_writes) {
    // The storm really wrote to the catalog.
    const repl::ReplicationManager::Stats& stats =
        system.replication_manager()->stats();
    EXPECT_GE(stats.created, 1u);
    EXPECT_GE(stats.dropped, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemStormTest,
                         ::testing::ValuesIn(StormCases(false)));
INSTANTIATE_TEST_SUITE_P(CatalogWrites, SystemStormTest,
                         ::testing::ValuesIn(StormCases(true)));

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
