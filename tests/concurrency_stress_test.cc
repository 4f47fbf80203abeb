#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <thread>
#include <vector>

#include "cache/cache_manager.h"
#include "cache/segment_cache.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/plan_generator.h"
#include "core/session_manager.h"
#include "core/system.h"
#include "metadata/metadata_store.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resource/composite_api.h"
#include "resource/pool.h"
#include "simcore/simulator.h"

// Multi-threaded stress tests for the subsystems that carry thread-safety
// annotations (src/common/sync.h): ResourcePool, CompositeQosApi,
// SegmentCache/CacheManager, and SessionManager. These are the tests the
// `tsan` CI leg runs under -fsanitize=thread — the annotations promise
// the locking discipline is *declared* correctly; TSan on these
// interleavings checks the declarations describe reality.
//
// The simulator clock stays single-threaded throughout (see the
// SessionManager header): worker threads mutate sessions while the
// clock stands still, and RunAll happens after every thread has joined.

namespace quasaq {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 400;

BucketId Net(int site) {
  return {SiteId(site), ResourceKind::kNetworkBandwidth};
}

TEST(ConcurrencyStressTest, PoolAcquireReleaseNeverCorruptsUsage) {
  res::ResourcePool pool;
  for (int site = 0; site < 4; ++site) {
    ASSERT_TRUE(pool.DeclareBucket(Net(site), 1000.0).ok());
  }
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &admitted, &rejected, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kIterations; ++i) {
        ResourceVector demand;
        demand.Add(Net(static_cast<int>(rng.UniformInt(0, 3))),
                   rng.Uniform(1.0, 400.0));
        if (pool.Acquire(demand).ok()) {
          ++admitted;
          // The snapshot any concurrent reader costs against is
          // internally consistent: usage never exceeds capacity.
          EXPECT_LE(pool.MaxUtilization(), 1.0);
          ASSERT_TRUE(pool.Release(demand).ok());
        } else {
          ++rejected;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(admitted + rejected, uint64_t{kThreads} * kIterations);
  // Every admitted demand was released: the pool drains to zero.
  for (int site = 0; site < 4; ++site) {
    EXPECT_EQ(pool.Used(Net(site)), 0.0);
  }
}

TEST(ConcurrencyStressTest, CompositeApiReserveReleaseBalances) {
  res::ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 500.0).ok());
  obs::MetricsRegistry registry;
  res::CompositeQosApi api(&pool, registry);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&api, t] {
      Rng rng(2000 + t);
      std::vector<res::ReservationId> held;
      for (int i = 0; i < kIterations; ++i) {
        if (!held.empty() && rng.Bernoulli(0.5)) {
          EXPECT_TRUE(api.Release(held.back()).ok());
          held.pop_back();
        } else {
          ResourceVector demand;
          demand.Add(Net(0), rng.Uniform(1.0, 60.0));
          Result<res::ReservationId> r = api.Reserve(demand);
          if (r.ok()) held.push_back(*r);
        }
      }
      for (res::ReservationId id : held) {
        EXPECT_TRUE(api.Release(id).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(api.active_reservations(), 0u);
  EXPECT_EQ(pool.Used(Net(0)), 0.0);
  res::CompositeQosApi::Stats stats = api.stats();
  EXPECT_EQ(stats.admitted, stats.released);
}

TEST(ConcurrencyStressTest, SegmentCacheReadsFillsAndEvictions) {
  // Tiny capacity: fills, evictions, and rejections all exercised.
  cache::SegmentCache segment_cache(
      {.capacity_kb = 64.0, .policy = "lru", .popularity_half_life = 0});
  std::atomic<uint64_t> accesses{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&segment_cache, &accesses, t] {
      Rng rng(3000 + t);
      for (int i = 0; i < kIterations; ++i) {
        PhysicalOid replica(static_cast<int>(rng.UniformInt(0, 3)));
        cache::SegmentKey key{replica,
                              static_cast<int32_t>(rng.UniformInt(0, 15))};
        double roll = rng.Uniform(0.0, 1.0);
        if (roll < 0.70) {
          segment_cache.Access(key, 4.0, SimTime(i) * kSecond);
          ++accesses;
        } else if (roll < 0.80) {
          segment_cache.Contains(key);  // planner peek, no side effects
        } else if (roll < 0.90) {
          EXPECT_GE(segment_cache.CachedKbOf(replica), 0.0);
        } else if (roll < 0.95) {
          segment_cache.Erase(key);
        } else {
          segment_cache.EraseReplica(replica);
        }
        EXPECT_LE(segment_cache.used_kb(),
                  segment_cache.capacity_kb() + 1e-9);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  cache::SegmentCache::Counters counters = segment_cache.counters();
  EXPECT_EQ(counters.hits + counters.misses, accesses.load());
  EXPECT_LE(segment_cache.used_kb(), segment_cache.capacity_kb() + 1e-9);
}

TEST(ConcurrencyStressTest, CacheManagerParallelSitesAndInvalidation) {
  std::vector<SiteId> sites = {SiteId(0), SiteId(1), SiteId(2), SiteId(3)};
  cache::CacheManager::Options options;
  options.cache.capacity_kb = 512.0;
  options.cache.policy = "utility";
  cache::CacheManager manager(sites, options);

  std::vector<media::ReplicaInfo> replicas(6);
  for (size_t r = 0; r < replicas.size(); ++r) {
    replicas[r].id = PhysicalOid(static_cast<int64_t>(r));
    replicas[r].content = LogicalOid(static_cast<int64_t>(r));
    replicas[r].site = sites[r % sites.size()];
    replicas[r].duration_seconds = 40.0;
    replicas[r].bitrate_kbps = 16.0;
    replicas[r].size_kb = 640.0;
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager, &replicas, &sites, t] {
      Rng rng(4000 + t);
      for (int i = 0; i < kIterations / 4; ++i) {
        const media::ReplicaInfo& replica =
            replicas[rng.UniformInt(0, static_cast<int>(replicas.size()) - 1)];
        SiteId site = sites[rng.UniformInt(0, 3)];
        double roll = rng.Uniform(0.0, 1.0);
        if (roll < 0.6) {
          manager.OnStream(site, replica, SimTime(i) * kSecond);
        } else if (roll < 0.9) {
          double fraction = manager.CachedFraction(site, replica);
          EXPECT_GE(fraction, 0.0);
          EXPECT_LE(fraction, 1.0);
        } else {
          manager.EraseReplica(replica.id);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (SiteId site : sites) {
    const cache::SegmentCache* c = manager.at(site);
    ASSERT_NE(c, nullptr);
    EXPECT_LE(c->used_kb(), c->capacity_kb() + 1e-9);
  }
  cache::SegmentCache::Counters total = manager.TotalCounters();
  EXPECT_GT(total.hits + total.misses, 0u);
}

// The pause/resume interleaving stress: threads start, pause, resume and
// cancel sessions concurrently while the simulated clock stands still;
// the release-exactly-once invariant must survive every interleaving.
TEST(ConcurrencyStressTest, SessionLifecycleInterleavings) {
  constexpr int kSessionsPerThread = 24;
  sim::Simulator simulator;
  res::ResourcePool pool;
  // Big enough that every Start and every Resume re-admission fits:
  // the invariant under test is bookkeeping, not admission pressure.
  ASSERT_TRUE(
      pool.DeclareBucket(Net(0), 1e9).ok());
  obs::Observability observability;
  res::CompositeQosApi api(&pool, observability.metrics());
  core::SessionManager manager(&simulator, &api, observability);
  std::atomic<uint64_t> completions{0};
  manager.set_on_complete(
      [&completions](SessionId, SimTime) { ++completions; });

  // Phase 1: concurrent admissions (reservation-backed and VDBMS-pinned
  // sessions mixed).
  std::vector<std::vector<SessionId>> started(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(5000 + t);
        for (int i = 0; i < kSessionsPerThread; ++i) {
          core::SessionManager::Record record;
          record.content = LogicalOid(i);
          record.site = SiteId(0);
          if (rng.Bernoulli(0.7)) {
            ResourceVector demand;
            demand.Add(Net(0), rng.Uniform(100.0, 900.0));
            Result<res::ReservationId> r = api.Reserve(demand);
            ASSERT_TRUE(r.ok());
            record.reservation = *r;
          } else {
            record.vdbms_units = ToResourceUnits(rng.Uniform(100.0, 900.0));
          }
          started[t].push_back(
              manager.Start(record, rng.Uniform(10.0, 120.0)));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_EQ(manager.outstanding(), kThreads * kSessionsPerThread);

  // Phase 2: concurrent pause/resume/cancel, each thread also poking
  // sessions owned by its neighbor so transitions genuinely contend.
  std::atomic<uint64_t> cancelled{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(6000 + t);
        const std::vector<SessionId>& mine = started[t];
        const std::vector<SessionId>& neighbor =
            started[(t + 1) % kThreads];
        for (int i = 0; i < kIterations; ++i) {
          const std::vector<SessionId>& from =
              rng.Bernoulli(0.8) ? mine : neighbor;
          SessionId id =
              from[rng.UniformInt(0, static_cast<int>(from.size()) - 1)];
          double roll = rng.Uniform(0.0, 1.0);
          Status status = Status::Ok();
          if (roll < 0.40) {
            status = manager.Pause(id);
          } else if (roll < 0.80) {
            status = manager.Resume(id);
          } else if (roll < 0.85) {
            if (manager.Cancel(id).ok()) ++cancelled;
            continue;
          } else {
            (void)manager.vdbms_active_kbps(SiteId(0));
            continue;
          }
          // Losing a race is legal (already paused / running / gone);
          // resource exhaustion is not — capacity covers everything.
          EXPECT_NE(status.code(), StatusCode::kResourceExhausted)
              << status.ToString();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Drain: resume whatever is still paused, then run the clock out.
  for (const std::vector<SessionId>& ids : started) {
    for (SessionId id : ids) {
      const core::SessionManager::Record* record = manager.Find(id);
      if (record != nullptr && record->paused) {
        EXPECT_TRUE(manager.Resume(id).ok());
      }
    }
  }
  simulator.RunAll();

  EXPECT_EQ(manager.outstanding(), 0);
  EXPECT_EQ(completions.load() + cancelled.load(),
            uint64_t{kThreads} * kSessionsPerThread);
  EXPECT_EQ(manager.completed(), completions.load());
  // Release-exactly-once: every reservation returned, every VDBMS pin
  // unwound, the pool fully drained.
  EXPECT_EQ(api.active_reservations(), 0u);
  EXPECT_EQ(pool.Used(Net(0)), 0.0);
  EXPECT_EQ(manager.vdbms_active_kbps(SiteId(0)), 0.0);
}

// The full admission pipeline under 8 submitter threads: concurrent
// admit / renegotiate / probe / cancel through the MediaDbSystem facade,
// with tracing off or on and under either optimization goal (the gain
// and the trace context are per-query arguments, not shared state).
// Each thread owns the sessions it starts, so the races under test are
// the shared layers — the composite QoS API, the session table, the
// tracer and the metrics registry — not cross-thread session ownership.
struct PipelineConfig {
  const char* name;
  bool tracing;
  core::QualityManager::OptimizationGoal goal;
};

constexpr PipelineConfig kPipelineConfigs[] = {
    {"untraced_throughput", false,
     core::QualityManager::OptimizationGoal::kThroughput},
    {"traced_satisfaction", true,
     core::QualityManager::OptimizationGoal::kUserSatisfaction},
};

// The parameter indexes kPipelineConfigs, which keeps the listed test
// names short.
class ConcurrencyPipelineTest : public ::testing::TestWithParam<size_t> {
 protected:
  const PipelineConfig& config() const { return kPipelineConfigs[GetParam()]; }
};

TEST_P(ConcurrencyPipelineTest, AdmitRenegotiateCancelPipeline) {
  constexpr int kOpsPerThread = 150;
  const bool tracing = config().tracing;
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(4);
  options.seed = 17;
  options.observability.tracing = tracing;
  options.quality.goal = config().goal;
  core::MediaDbSystem system(&simulator, options);
  const std::vector<SiteId> sites = system.topology().SiteIds();

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> renegotiated{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
      query::QosRequirement wide;
      wide.range.min_frame_rate = 1.0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        LogicalOid content(static_cast<int64_t>((i + 3 * t) % 15));
        core::MediaDbSystem::DeliveryOutcome outcome =
            system.SubmitDelivery(site, content, wide);
        if (!outcome.status.ok()) continue;  // admission pressure is fine
        ++admitted;
        if (rng.Bernoulli(0.4)) {
          Result<core::MediaDbSystem::DeliveryOutcome> changed =
              system.ChangeSessionQos(outcome.session, wide);
          if (changed.ok()) ++renegotiated;
        }
        std::optional<core::SessionManager::Record> record =
            system.session_manager().Snapshot(outcome.session);
        EXPECT_TRUE(record.has_value());
        EXPECT_TRUE(system.CancelSession(outcome.session).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every admitted session was cancelled by its owner: table empty,
  // every reservation handed back, the pool fully drained.
  EXPECT_EQ(system.outstanding_sessions(), 0);
  EXPECT_EQ(system.qos_api().active_reservations(), 0u);
  EXPECT_DOUBLE_EQ(system.pool().MaxUtilization(), 0.0);
  core::MediaDbSystem::Stats stats = system.stats();
  EXPECT_EQ(stats.submitted, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.admitted + stats.rejected, stats.submitted);
  // The quality manager's atomic counters reconcile with the outcome
  // tallies (renegotiations happen via ChangeSessionQos, which must not
  // count as fresh queries).
  core::QualityManager::Stats plan_stats =
      system.quality_manager()->stats();
  EXPECT_EQ(plan_stats.queries, stats.submitted);
  EXPECT_EQ(plan_stats.admitted, admitted.load());
  EXPECT_GT(renegotiated.load(), 0u);
  // The exposition renders cleanly after the dust settles.
  core::MediaDbSystem::ObservabilitySnapshot snapshot =
      system.TakeObservabilitySnapshot();
  EXPECT_NE(snapshot.prometheus.find("quasaq_session_started_total"),
            std::string::npos);
  // Every span a walk opened on its delivery's track was closed there.
  if (tracing) {
    EXPECT_GT(system.observability().tracer().event_count(), 0u);
    EXPECT_EQ(system.observability().tracer().unbalanced_ends(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ConcurrencyPipelineTest,
    ::testing::Range<size_t>(0, std::size(kPipelineConfigs)),
    [](const auto& info) {
      return std::string(kPipelineConfigs[info.param].name);
    });

// Each admission observes its own stream's plans into the per-query
// histogram, however many admissions run beside it: the histogram's sum
// is the plan counter and its count the query counter.
TEST(ConcurrencyStressTest, PerQueryPlanHistogramCountsEachAdmissionOnce) {
  constexpr int kAdmissionsPerThread = 60;
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(4);
  options.seed = 23;
  core::MediaDbSystem system(&simulator, options);
  const std::vector<SiteId> sites = system.topology().SiteIds();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
      query::QosRequirement wide;
      wide.range.min_frame_rate = 1.0;
      for (int i = 0; i < kAdmissionsPerThread; ++i) {
        LogicalOid content(static_cast<int64_t>((i + 5 * t) % 15));
        (void)system.SubmitDelivery(site, content, wide);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  obs::MetricsRegistry& registry = system.observability().metrics();
  const obs::Histogram::Snapshot per_query =
      registry
          .GetHistogram("quasaq_plan_generated_per_query_count", "",
                        obs::HistogramOptions{1.0, 2.0, 12})
          ->snapshot();
  const double generated =
      registry.GetCounter("quasaq_plan_generated_total", "")->value();
  const double queries =
      registry.GetCounter("quasaq_plan_queries_total", "")->value();
  EXPECT_EQ(queries, static_cast<double>(kThreads * kAdmissionsPerThread));
  EXPECT_GT(generated, 0.0);
  // The histogram keeps its sum as mean * count, so it matches to
  // within rounding; a plan counted into another admission's sample
  // would move it by at least 1.
  EXPECT_NEAR(per_query.sum, generated, 0.5);
  EXPECT_EQ(static_cast<double>(per_query.count), queries);
}

// The plan generator prices each (stored quality, relayed) key on first
// use. Here the first admissions of a fresh system race to do so: every
// thread waits at a start line, then admits at once. The store must end
// with one entry per key of the catalog, each priced whole — the tables
// filtered from it equal a fresh single-threaded generator's, bit for
// bit.
TEST(ConcurrencyStressTest, FirstAdmissionsRaceToPriceCandidates) {
  constexpr int kAdmissionsPerThread = 20;
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(4);
  options.seed = 29;
  core::MediaDbSystem system(&simulator, options);
  const std::vector<SiteId> sites = system.topology().SiteIds();
  const core::PlanGenerator& generator =
      system.quality_manager()->generator();
  ASSERT_EQ(generator.candidate_keys(), 0u);

  query::QosRequirement wide;
  wide.range.min_frame_rate = 1.0;
  std::atomic<int> waiting{kThreads};
  std::atomic<uint64_t> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (int i = 0; i < kAdmissionsPerThread; ++i) {
        LogicalOid content(static_cast<int64_t>((i + 2 * t) % 15));
        core::MediaDbSystem::DeliveryOutcome outcome =
            system.SubmitDelivery(site, content, wide);
        if (!outcome.status.ok()) continue;
        ++admitted;
        EXPECT_TRUE(system.CancelSession(outcome.session).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(admitted.load(), 0u);

  // Every title is stored at every site, so each stored quality has a
  // local and a relayed key.
  std::vector<media::AppQos> qualities;
  meta::MetadataStore metadata;
  for (const media::VideoContent& content : system.library().contents) {
    ASSERT_TRUE(metadata.InsertContent(content).ok());
  }
  for (const media::ReplicaInfo& replica : system.library().replicas) {
    ASSERT_TRUE(metadata.InsertReplica(replica).ok());
    if (std::find(qualities.begin(), qualities.end(), replica.qos) ==
        qualities.end()) {
      qualities.push_back(replica.qos);
    }
  }
  EXPECT_EQ(generator.candidate_keys(), 2 * qualities.size());

  const core::PlanGenerator fresh(&metadata, sites, generator.options());
  for (const media::VideoContent& content : system.library().contents) {
    Result<std::vector<core::PlanGenerator::GroupSeed>> groups =
        fresh.EnumerateGroups(sites[0], content.id);
    ASSERT_TRUE(groups.ok());
    for (const core::PlanGenerator::GroupSeed& seed : *groups) {
      const core::PlanGenerator::ChoiceTable raced =
          generator.BuildChoiceTable(seed, wide);
      const core::PlanGenerator::ChoiceTable want =
          fresh.BuildChoiceTable(seed, wide);
      EXPECT_EQ(raced.forward_cpu, want.forward_cpu);
      EXPECT_EQ(raced.min_wire_kbps, want.min_wire_kbps);
      EXPECT_EQ(raced.min_cpu, want.min_cpu);
      ASSERT_EQ(raced.choices.size(), want.choices.size());
      for (size_t i = 0; i < want.choices.size(); ++i) {
        EXPECT_EQ(raced.choices[i].target, want.choices[i].target);
        EXPECT_EQ(raced.choices[i].drop, want.choices[i].drop);
        EXPECT_EQ(raced.choices[i].rates.delivered_qos,
                  want.choices[i].rates.delivered_qos);
        EXPECT_EQ(raced.choices[i].rates.wire_rate_kbps,
                  want.choices[i].rates.wire_rate_kbps);
        EXPECT_EQ(raced.choices[i].rates.base_cpu_ms_per_second,
                  want.choices[i].rates.base_cpu_ms_per_second);
      }
    }
  }
  // Comparing added no key.
  EXPECT_EQ(generator.candidate_keys(), 2 * qualities.size());
}

// The metrics registry is the one object every instrumented subsystem
// shares, so it gets hammered from all sides: lookups (which mutate the
// family maps), CAS-loop increments, histogram observes, and full
// exposition renders, all concurrently.
TEST(ConcurrencyStressTest, MetricsRegistrySharedAndLabeledUpdates) {
  obs::MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      const std::string thread_label = std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        // Re-resolving every iteration stresses the registry lock, not
        // just the instruments.
        registry.GetCounter("quasaq_stress_ops_total", "all threads")
            ->Increment();
        registry
            .GetCounter("quasaq_stress_thread_ops_total", "per thread",
                        {{"thread", thread_label}})
            ->Increment();
        registry.GetGauge("quasaq_stress_level_count", "last writer wins")
            ->Set(static_cast<double>(i));
        registry
            .GetHistogram("quasaq_stress_value_count", "observations",
                          obs::HistogramOptions{1.0, 2.0, 8})
            ->Observe(static_cast<double>(i % 50));
        if (i % 97 == 0) {
          EXPECT_FALSE(registry.PrometheusText().empty());
          EXPECT_FALSE(registry.JsonSnapshot().empty());
          EXPECT_GE(registry.MetricNames().size(), 1u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The lock-free CAS loop must not lose increments.
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("quasaq_stress_ops_total", "all threads")->value(),
      static_cast<double>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        registry
            .GetCounter("quasaq_stress_thread_ops_total", "per thread",
                        {{"thread", std::to_string(t)}})
            ->value(),
        static_cast<double>(kIterations));
  }
  EXPECT_EQ(registry
                .GetHistogram("quasaq_stress_value_count", "observations",
                              obs::HistogramOptions{1.0, 2.0, 8})
                ->count(),
            uint64_t{kThreads} * kIterations);
}

// Spans from many deliveries interleave in the shared event buffer but
// each track keeps its own stack; concurrent exports must see a
// consistent buffer.
TEST(ConcurrencyStressTest, TracerParallelTracksStayBalanced) {
  obs::Tracer tracer;
  std::vector<int64_t> tracks(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    tracks[t] = tracer.NewTrack("stress track " + std::to_string(t));
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &tracks, t] {
      const int64_t track = tracks[t];
      for (int i = 0; i < kIterations; ++i) {
        tracer.Begin(track, "delivery", SimTime(i));
        tracer.Begin(track, "plan.enumerate", SimTime(i));
        tracer.Instant(track, "plan.relax", SimTime(i));
        tracer.End(track, SimTime(i));
        if (i % 3 == 0) {
          tracer.End(track, SimTime(i));
        } else {
          tracer.EndAll(track, SimTime(i));
        }
        if (i % 101 == 0) {
          (void)tracer.snapshot();
          (void)tracer.event_count();
          EXPECT_FALSE(tracer.ChromeTraceJson().empty());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracer.unbalanced_ends(), 0u);
  for (int64_t track : tracks) {
    EXPECT_EQ(tracer.OpenSpans(track), 0);
  }
}

// SetLogLevel/GetLogLevel are an atomic, so readers may race the writer
// freely; every LogMessage consults the level in its constructor. The
// messages themselves stay below the flipped levels so the test is
// silent — the point is the level handshake, not the output.
TEST(ConcurrencyStressTest, LogLevelFlipsWhileEveryThreadLogs) {
  const LogLevel initial = GetLogLevel();
  std::atomic<bool> stop{false};
  std::thread flipper([&stop] {
    const LogLevel levels[] = {LogLevel::kInfo, LogLevel::kWarning,
                               LogLevel::kError};
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      SetLogLevel(levels[i++ % 3]);
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIterations; ++i) {
        QUASAQ_LOG(kDebug) << "thread " << t << " iteration " << i;
        LogLevel seen = GetLogLevel();
        EXPECT_GE(static_cast<int>(seen),
                  static_cast<int>(LogLevel::kDebug));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  SetLogLevel(initial);
}

}  // namespace
}  // namespace quasaq
