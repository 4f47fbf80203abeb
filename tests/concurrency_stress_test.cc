#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
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
#include "simcore/simulator.h"

// Multi-threaded stress tests. The planning, resource, session and
// cache components take no lock of their own: the MediaDbSystem facade
// serializes every call under its one mutex (src/core/system.h). So the
// ledger and cache interleavings below drive the facade from worker
// threads, and the obs primitives, which keep their own leaf locks, are
// driven directly. These are the tests the `tsan` CI leg runs under
// -fsanitize=thread.
//
// The simulator clock stays single-threaded throughout (see the
// MediaDbSystem header): worker threads call the facade while the clock
// stands still, and RunAll happens after every thread has joined.

namespace quasaq {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 400;

query::QosRequirement AnyQuality() {
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  return qos;
}

core::MediaDbSystem::Options StressOptions(core::SystemKind kind,
                                           uint64_t seed) {
  core::MediaDbSystem::Options options;
  options.kind = kind;
  options.topology = net::Topology::Uniform(4);
  options.seed = seed;
  return options;
}

// QuaSAQ with per-site segment caching on: every admission streams its
// replica through the source site's cache.
core::MediaDbSystem::Options CachedQuasaqOptions(uint64_t seed,
                                                 double cache_kb) {
  core::MediaDbSystem::Options options =
      StressOptions(core::SystemKind::kVdbmsQuasaq, seed);
  options.cache.enabled = true;
  options.cache.manager.cache.capacity_kb = cache_kb;
  return options;
}

// DVD resolution at 20 frames/s or more.
query::QosRequirement DvdQuality() {
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionDvd;
  qos.range.min_frame_rate = 20.0;
  return qos;
}

// A quarter of the paper's outbound bandwidth per server: a few dozen
// DVD sessions fill the links.
void NarrowLinks(core::MediaDbSystem::Options& options) {
  for (net::ServerSpec& server : options.topology.servers) {
    server.outbound_kbps = 800.0;
  }
}

// Every bucket of the system's pool is back at zero usage.
void ExpectPoolDrained(core::MediaDbSystem& system) {
  EXPECT_EQ(system.qos_api().active_reservations(), 0u);
  for (const BucketId& bucket : system.pool().Buckets()) {
    EXPECT_EQ(system.pool().Used(bucket), 0.0) << BucketIdToString(bucket);
  }
  EXPECT_EQ(system.pool().MaxUtilization(), 0.0);
}

// Threads admit, hold up to a dozen sessions each and cancel them in
// random order, so acquisitions and releases of the pool interleave
// near capacity, where admissions start to be refused.
TEST(ConcurrencyStressTest, PoolAcquireReleaseNeverCorruptsUsage) {
  sim::Simulator simulator;
  core::MediaDbSystem::Options options =
      CachedQuasaqOptions(/*seed=*/31, /*cache_kb=*/64.0 * 1024);
  NarrowLinks(options);
  core::MediaDbSystem system(&simulator, options);
  const std::vector<SiteId> sites = system.topology().SiteIds();
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::vector<SessionId> held;
      for (int i = 0; i < kIterations / 4; ++i) {
        if (held.size() >= 12 || (!held.empty() && rng.Bernoulli(0.3))) {
          const size_t victim = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int>(held.size()) - 1));
          EXPECT_TRUE(system.CancelSession(held[victim]).ok());
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
          continue;
        }
        const SiteId site = sites[rng.UniformInt(0, 3)];
        core::MediaDbSystem::DeliveryOutcome outcome = system.SubmitDelivery(
            site, LogicalOid(rng.UniformInt(0, 14)), DvdQuality());
        if (outcome.status.ok()) {
          ++admitted;
          held.push_back(outcome.session);
        } else {
          ++rejected;
        }
      }
      for (SessionId id : held) EXPECT_TRUE(system.CancelSession(id).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  const core::MediaDbSystem::Stats stats = system.stats();
  EXPECT_EQ(stats.submitted, admitted + rejected);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_GT(admitted.load(), 0u);
  EXPECT_EQ(system.outstanding_sessions(), 0);
  // Every admitted demand was released: the pool drains to zero.
  ExpectPoolDrained(system);
}

// Reserve/release balance of the Composite QoS API, driven through
// admissions and cancellations. The VDBMS+QoSAPI configuration reserves
// the master-quality stream with no plan choice, so on narrow links the
// API's denial path runs too.
TEST(ConcurrencyStressTest, CompositeApiReserveReleaseBalances) {
  sim::Simulator simulator;
  core::MediaDbSystem::Options options =
      StressOptions(core::SystemKind::kVdbmsQosApi, /*seed=*/37);
  NarrowLinks(options);
  core::MediaDbSystem system(&simulator, options);
  const std::vector<SiteId> sites = system.topology().SiteIds();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2000 + t);
      const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
      std::vector<SessionId> held;
      for (int i = 0; i < kIterations / 4; ++i) {
        if (!held.empty() && rng.Bernoulli(0.5)) {
          EXPECT_TRUE(system.CancelSession(held.back()).ok());
          held.pop_back();
        } else {
          core::MediaDbSystem::DeliveryOutcome outcome =
              system.SubmitDelivery(site, LogicalOid(rng.UniformInt(0, 14)),
                                    AnyQuality());
          if (outcome.status.ok()) held.push_back(outcome.session);
        }
      }
      for (SessionId id : held) EXPECT_TRUE(system.CancelSession(id).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  ExpectPoolDrained(system);
  const res::CompositeQosApi::Stats stats = system.qos_api().stats();
  EXPECT_GT(stats.admitted, 0u);
  EXPECT_EQ(stats.admitted, stats.released);
}

// A cache far smaller than the working set: concurrent admissions fill
// it, hit it and evict from it while EXPLAIN and the operator report
// read it.
TEST(ConcurrencyStressTest, SegmentCacheReadsFillsAndEvictions) {
  sim::Simulator simulator;
  core::MediaDbSystem system(
      &simulator, CachedQuasaqOptions(/*seed=*/41, /*cache_kb=*/8.0 * 1024));
  const std::vector<SiteId> sites = system.topology().SiteIds();
  const std::string explain =
      "EXPLAIN SELECT video FROM videos WHERE CONTAINS('" +
      system.library().contents.front().keywords.front() +
      "') WITH QOS (framerate >= 1)";
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(3000 + t);
      for (int i = 0; i < kIterations / 4; ++i) {
        const SiteId site = sites[rng.UniformInt(0, 3)];
        const double roll = rng.Uniform(0.0, 1.0);
        if (roll < 0.8) {
          core::MediaDbSystem::DeliveryOutcome outcome =
              system.SubmitDelivery(site, LogicalOid(rng.UniformInt(0, 4)),
                                    AnyQuality());
          if (outcome.status.ok()) {
            EXPECT_TRUE(system.CancelSession(outcome.session).ok());
          }
        } else if (roll < 0.9) {
          EXPECT_TRUE(system.ExplainTextQuery(site, explain).ok());
        } else {
          EXPECT_NE(system.ReportString().find("cache total"),
                    std::string::npos);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const cache::CacheManager& manager = *system.cache_manager();
  const cache::SegmentCache::Counters total = manager.TotalCounters();
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.misses, 0u);
  EXPECT_GT(total.evictions, 0u);
  // The registry mirrors every access the caches counted.
  obs::MetricsRegistry& registry = system.observability().metrics();
  double hits = 0.0;
  double misses = 0.0;
  for (SiteId site : sites) {
    const cache::SegmentCache* c = manager.at(site);
    ASSERT_NE(c, nullptr);
    EXPECT_LE(c->used_kb(), c->capacity_kb() + 1e-9);
    const obs::Labels labels = {{"site", std::to_string(site.value())}};
    hits += registry.GetCounter("quasaq_cache_hits_total", "", labels)->value();
    misses +=
        registry.GetCounter("quasaq_cache_misses_total", "", labels)->value();
  }
  EXPECT_EQ(hits, static_cast<double>(total.hits));
  EXPECT_EQ(misses, static_cast<double>(total.misses));
  ExpectPoolDrained(system);
}

// Submitters on every site stream through all four caches at once. In
// between two such phases the driver thread invalidates replicas, as the
// replication manager does on the simulator's thread; a dropped replica
// reads cold everywhere until it streams again.
TEST(ConcurrencyStressTest, CacheManagerParallelSitesAndInvalidation) {
  sim::Simulator simulator;
  core::MediaDbSystem system(
      &simulator, CachedQuasaqOptions(/*seed=*/43, /*cache_kb=*/64.0 * 1024));
  const std::vector<SiteId> sites = system.topology().SiteIds();
  auto run_phase = [&](int seed_base) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(seed_base + t));
        const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
        for (int i = 0; i < kIterations / 8; ++i) {
          core::MediaDbSystem::DeliveryOutcome outcome =
              system.SubmitDelivery(site, LogicalOid(rng.UniformInt(0, 5)),
                                    AnyQuality());
          if (outcome.status.ok()) {
            EXPECT_TRUE(system.CancelSession(outcome.session).ok());
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };

  run_phase(4000);
  cache::CacheManager& manager = *system.cache_manager();
  size_t invalidated = 0;
  for (const media::ReplicaInfo& replica : system.library().replicas) {
    if (replica.content.value() % 2 != 0) continue;
    manager.EraseReplica(replica.id);
    for (SiteId site : sites) {
      EXPECT_EQ(manager.CachedFraction(site, replica), 0.0);
    }
    ++invalidated;
  }
  EXPECT_GT(invalidated, 0u);
  run_phase(4100);

  for (SiteId site : sites) {
    const cache::SegmentCache* c = manager.at(site);
    ASSERT_NE(c, nullptr);
    EXPECT_LE(c->used_kb(), c->capacity_kb() + 1e-9);
    for (const media::ReplicaInfo& replica : system.library().replicas) {
      const double fraction = manager.CachedFraction(site, replica);
      EXPECT_GE(fraction, 0.0);
      EXPECT_LE(fraction, 1.0);
    }
  }
  const cache::SegmentCache::Counters total = manager.TotalCounters();
  EXPECT_GT(total.hits + total.misses, 0u);
  ExpectPoolDrained(system);
}

// The pause/resume interleaving stress: threads start, pause, resume and
// cancel sessions through the facade while the simulated clock stands
// still; the release-exactly-once invariant must survive every
// interleaving. Plain VDBMS pins bitrate per site, QuaSAQ reserves.
TEST(ConcurrencyStressTest, SessionLifecycleInterleavings) {
  constexpr int kSessionsPerThread = 24;
  const core::MediaDbSystem::Options configs[] = {
      StressOptions(core::SystemKind::kVdbms, /*seed=*/47),
      CachedQuasaqOptions(/*seed=*/47, /*cache_kb=*/64.0 * 1024)};
  for (const core::MediaDbSystem::Options& options : configs) {
    SCOPED_TRACE(std::string(core::SystemKindName(options.kind)));
    sim::Simulator simulator;
    core::MediaDbSystem system(&simulator, options);
    const std::vector<SiteId> sites = system.topology().SiteIds();
    std::atomic<uint64_t> completions{0};
    system.set_on_session_complete(
        [&completions](SessionId, SimTime) { ++completions; });

    // Phase 1: concurrent admissions.
    std::vector<std::vector<SessionId>> started(kThreads);
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          Rng rng(5000 + t);
          for (int i = 0; i < kSessionsPerThread; ++i) {
            core::MediaDbSystem::DeliveryOutcome outcome =
                system.SubmitDelivery(sites[rng.UniformInt(0, 3)],
                                      LogicalOid(rng.UniformInt(0, 14)),
                                      AnyQuality());
            if (outcome.status.ok()) started[t].push_back(outcome.session);
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    uint64_t total_started = 0;
    for (const std::vector<SessionId>& ids : started) {
      ASSERT_FALSE(ids.empty());
      total_started += ids.size();
    }
    ASSERT_EQ(system.outstanding_sessions(),
              static_cast<int>(total_started));

    // Phase 2: concurrent pause/resume/cancel, each thread also poking
    // sessions owned by its neighbor so transitions genuinely contend.
    // Every running set is a subset of the one phase 1 admitted, so a
    // resume always fits.
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
              status = system.PauseSession(id);
            } else if (roll < 0.80) {
              status = system.ResumeSession(id);
            } else if (roll < 0.85) {
              if (system.CancelSession(id).ok()) ++cancelled;
              continue;
            } else {
              (void)system.FindSession(id);
              continue;
            }
            // Losing a race is legal (already paused / running / gone);
            // resource exhaustion is not.
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
        std::optional<core::SessionManager::Record> record =
            system.FindSession(id);
        if (record.has_value() && record->paused) {
          EXPECT_TRUE(system.ResumeSession(id).ok());
        }
      }
    }
    simulator.RunAll();

    EXPECT_EQ(system.outstanding_sessions(), 0);
    EXPECT_EQ(completions.load() + cancelled.load(), total_started);
    EXPECT_EQ(system.stats().completed, completions.load());
    // Release-exactly-once: every reservation returned, every VDBMS pin
    // unwound, the pool fully drained.
    ExpectPoolDrained(system);
    for (SiteId site : sites) {
      EXPECT_EQ(system.session_manager().vdbms_active_kbps(site), 0.0);
    }
  }
}

// The full admission pipeline under 8 submitter threads: concurrent
// admit / renegotiate / probe / cancel through the MediaDbSystem facade,
// with tracing off or on, under either optimization goal, and under the
// Random cost model. Each thread owns the sessions it starts, so the
// races under test are the facade's serialization of the shared layers
// and the tracer and metrics registry it reports into, not cross-thread
// session ownership.
struct PipelineConfig {
  const char* name;
  bool tracing;
  core::QualityManager::OptimizationGoal goal;
  const char* cost_model;
};

constexpr PipelineConfig kPipelineConfigs[] = {
    {"untraced_throughput", false,
     core::QualityManager::OptimizationGoal::kThroughput, "lrb"},
    {"traced_satisfaction", true,
     core::QualityManager::OptimizationGoal::kUserSatisfaction, "lrb"},
    // The Random model draws every plan's cost from one shared RNG.
    {"random", false, core::QualityManager::OptimizationGoal::kThroughput,
     "random"},
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
  options.cost_model = config().cost_model;
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
        EXPECT_TRUE(system.FindSession(outcome.session).has_value());
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
