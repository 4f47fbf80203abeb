// Resource telemetry records one point per change: each bucket's gauge
// history must be the "every bucket on every sample" history with
// consecutive repeated values dropped — the same step function — and
// the facade must sample after every call that moves utilization.

#include "resource/telemetry.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/system.h"

namespace quasaq {
namespace {

constexpr char kGaugeName[] = "quasaq_resource_utilization_ratio";
constexpr char kGaugeHelp[] = "Bucket fill U_i / R_i the LRB cost model reads";

obs::Gauge* GaugeOf(obs::MetricsRegistry& registry, const BucketId& bucket) {
  return registry.GetGauge(
      kGaugeName, kGaugeHelp,
      {{"site", std::to_string(bucket.site.value())},
       {"kind", std::string(ResourceKindName(bucket.kind))}});
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// `samples` with every sample whose value repeats the one before it
// dropped.
std::vector<TimeSeries::Sample> CollapseRepeats(
    const std::vector<TimeSeries::Sample>& samples) {
  std::vector<TimeSeries::Sample> out;
  for (const TimeSeries::Sample& sample : samples) {
    if (out.empty() || Bits(out.back().value) != Bits(sample.value)) {
      out.push_back(sample);
    }
  }
  return out;
}

// Declares every kind at sites [first, first + count), with capacities
// small enough that a few demands fill a bucket.
void DeclareSites(res::ResourcePool& pool, int first, int count) {
  const double capacities[] = {1.0, 2.0, 3.0, 5.0, 8.0};
  for (int site = first; site < first + count; ++site) {
    for (size_t kind = 0; kind < kNumResourceKinds; ++kind) {
      const BucketId bucket{SiteId(site), static_cast<ResourceKind>(kind)};
      ASSERT_TRUE(pool.DeclareBucket(bucket, capacities[kind]).ok());
    }
  }
}

// Random acquires (some of which overflow and change nothing) and
// releases over a 6-site pool, sampled after every step, some steps at
// the same sim time. The reference records every bucket at every step.
TEST(PoolTelemetryTest, HistoryIsEveryStepHistoryWithRepeatsCollapsed) {
  constexpr int kSites = 6;
  constexpr int kSteps = 4000;
  res::ResourcePool pool;
  DeclareSites(pool, 0, kSites);
  obs::MetricsRegistry registry;
  res::PoolTelemetry telemetry(&pool, &registry);
  const std::vector<BucketId> buckets = pool.Buckets();
  std::map<BucketId, std::vector<TimeSeries::Sample>> reference;

  Rng rng(17);
  std::vector<ResourceVector> live;
  SimTime now = 0;
  std::vector<SimTime> step_times;
  for (int step = 0; step < kSteps; ++step) {
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.5 || live.empty()) {
      ResourceVector demand;
      const int touched = static_cast<int>(rng.UniformInt(1, 3));
      for (int i = 0; i < touched; ++i) {
        demand.Add(buckets[rng.UniformInt(
                       0, static_cast<int64_t>(buckets.size()) - 1)],
                   0.25 * static_cast<double>(rng.UniformInt(1, 4)));
      }
      if (pool.Acquire(demand).ok()) live.push_back(demand);
    } else if (roll < 0.9) {
      const size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(pool.Release(live[victim]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }  // else: an event that moved nothing
    if (rng.Bernoulli(0.8)) now += static_cast<SimTime>(rng.UniformInt(1, 9));
    telemetry.Sample(now);
    step_times.push_back(now);
    for (const BucketId& bucket : buckets) {
      reference[bucket].push_back({now, pool.Utilization(bucket)});
    }
  }

  size_t recorded = 0;
  size_t referenced = 0;
  for (const BucketId& bucket : buckets) {
    SCOPED_TRACE(BucketIdToString(bucket));
    const TimeSeries history = GaugeOf(registry, bucket)->history();
    const std::vector<TimeSeries::Sample> expected =
        CollapseRepeats(reference[bucket]);
    ASSERT_EQ(history.samples().size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(history.samples()[i].time, expected[i].time) << i;
      EXPECT_EQ(Bits(history.samples()[i].value), Bits(expected[i].value))
          << i;
    }
    // The same step function: ValueAt agrees at every sampled time.
    TimeSeries full;
    for (const TimeSeries::Sample& sample : reference[bucket]) {
      full.Add(sample.time, sample.value);
    }
    for (SimTime time : step_times) {
      ASSERT_EQ(Bits(history.ValueAt(time)), Bits(full.ValueAt(time)))
          << "t=" << time;
    }
    EXPECT_EQ(Bits(GaugeOf(registry, bucket)->value()),
              Bits(pool.Utilization(bucket)));
    recorded += history.samples().size();
    referenced += reference[bucket].size();
  }
  // The sequence both moves buckets and repeats them.
  EXPECT_GT(recorded, buckets.size());
  EXPECT_LT(recorded, referenced / 2);
}

TEST(PoolTelemetryTest, FirstSampleOfEveryBucketIsKept) {
  res::ResourcePool pool;
  DeclareSites(pool, 0, 3);
  obs::MetricsRegistry registry;
  res::PoolTelemetry telemetry(&pool, &registry);
  // Nothing has moved, so every bucket reads 0 at its first sample and
  // at the samples after it.
  telemetry.Sample(5 * kSecond);
  telemetry.Sample(6 * kSecond);
  ResourceVector demand;
  demand.Add({SiteId(1), ResourceKind::kCpu}, 0.5);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  telemetry.Sample(7 * kSecond);
  for (const BucketId& bucket : pool.Buckets()) {
    SCOPED_TRACE(BucketIdToString(bucket));
    const std::vector<TimeSeries::Sample> samples =
        GaugeOf(registry, bucket)->history().samples();
    const bool moved = bucket == BucketId{SiteId(1), ResourceKind::kCpu};
    ASSERT_EQ(samples.size(), moved ? 2u : 1u);
    EXPECT_EQ(samples[0].time, 5 * kSecond);
    EXPECT_EQ(Bits(samples[0].value), Bits(0.0));
    if (moved) {
      EXPECT_EQ(samples[1].time, 7 * kSecond);
      EXPECT_EQ(samples[1].value, 0.5);
    }
  }
}

TEST(PoolTelemetryTest, PrimeResolvesBucketsDeclaredLater) {
  res::ResourcePool pool;
  DeclareSites(pool, 0, 1);
  obs::MetricsRegistry registry;
  res::PoolTelemetry telemetry(&pool, &registry);
  telemetry.Sample(kSecond);
  DeclareSites(pool, 1, 2);
  const BucketId late{SiteId(2), ResourceKind::kMemory};
  const std::string late_series =
      std::string(kGaugeName) + "{site=\"2\",kind=\"mem\"}";
  EXPECT_EQ(registry.PrometheusText().find(late_series), std::string::npos);
  telemetry.Prime();
  EXPECT_NE(registry.PrometheusText().find(late_series), std::string::npos);

  ResourceVector demand;
  demand.Add(late, 2.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  telemetry.Sample(2 * kSecond);
  // The late buckets get their first sample; site 0 did not move.
  for (const BucketId& bucket : pool.Buckets()) {
    SCOPED_TRACE(BucketIdToString(bucket));
    const std::vector<TimeSeries::Sample> samples =
        GaugeOf(registry, bucket)->history().samples();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].time, bucket.site == SiteId(0) ? kSecond
                                                          : 2 * kSecond);
    EXPECT_EQ(Bits(samples[0].value), Bits(pool.Utilization(bucket)));
  }
  EXPECT_EQ(GaugeOf(registry, late)->value(), 0.4);
}

// Every utilization gauge reads its bucket's fill, and so does the last
// point of its history.
void ExpectGaugesMatchPool(core::MediaDbSystem& system) {
  for (const BucketId& bucket : system.pool().Buckets()) {
    SCOPED_TRACE(BucketIdToString(bucket));
    obs::Gauge* gauge = GaugeOf(system.observability().metrics(), bucket);
    const double fill = system.pool().Utilization(bucket);
    EXPECT_EQ(Bits(gauge->value()), Bits(fill));
    const TimeSeries history = gauge->history();
    ASSERT_FALSE(history.empty());
    EXPECT_EQ(Bits(history.samples().back().value), Bits(fill));
  }
}

core::MediaDbSystem::Options QuasaqOptions() {
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.seed = 3;
  options.library.min_duration_seconds = 60.0;
  options.library.max_duration_seconds = 90.0;
  return options;
}

query::QosRequirement AnyQuality() {
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  return qos;
}

TEST(SystemTelemetryTest, GaugesFollowCancelPauseAndResume) {
  sim::Simulator simulator;
  core::MediaDbSystem system(&simulator, QuasaqOptions());
  std::vector<SessionId> sessions;
  for (int i = 0; i < 4; ++i) {
    core::MediaDbSystem::DeliveryOutcome outcome = system.SubmitDelivery(
        SiteId(i % 3), LogicalOid(i), AnyQuality());
    ASSERT_TRUE(outcome.status.ok());
    sessions.push_back(outcome.session);
  }
  ExpectGaugesMatchPool(system);
  simulator.RunUntil(kSecond);

  ASSERT_TRUE(system.PauseSession(sessions[0]).ok());
  ExpectGaugesMatchPool(system);
  ASSERT_TRUE(system.CancelSession(sessions[1]).ok());
  ExpectGaugesMatchPool(system);
  ASSERT_TRUE(system.ResumeSession(sessions[0]).ok());
  ExpectGaugesMatchPool(system);
  // A paused session holds nothing, so cancelling it moves nothing.
  ASSERT_TRUE(system.PauseSession(sessions[2]).ok());
  ASSERT_TRUE(system.CancelSession(sessions[2]).ok());
  ExpectGaugesMatchPool(system);
  // Failed calls change nothing.
  EXPECT_FALSE(system.ResumeSession(sessions[3]).ok());
  EXPECT_FALSE(system.CancelSession(sessions[1]).ok());
  ExpectGaugesMatchPool(system);

  simulator.RunAll();
  ExpectGaugesMatchPool(system);
  EXPECT_EQ(system.pool().MaxUtilization(), 0.0);
}

// Threads admit, pause, resume and cancel through the facade while the
// clock stands still, so the telemetry's per-bucket state is written
// from every thread under the facade lock; afterwards every gauge still
// reads its bucket.
TEST(SystemTelemetryTest, ConcurrentSessionControlKeepsGaugesCurrent) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  sim::Simulator simulator;
  core::MediaDbSystem system(&simulator, QuasaqOptions());
  const std::vector<SiteId> sites = system.topology().SiteIds();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&system, &sites, t] {
      Rng rng(900 + t);
      std::vector<SessionId> mine;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const double roll = rng.Uniform(0.0, 1.0);
        if (mine.empty() || roll < 0.4) {
          core::MediaDbSystem::DeliveryOutcome outcome = system.SubmitDelivery(
              sites[rng.UniformInt(0, static_cast<int64_t>(sites.size()) - 1)],
              LogicalOid(rng.UniformInt(0, 14)), AnyQuality());
          if (outcome.status.ok()) mine.push_back(outcome.session);
          continue;
        }
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mine.size()) - 1));
        if (roll < 0.6) {
          (void)system.PauseSession(mine[pick]);
        } else if (roll < 0.85) {
          (void)system.ResumeSession(mine[pick]);
        } else if (system.CancelSession(mine[pick]).ok()) {
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ExpectGaugesMatchPool(system);
  simulator.RunAll();
  ExpectGaugesMatchPool(system);
}

}  // namespace
}  // namespace quasaq
