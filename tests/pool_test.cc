#include "resource/pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace quasaq::res {
namespace {

BucketId Cpu(int site) { return {SiteId(site), ResourceKind::kCpu}; }
BucketId Net(int site) {
  return {SiteId(site), ResourceKind::kNetworkBandwidth};
}

TEST(ResourcePoolTest, DeclareAndQuery) {
  ResourcePool pool;
  EXPECT_EQ(pool.Capacity(Cpu(0)), 0.0);
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  EXPECT_DOUBLE_EQ(pool.Capacity(Cpu(0)), 1.0);
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
  EXPECT_DOUBLE_EQ(pool.Utilization(Cpu(0)), 0.0);
}

TEST(ResourcePoolTest, DeclareRejectsInvalidSite) {
  ResourcePool pool;
  const BucketId invalid{SiteId(), ResourceKind::kCpu};
  EXPECT_EQ(pool.DeclareBucket(invalid, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Capacity(invalid), 0.0);
  EXPECT_TRUE(pool.Buckets().empty());
  // A demand on it is an undeclared bucket like any other.
  ResourceVector demand;
  demand.Add(invalid, 1.0);
  EXPECT_EQ(pool.Acquire(demand).code(), StatusCode::kNotFound);
}

TEST(ResourcePoolTest, AcquireChargesBuckets) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 3200.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.25);
  demand.Add(Net(0), 800.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_DOUBLE_EQ(pool.Utilization(Cpu(0)), 0.25);
  EXPECT_DOUBLE_EQ(pool.Utilization(Net(0)), 0.25);
}

TEST(ResourcePoolTest, AcquireIsAtomicOnOverflow) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 100.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.5);
  demand.Add(Net(0), 150.0);  // overflows net
  EXPECT_EQ(pool.Acquire(demand).code(), StatusCode::kResourceExhausted);
  // Nothing was charged.
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
  EXPECT_DOUBLE_EQ(pool.Used(Net(0)), 0.0);
}

TEST(ResourcePoolTest, FailedAcquireReportsEveryOverflowingKind) {
  ResourcePool pool;
  for (int site = 0; site < 2; ++site) {
    ASSERT_TRUE(pool.DeclareBucket(Cpu(site), 1.0).ok());
    ASSERT_TRUE(pool.DeclareBucket(Net(site), 100.0).ok());
  }
  ResourceVector demand;
  demand.Add(Cpu(0), 0.5);    // fits
  demand.Add(Cpu(1), 1.5);    // overflows
  demand.Add(Net(0), 150.0);  // overflows
  demand.Add(Net(1), 101.0);  // overflows
  ResourcePool::KindCounts overflowed{};
  EXPECT_EQ(pool.Acquire(demand, &overflowed).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(overflowed[static_cast<size_t>(ResourceKind::kCpu)], 1u);
  EXPECT_EQ(
      overflowed[static_cast<size_t>(ResourceKind::kNetworkBandwidth)], 2u);
  EXPECT_EQ(overflowed[static_cast<size_t>(ResourceKind::kDiskBandwidth)],
            0u);
  // A demand that fits reports nothing.
  ResourcePool::KindCounts none{};
  ResourceVector fits;
  fits.Add(Net(0), 100.0);  // exactly full is a fit
  EXPECT_TRUE(pool.Acquire(fits, &none).ok());
  EXPECT_EQ(none, ResourcePool::KindCounts{});
}

TEST(ResourcePoolTest, UndeclaredBucketIsNotFound) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Net(0), 1.0);
  EXPECT_EQ(pool.Acquire(demand).code(), StatusCode::kNotFound);
  EXPECT_FALSE(pool.Fits(demand));
}

TEST(ResourcePoolTest, FitsChecksWithoutCharging) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.9);
  EXPECT_TRUE(pool.Fits(demand));
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_FALSE(pool.Fits(demand));
}

TEST(ResourcePoolTest, ExactFillIsAccepted) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 1.0);
  EXPECT_TRUE(pool.Acquire(demand).ok());
  EXPECT_NEAR(pool.Utilization(Cpu(0)), 1.0, 1e-12);
}

TEST(ResourcePoolTest, ReleaseRestoresCapacity) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.6);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_TRUE(pool.Release(demand).ok());
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
}

TEST(ResourcePoolTest, ReleaseClampsAtZero) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.6);
  // An over-release is clamped *and* reported.
  EXPECT_EQ(pool.Release(demand).code(),  // never acquired
            StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(pool.Used(Cpu(0)), 0.0);
}

TEST(ResourcePoolTest, RepeatedAcquireAccumulates) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.4);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_EQ(pool.Acquire(demand).code(), StatusCode::kResourceExhausted);
  EXPECT_NEAR(pool.Utilization(Cpu(0)), 0.8, 1e-12);
}

TEST(ResourcePoolTest, BucketsReturnsSortedIds) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Net(1), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Cpu(1), 1.0).ok());
  auto buckets = pool.Buckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], Cpu(0));
  EXPECT_EQ(buckets[1], Cpu(1));
  EXPECT_EQ(buckets[2], Net(1));
}

TEST(ResourcePoolTest, MaxUtilizationTracksHottestBucket) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ASSERT_TRUE(pool.DeclareBucket(Net(0), 100.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.2);
  demand.Add(Net(0), 70.0);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_NEAR(pool.MaxUtilization(), 0.7, 1e-12);
}

TEST(ResourcePoolTest, DebugStringListsBuckets) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  std::string s = pool.DebugString();
  EXPECT_NE(s.find("site0/cpu"), std::string::npos);
}

// A bucket is declared once: a second declaration below its usage would
// leave it above capacity.
TEST(ResourcePoolTest, RedeclareFailsAndChangesNothing) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 1.0).ok());
  ResourceVector demand;
  demand.Add(Cpu(0), 0.5);
  ASSERT_TRUE(pool.Acquire(demand).ok());
  EXPECT_EQ(pool.DeclareBucket(Cpu(0), 0.25).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(pool.Capacity(Cpu(0)), 1.0);
  EXPECT_EQ(pool.Used(Cpu(0)), 0.5);
  EXPECT_EQ(pool.MaxUtilization(), 0.5);
}

TEST(ResourcePoolTest, DeclareRejectsCapacitiesOutsideTheUnitRange) {
  ResourcePool pool;
  // Below one unit, and above 2^52 units (4.5036e15), where fills would
  // no longer be exact.
  EXPECT_EQ(pool.DeclareBucket(Cpu(0), 4e-7).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.DeclareBucket(Cpu(0), 4.6e9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(pool.Buckets().empty());
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 4.5e9).ok());
  EXPECT_EQ(pool.Capacity(Cpu(0)), 4.5e9);
}

// Usage is counted in whole units, so a bucket filled to capacity by
// amounts that do not add up exactly as doubles is exactly full: it
// admits nothing more, and it drains to exactly zero.
TEST(ResourcePoolTest, FitIsExactInUnits) {
  ResourcePool pool;
  ASSERT_TRUE(pool.DeclareBucket(Cpu(0), 0.3).ok());
  ResourceVector tenth;
  tenth.Add(Cpu(0), 0.1);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pool.Acquire(tenth).ok());
  EXPECT_EQ(pool.Utilization(Cpu(0)), 1.0);
  ResourceVector one_unit;
  one_unit.Add(Cpu(0), 1e-6);
  EXPECT_EQ(pool.Acquire(one_unit).code(), StatusCode::kResourceExhausted);
  EXPECT_GT(pool.OverlayMaxFill(one_unit), 1.0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pool.Release(tenth).ok());
  EXPECT_EQ(pool.Used(Cpu(0)), 0.0);
  EXPECT_EQ(pool.Release(one_unit).code(), StatusCode::kFailedPrecondition);
}

// Fill from the public getters: Used() and Capacity() read whole units,
// so converting them back recovers the pool's integers.
double FillOf(const ResourcePool& pool, const BucketId& bucket,
              int64_t demand_units) {
  return static_cast<double>(ToResourceUnits(pool.Used(bucket)) +
                             demand_units) /
         static_cast<double>(ToResourceUnits(pool.Capacity(bucket)));
}

// The definition OverlayMaxFill must reproduce: a scan of every
// declared bucket through the public per-bucket getters.
double BruteForceMaxFill(const ResourcePool& pool,
                         const ResourceVector& demand) {
  double max_fill = 0.0;
  for (const BucketId& bucket : pool.Buckets()) {
    max_fill = std::max(max_fill, FillOf(pool, bucket, demand.Units(bucket)));
  }
  return max_fill;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// MaxUtilization() and ForEachFill() against the same scan.
void ExpectFillsMatchBruteForce(const ResourcePool& pool) {
  const std::vector<BucketId> buckets = pool.Buckets();
  std::vector<std::pair<BucketId, double>> visited;
  pool.ForEachFill([&visited](size_t slot, double fill) {
    visited.emplace_back(ResourcePool::BucketAt(slot), fill);
  });
  ASSERT_EQ(visited.size(), buckets.size());
  double max_fill = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    double fill = FillOf(pool, buckets[i], 0);
    max_fill = std::max(max_fill, fill);
    EXPECT_EQ(visited[i].first, buckets[i]);
    EXPECT_EQ(Bits(visited[i].second), Bits(fill))
        << BucketIdToString(buckets[i]);
  }
  EXPECT_EQ(Bits(pool.MaxUtilization()), Bits(max_fill));
}

TEST(ResourcePoolPropertyTest, OverlayMaxFillEqualsBruteForceScan) {
  // Capacities and amounts on a coarse binary grid, so many buckets
  // share the same fill (ties at the max). Releases lower fills, so the
  // cached max must come down.
  const double capacities[] = {1.0, 2.0, 4.0, 8.0};
  auto random_bucket = [](Rng& rng) {
    return BucketId{SiteId(rng.UniformInt(0, 5)),
                    static_cast<ResourceKind>(
                        rng.UniformInt(0, kNumResourceKinds - 1))};
  };
  auto random_vector = [&](Rng& rng, int max_entries) {
    ResourceVector v;
    int64_t n = rng.UniformInt(0, max_entries);  // 0 = empty demand
    for (int64_t i = 0; i < n; ++i) {
      // Zero amounts make no entry; buckets may be undeclared.
      v.Add(random_bucket(rng),
            0.25 * static_cast<double>(rng.UniformInt(0, 6)));
    }
    return v;
  };

  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    ResourcePool pool;
    std::vector<ResourceVector> held;
    for (int i = 0; i < 12; ++i) {
      // A bucket drawn twice keeps its first declaration.
      Status declared = pool.DeclareBucket(random_bucket(rng),
                                           capacities[rng.UniformInt(0, 3)]);
      ASSERT_TRUE(declared.ok() ||
                  declared.code() == StatusCode::kAlreadyExists);
    }
    for (int step = 0; step < 300; ++step) {
      double op = rng.NextDouble();
      if (op < 0.3) {
        ResourceVector demand = random_vector(rng, 4);
        if (pool.Acquire(demand).ok()) held.push_back(std::move(demand));
      } else if (op < 0.45 && !held.empty()) {
        size_t i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
        ASSERT_TRUE(pool.Release(held[i]).ok());
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      }
      ResourceVector demand = random_vector(rng, 7);
      double expected = BruteForceMaxFill(pool, demand);
      double actual = pool.OverlayMaxFill(demand);
      ASSERT_EQ(Bits(actual), Bits(expected))
          << "seed " << seed << " step " << step << ": " << actual
          << " vs " << expected << " for " << demand.ToString();
      ExpectFillsMatchBruteForce(pool);
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace quasaq::res
