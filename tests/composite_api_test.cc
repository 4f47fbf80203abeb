#include "resource/composite_api.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace quasaq::res {
namespace {

BucketId Cpu(int site) { return {SiteId(site), ResourceKind::kCpu}; }
BucketId Net(int site) {
  return {SiteId(site), ResourceKind::kNetworkBandwidth};
}

class CompositeQosApiTest : public ::testing::Test {
 protected:
  CompositeQosApiTest() : api_(&pool_, registry_) {
    EXPECT_TRUE(pool_.DeclareBucket(Cpu(0), 1.0).ok());
    EXPECT_TRUE(pool_.DeclareBucket(Net(0), 100.0).ok());
  }

  ResourceVector Demand(double cpu, double net) {
    ResourceVector demand;
    if (cpu > 0.0) demand.Add(Cpu(0), cpu);
    if (net > 0.0) demand.Add(Net(0), net);
    return demand;
  }

  ResourcePool pool_;
  obs::MetricsRegistry registry_;
  CompositeQosApi api_;
};

TEST_F(CompositeQosApiTest, ReserveChargesAndReleaseRestores) {
  Result<ReservationId> id = api_.Reserve(Demand(0.5, 50.0));
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(pool_.Used(Cpu(0)), 0.5);
  EXPECT_EQ(api_.active_reservations(), 1u);
  ASSERT_TRUE(api_.Release(*id).ok());
  EXPECT_DOUBLE_EQ(pool_.Used(Cpu(0)), 0.0);
  EXPECT_EQ(api_.active_reservations(), 0u);
}

TEST_F(CompositeQosApiTest, AdmissibleDoesNotCharge) {
  EXPECT_TRUE(api_.Admissible(Demand(0.9, 0.0)));
  EXPECT_DOUBLE_EQ(pool_.Used(Cpu(0)), 0.0);
  ASSERT_TRUE(api_.Reserve(Demand(0.9, 0.0)).ok());
  EXPECT_FALSE(api_.Admissible(Demand(0.2, 0.0)));
}

TEST_F(CompositeQosApiTest, RejectionCountsAndChargesNothing) {
  ASSERT_TRUE(api_.Reserve(Demand(0.8, 0.0)).ok());
  Result<ReservationId> rejected = api_.Reserve(Demand(0.5, 0.0));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(api_.stats().admitted, 1u);
  EXPECT_EQ(api_.stats().rejected, 1u);
  EXPECT_DOUBLE_EQ(pool_.Used(Cpu(0)), 0.8);
}

TEST_F(CompositeQosApiTest, ReleaseUnknownReservationFails) {
  EXPECT_EQ(api_.Release(42).code(), StatusCode::kNotFound);
}

TEST_F(CompositeQosApiTest, DoubleReleaseFails) {
  Result<ReservationId> id = api_.Reserve(Demand(0.1, 0.0));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(api_.Release(*id).ok());
  EXPECT_EQ(api_.Release(*id).code(), StatusCode::kNotFound);
}

TEST_F(CompositeQosApiTest, FindReturnsReservedVector) {
  Result<ReservationId> id = api_.Reserve(Demand(0.3, 30.0));
  ASSERT_TRUE(id.ok());
  const ResourceVector* vector = api_.Find(*id);
  ASSERT_NE(vector, nullptr);
  EXPECT_DOUBLE_EQ(vector->Get(Cpu(0)), 0.3);
  EXPECT_EQ(api_.Find(9999), nullptr);
}

TEST_F(CompositeQosApiTest, RenegotiateDown) {
  Result<ReservationId> id = api_.Reserve(Demand(0.6, 60.0));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(api_.Renegotiate(*id, Demand(0.2, 20.0)).ok());
  EXPECT_DOUBLE_EQ(pool_.Used(Cpu(0)), 0.2);
  EXPECT_DOUBLE_EQ(pool_.Used(Net(0)), 20.0);
  EXPECT_EQ(api_.stats().renegotiations, 1u);
}

TEST_F(CompositeQosApiTest, RenegotiateUpWithinCapacity) {
  Result<ReservationId> id = api_.Reserve(Demand(0.2, 20.0));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(api_.Renegotiate(*id, Demand(0.9, 90.0)).ok());
  EXPECT_DOUBLE_EQ(pool_.Used(Cpu(0)), 0.9);
}

TEST_F(CompositeQosApiTest, FailedRenegotiationKeepsOldReservation) {
  Result<ReservationId> a = api_.Reserve(Demand(0.5, 0.0));
  ASSERT_TRUE(a.ok());
  Result<ReservationId> b = api_.Reserve(Demand(0.4, 0.0));
  ASSERT_TRUE(b.ok());
  // b cannot grow to 0.6 (0.5 + 0.6 > 1.0); old 0.4 must survive.
  EXPECT_EQ(api_.Renegotiate(*b, Demand(0.6, 0.0)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_NEAR(pool_.Used(Cpu(0)), 0.9, 1e-12);
  EXPECT_EQ(api_.stats().renegotiation_failures, 1u);
  const ResourceVector* vector = api_.Find(*b);
  ASSERT_NE(vector, nullptr);
  EXPECT_DOUBLE_EQ(vector->Get(Cpu(0)), 0.4);
}

TEST_F(CompositeQosApiTest, RenegotiateUnknownReservationFails) {
  EXPECT_EQ(api_.Renegotiate(77, Demand(0.1, 0.0)).code(),
            StatusCode::kNotFound);
}

TEST_F(CompositeQosApiTest, KindStatsIdentifyTheBottleneck) {
  // Exhaust the network while CPU stays roomy.
  ASSERT_TRUE(api_.Reserve(Demand(0.1, 95.0)).ok());
  EXPECT_FALSE(api_.Reserve(Demand(0.1, 50.0)).ok());
  EXPECT_FALSE(api_.Reserve(Demand(0.1, 50.0)).ok());
  const CompositeQosApi::KindStats& net =
      api_.kind_stats(ResourceKind::kNetworkBandwidth);
  const CompositeQosApi::KindStats& cpu =
      api_.kind_stats(ResourceKind::kCpu);
  EXPECT_EQ(net.requests, 3u);
  EXPECT_EQ(net.denials, 2u);
  EXPECT_EQ(cpu.requests, 3u);
  EXPECT_EQ(cpu.denials, 0u);
  std::string report = api_.BottleneckReport();
  EXPECT_NE(report.find("net"), std::string::npos) << report;
  EXPECT_NE(report.find("2 of 2"), std::string::npos) << report;
}

TEST_F(CompositeQosApiTest, NoDenialsMeansEmptyReport) {
  ASSERT_TRUE(api_.Reserve(Demand(0.1, 10.0)).ok());
  EXPECT_TRUE(api_.BottleneckReport().empty());
}

TEST_F(CompositeQosApiTest, ManyReservationsFillThePool) {
  int admitted = 0;
  for (int i = 0; i < 20; ++i) {
    if (api_.Reserve(Demand(0.15, 0.0)).ok()) ++admitted;
  }
  EXPECT_EQ(admitted, 6);  // 6 * 0.15 = 0.90; the 7th would hit 1.05
  EXPECT_EQ(api_.stats().rejected, 14u);
}

// The ledger invariant under a random operation sequence: after every
// Reserve, Renegotiate and Release, each bucket's usage is exactly the
// sum of the live reservations' vectors. The amounts lie on no grid, so
// a ledger that summed doubles would drift away from that sum.
TEST(CompositeQosApiSequenceTest, UsageIsExactlyTheLiveReservations) {
  ResourcePool pool;
  const std::vector<BucketId> buckets = {Cpu(0), Net(0), Cpu(1), Net(1)};
  for (const BucketId& bucket : buckets) {
    const bool cpu = bucket.kind == ResourceKind::kCpu;
    ASSERT_TRUE(pool.DeclareBucket(bucket, cpu ? 1.0 : 3200.0).ok());
  }
  obs::MetricsRegistry registry;
  CompositeQosApi api(&pool, registry);
  Rng rng(20);
  auto random_demand = [&] {
    ResourceVector demand;
    for (const BucketId& bucket : buckets) {
      if (rng.Bernoulli(0.5)) {
        demand.Add(bucket, rng.Uniform(0.0, pool.Capacity(bucket) / 6.0));
      }
    }
    return demand;
  };
  std::vector<ReservationId> live;
  for (int step = 0; step < 100'000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.4 || live.empty()) {
      Result<ReservationId> id = api.Reserve(random_demand());
      if (id.ok()) live.push_back(*id);
    } else {
      const auto i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (op < 0.7) {
        (void)api.Renegotiate(live[i], random_demand());  // may not fit
      } else {
        ASSERT_TRUE(api.Release(live[i]).ok());
        live[i] = live.back();
        live.pop_back();
      }
    }
    for (const BucketId& bucket : buckets) {
      int64_t units = 0;
      for (ReservationId id : live) units += api.Find(id)->Units(bucket);
      ASSERT_EQ(pool.Used(bucket), FromResourceUnits(units))
          << BucketIdToString(bucket) << " at step " << step;
    }
  }
  EXPECT_EQ(api.active_reservations(), live.size());
}

}  // namespace
}  // namespace quasaq::res
