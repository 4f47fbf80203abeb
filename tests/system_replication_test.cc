// System-level integration of dynamic replication: a QuaSAQ system that
// starts with master copies only converges toward serving skewed demand
// from dynamically materialized cheap replicas.

#include <gtest/gtest.h>

#include "core/system.h"
#include "workload/traffic.h"

namespace quasaq::core {
namespace {

MediaDbSystem::Options ReplicatingOptions() {
  MediaDbSystem::Options options;
  options.kind = SystemKind::kVdbmsQuasaq;
  options.seed = 3;
  options.library.max_duration_seconds = 60.0;
  options.library.min_replica_levels = 1;  // masters only at t=0
  options.library.max_replica_levels = 1;
  options.replication.enabled = true;
  options.replication.manager.period = 10 * kSecond;
  return options;
}

TEST(SystemReplicationTest, ManagerAndStoragePresentOnlyWhenEnabled) {
  sim::Simulator simulator;
  MediaDbSystem plain(&simulator, [] {
    MediaDbSystem::Options options;
    options.kind = SystemKind::kVdbmsQuasaq;
    return options;
  }());
  EXPECT_EQ(plain.replication_manager(), nullptr);
  EXPECT_EQ(plain.storage_at(SiteId(0)), nullptr);

  sim::Simulator simulator2;
  MediaDbSystem replicating(&simulator2, ReplicatingOptions());
  EXPECT_NE(replicating.replication_manager(), nullptr);
  ASSERT_NE(replicating.storage_at(SiteId(0)), nullptr);
  // Initial masters are physically stored.
  EXPECT_GT(replicating.storage_at(SiteId(0))->object_count(), 0u);
}

TEST(SystemReplicationTest, SkewedDemandMaterializesCheapReplicas) {
  sim::Simulator simulator;
  MediaDbSystem system(&simulator, ReplicatingOptions());
  // Hammer video 0 with low-quality requests; the master (DVD-class)
  // serves them at first, but the manager should materialize cheaper
  // levels.
  query::QosRequirement cheap;
  cheap.range.max_resolution = media::kResolutionSif;
  cheap.range.min_frame_rate = 5.0;
  cheap.range.max_frame_rate = 15.0;
  cheap.range.max_color_depth_bits = 16;
  cheap.range.max_audio = media::AudioQuality::kFm;
  for (int i = 0; i < 40; ++i) {
    system.SubmitDelivery(SiteId(i % 3), LogicalOid(0), cheap);
    simulator.RunUntil(simulator.Now() + SecondsToSimTime(1.0));
  }
  simulator.RunUntil(simulator.Now() + SecondsToSimTime(120.0));
  EXPECT_GT(system.replication_manager()->stats().created, 0u);
  // Fresh identical queries can now be served from a cheap replica
  // without transcoding.
  MediaDbSystem::DeliveryOutcome outcome =
      system.SubmitDelivery(SiteId(0), LogicalOid(0), cheap);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_LT(outcome.wire_rate_kbps, 60.0);
}

TEST(SystemReplicationTest, ReplicationImprovesAdmitRateUnderSkew) {
  auto run = [](bool enabled) {
    sim::Simulator simulator;
    MediaDbSystem::Options options = ReplicatingOptions();
    options.replication.enabled = enabled;
    MediaDbSystem system(&simulator, options);
    workload::TrafficOptions traffic_options;
    traffic_options.seed = 11;
    traffic_options.video_zipf_s = 1.2;
    workload::TrafficGenerator traffic(traffic_options, 15,
                                       options.topology.SiteIds());
    uint64_t admitted = 0;
    for (int i = 0; i < 600; ++i) {
      workload::QuerySpec spec = traffic.Next();
      if (system
              .SubmitDelivery(spec.client_site, spec.content, spec.qos)
              .status.ok()) {
        ++admitted;
      }
      simulator.RunUntil(simulator.Now() +
                         SecondsToSimTime(traffic.NextGapSeconds()));
    }
    return admitted;
  };
  uint64_t with = run(true);
  uint64_t without = run(false);
  EXPECT_GT(with, without * 12 / 10)
      << "dynamic replication should lift the admit rate by >20%";
}

TEST(SystemReplicationTest, BoundedStorageStaysWithinBudget) {
  sim::Simulator simulator;
  MediaDbSystem::Options options = ReplicatingOptions();
  // Room for the masters (~2.2e5 KB/site) plus a handful of extras.
  options.replication.storage_capacity_kb = 3.0e5;
  options.replication.manager.policy.consolidate_cold_replicas = true;
  MediaDbSystem system(&simulator, options);
  workload::TrafficGenerator traffic(workload::TrafficOptions(), 15,
                                     options.topology.SiteIds());
  for (int i = 0; i < 400; ++i) {
    workload::QuerySpec spec = traffic.Next();
    system.SubmitDelivery(spec.client_site, spec.content, spec.qos);
    simulator.RunUntil(simulator.Now() +
                       SecondsToSimTime(traffic.NextGapSeconds()));
  }
  for (SiteId site : options.topology.SiteIds()) {
    const storage::ObjectStore& store = *system.storage_at(site);
    EXPECT_LE(store.used_kb(), store.capacity_kb() + 1e-6);
  }
}

}  // namespace
}  // namespace quasaq::core
