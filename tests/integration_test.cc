// Integration tests: scaled-down versions of the paper's experiments
// asserting the qualitative results (the "shapes") end to end.

#include <gtest/gtest.h>

#include "workload/interframe.h"
#include "workload/throughput.h"

namespace quasaq {
namespace {

using core::SystemKind;
using workload::InterframeOptions;
using workload::InterframeResult;
using workload::RunInterframeExperiment;
using workload::RunThroughputExperiment;
using workload::ThroughputOptions;
using workload::ThroughputResult;

constexpr SimTime kHorizon = 400 * kSecond;

ThroughputOptions SmallThroughput(SystemKind kind) {
  ThroughputOptions options;
  options.system.kind = kind;
  options.system.seed = 7;
  options.system.library.max_duration_seconds = 90.0;
  options.traffic.seed = 42;
  options.horizon = kHorizon;
  return options;
}

// --- Figure 5 / Table 2 shapes -------------------------------------------

InterframeOptions SmallInterframe(bool quasaq, bool high) {
  InterframeOptions options;
  options.quasaq = quasaq;
  options.high_contention = high;
  options.measured_frames = 450;
  return options;
}

TEST(InterframeIntegrationTest, AllPanelsTrackTheIdealMeanOrAbove) {
  for (bool quasaq : {false, true}) {
    for (bool high : {false, true}) {
      InterframeResult result =
          RunInterframeExperiment(SmallInterframe(quasaq, high));
      ASSERT_TRUE(result.measured_finished);
      EXPECT_GE(result.interframe_ms.mean(),
                result.ideal_interframe_ms * 0.98);
    }
  }
}

TEST(InterframeIntegrationTest, VdbmsDegradesUnderHighContention) {
  InterframeResult low =
      RunInterframeExperiment(SmallInterframe(false, false));
  InterframeResult high =
      RunInterframeExperiment(SmallInterframe(false, true));
  // Table 2's signature: the SD explodes and the mean shifts upward.
  EXPECT_GT(high.interframe_ms.stddev(), low.interframe_ms.stddev() * 3.0);
  EXPECT_GT(high.interframe_ms.mean(), low.interframe_ms.mean() * 1.05);
  EXPECT_GT(high.intergop_ms.stddev(), low.intergop_ms.stddev() * 3.0);
}

TEST(InterframeIntegrationTest, QuasaqIsContentionProof) {
  InterframeResult low =
      RunInterframeExperiment(SmallInterframe(true, false));
  InterframeResult high =
      RunInterframeExperiment(SmallInterframe(true, true));
  EXPECT_NEAR(high.interframe_ms.mean(), low.interframe_ms.mean(), 1.0);
  EXPECT_NEAR(high.interframe_ms.stddev(), low.interframe_ms.stddev(), 3.0);
  EXPECT_LT(high.intergop_ms.stddev(), 20.0);
}

TEST(InterframeIntegrationTest, QuasaqBeatsVdbmsUnderHighContention) {
  InterframeResult vdbms =
      RunInterframeExperiment(SmallInterframe(false, true));
  InterframeResult quasaq =
      RunInterframeExperiment(SmallInterframe(true, true));
  EXPECT_GT(vdbms.interframe_ms.stddev(),
            quasaq.interframe_ms.stddev() * 3.0);
  EXPECT_GT(vdbms.interframe_ms.max(), quasaq.interframe_ms.max() * 2.0);
}

// --- Figure 6 shapes ------------------------------------------------------

TEST(ThroughputIntegrationTest, VdbmsHoldsTheMostOutstandingSessions) {
  ThroughputResult vdbms =
      RunThroughputExperiment(SmallThroughput(SystemKind::kVdbms));
  ThroughputResult qosapi =
      RunThroughputExperiment(SmallThroughput(SystemKind::kVdbmsQosApi));
  ThroughputResult quasaq =
      RunThroughputExperiment(SmallThroughput(SystemKind::kVdbmsQuasaq));
  double vdbms_mean = vdbms.outstanding.MeanOver(kHorizon / 2, kHorizon);
  double qosapi_mean = qosapi.outstanding.MeanOver(kHorizon / 2, kHorizon);
  double quasaq_mean = quasaq.outstanding.MeanOver(kHorizon / 2, kHorizon);
  EXPECT_GT(vdbms_mean, quasaq_mean);
  EXPECT_GT(quasaq_mean, qosapi_mean * 1.3)
      << "QuaSAQ must clearly beat the QoS-API-only system";
}

TEST(ThroughputIntegrationTest, VdbmsNeverRejects) {
  ThroughputResult vdbms =
      RunThroughputExperiment(SmallThroughput(SystemKind::kVdbms));
  EXPECT_EQ(vdbms.system_stats.rejected, 0u);
  EXPECT_GT(vdbms.system_stats.submitted, 100u);
}

TEST(ThroughputIntegrationTest, QosApiRejectsUnderLoad) {
  ThroughputResult qosapi =
      RunThroughputExperiment(SmallThroughput(SystemKind::kVdbmsQosApi));
  EXPECT_GT(qosapi.system_stats.rejected, 0u);
}

TEST(ThroughputIntegrationTest, QuasaqCompletesTheMostJobs) {
  ThroughputResult qosapi =
      RunThroughputExperiment(SmallThroughput(SystemKind::kVdbmsQosApi));
  ThroughputResult quasaq =
      RunThroughputExperiment(SmallThroughput(SystemKind::kVdbmsQuasaq));
  EXPECT_GT(quasaq.system_stats.completed, qosapi.system_stats.completed);
}

// --- Figure 7 shapes ------------------------------------------------------

TEST(CostModelIntegrationTest, LrbBeatsRandomOnRejectsAndSessions) {
  ThroughputOptions lrb = SmallThroughput(SystemKind::kVdbmsQuasaq);
  lrb.system.cost_model = "lrb";
  lrb.system.quality.max_admission_attempts = 1;
  lrb.enable_renegotiation_profile = false;
  ThroughputOptions random = lrb;
  random.system.cost_model = "random";

  ThroughputResult lrb_result = RunThroughputExperiment(lrb);
  ThroughputResult random_result = RunThroughputExperiment(random);

  EXPECT_LT(lrb_result.system_stats.rejected,
            random_result.system_stats.rejected);
  double lrb_mean =
      lrb_result.outstanding.MeanOver(kHorizon / 2, kHorizon);
  double random_mean =
      random_result.outstanding.MeanOver(kHorizon / 2, kHorizon);
  EXPECT_GT(lrb_mean, random_mean * 1.2);
}

// --- resource accounting sanity -------------------------------------------

TEST(ResourceAccountingTest, PoolDrainsWhenTrafficStops) {
  ThroughputOptions options = SmallThroughput(SystemKind::kVdbmsQuasaq);
  sim::Simulator simulator;
  core::MediaDbSystem system(&simulator, options.system);
  workload::TrafficGenerator traffic(options.traffic, 15,
                                     options.system.topology.SiteIds());
  for (int i = 0; i < 50; ++i) {
    workload::QuerySpec spec = traffic.Next();
    system.SubmitDelivery(spec.client_site, spec.content, spec.qos);
  }
  simulator.RunAll();  // all sessions complete
  EXPECT_EQ(system.outstanding_sessions(), 0);
  EXPECT_DOUBLE_EQ(system.pool().MaxUtilization(), 0.0);
  EXPECT_EQ(system.stats().completed, system.stats().admitted);
}

TEST(ResourceAccountingTest, UtilizationNeverExceedsCapacity) {
  ThroughputOptions options = SmallThroughput(SystemKind::kVdbmsQuasaq);
  sim::Simulator simulator;
  core::MediaDbSystem system(&simulator, options.system);
  workload::TrafficGenerator traffic(options.traffic, 15,
                                     options.system.topology.SiteIds());
  for (int i = 0; i < 400; ++i) {
    workload::QuerySpec spec = traffic.Next();
    system.SubmitDelivery(spec.client_site, spec.content, spec.qos);
    EXPECT_LE(system.pool().MaxUtilization(), 1.0);
  }
}

}  // namespace
}  // namespace quasaq
