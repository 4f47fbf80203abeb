#include "core/session_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/system.h"

// Session lifecycle layer: the invariant under test throughout is that
// a session's resources are released exactly once — at completion,
// cancellation, or pause — no matter how pause / resume / renegotiate /
// cancel interleave.

namespace quasaq::core {
namespace {

class SessionManagerTest : public ::testing::Test {
 protected:
  SessionManagerTest()
      : api_(&pool_, observability_.metrics()),
        manager_(&simulator_, &api_, observability_) {
    EXPECT_TRUE(pool_.DeclareBucket({SiteId(0), ResourceKind::kNetworkBandwidth}, 1000.0).ok());
    EXPECT_TRUE(pool_.DeclareBucket({SiteId(1), ResourceKind::kNetworkBandwidth}, 1000.0).ok());
  }

  ResourceVector Kbps(int site, double kbps) {
    ResourceVector v;
    v.Add({SiteId(site), ResourceKind::kNetworkBandwidth}, kbps);
    return v;
  }

  res::ReservationId Reserve(double kbps) {
    Result<res::ReservationId> r = api_.Reserve(Kbps(0, kbps));
    EXPECT_TRUE(r.ok());
    return *r;
  }

  SessionManager::Record ReservedRecord(res::ReservationId id) {
    SessionManager::Record record;
    record.content = LogicalOid(0);
    record.site = SiteId(0);
    record.reservation = id;
    return record;
  }

  sim::Simulator simulator_;
  res::ResourcePool pool_;
  obs::Observability observability_;
  res::CompositeQosApi api_;
  SessionManager manager_;
};

TEST_F(SessionManagerTest, StartCapturesVectorAndCompletesOnce) {
  SessionId completed_id(0);
  int fired = 0;
  manager_.set_on_complete([&](SessionId id, SimTime) {
    completed_id = id;
    ++fired;
  });
  SessionId id = manager_.Start(ReservedRecord(Reserve(400.0)), 60.0);
  EXPECT_EQ(manager_.outstanding(), 1);
  const SessionManager::Record* record = manager_.Find(id);
  ASSERT_NE(record, nullptr);
  // While the session runs, the API holds its vector and the record
  // keeps no copy.
  const ResourceVector* held = api_.Find(record->reservation);
  ASSERT_NE(held, nullptr);
  const ResourceVector running = *held;
  EXPECT_FALSE(running.empty());
  EXPECT_TRUE(record->reserved_vector.empty());

  // Pause captures the vector into the record before releasing it.
  ASSERT_TRUE(manager_.Pause(id).ok());
  record = manager_.Find(id);
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->reserved_vector.size(), running.size());
  for (size_t i = 0; i < running.size(); ++i) {
    EXPECT_EQ(record->reserved_vector.entries()[i].bucket,
              running.entries()[i].bucket);
    EXPECT_EQ(record->reserved_vector.entries()[i].units,
              running.entries()[i].units);
  }
  ASSERT_TRUE(manager_.Resume(id).ok());
  EXPECT_TRUE(manager_.Find(id)->reserved_vector.empty());

  simulator_.RunAll();
  EXPECT_EQ(manager_.outstanding(), 0);
  EXPECT_EQ(manager_.completed(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(completed_id, id);
  // Pause and completion each released once.
  EXPECT_EQ(api_.stats().released, 2u);
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
}

// The active-session gauge is sampled on every change of the live
// count: start, cancel and completion alike.
TEST_F(SessionManagerTest, ActiveGaugeFollowsCompletions) {
  const obs::Gauge* active = observability_.metrics().GetGauge(
      "quasaq_session_active_count", "Sessions currently streaming or paused");
  ASSERT_NE(active, nullptr);
  int completions = 0;
  manager_.set_on_complete([&](SessionId, SimTime) {
    ++completions;
    EXPECT_EQ(active->value(), manager_.outstanding());
  });
  for (int i = 1; i <= 4; ++i) {
    manager_.Start(ReservedRecord(Reserve(10.0)), 10.0 * i);
  }
  EXPECT_EQ(active->value(), 4.0);
  simulator_.RunAll();
  EXPECT_EQ(completions, 4);
  EXPECT_EQ(manager_.outstanding(), 0);
  EXPECT_EQ(active->value(), 0.0);
}

TEST_F(SessionManagerTest, CancelWhilePausedDoesNotDoubleRelease) {
  SessionId id = manager_.Start(ReservedRecord(Reserve(400.0)), 60.0);
  ASSERT_TRUE(manager_.Pause(id).ok());
  EXPECT_EQ(api_.stats().released, 1u);
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);

  ASSERT_TRUE(manager_.Cancel(id).ok());
  EXPECT_EQ(api_.stats().released, 1u);  // pause already gave it back
  EXPECT_EQ(manager_.outstanding(), 0);
  simulator_.RunAll();
  EXPECT_EQ(manager_.completed(), 0u);  // no stale completion event fires
}

TEST_F(SessionManagerTest, CancelDropsTheCompletionEvent) {
  const size_t before = simulator_.pending_events();
  SessionId id = manager_.Start(ReservedRecord(Reserve(400.0)), 60.0);
  EXPECT_EQ(simulator_.pending_events(), before + 1);
  ASSERT_TRUE(manager_.Cancel(id).ok());
  EXPECT_EQ(simulator_.pending_events(), before);
}

TEST_F(SessionManagerTest, ResumeFailureLeavesSessionPaused) {
  SessionId id = manager_.Start(ReservedRecord(Reserve(800.0)), 60.0);
  ASSERT_TRUE(manager_.Pause(id).ok());
  // The released 800 KB/s slot gets taken while the user is paused.
  Result<res::ReservationId> blocker = api_.Reserve(Kbps(0, 900.0));
  ASSERT_TRUE(blocker.ok());

  Status resumed = manager_.Resume(id);
  EXPECT_EQ(resumed.code(), StatusCode::kResourceExhausted);
  const SessionManager::Record* record = manager_.Find(id);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->paused);
  // Nothing was acquired by the failed resume.
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.9);

  ASSERT_TRUE(api_.Release(*blocker).ok());
  ASSERT_TRUE(manager_.Resume(id).ok());
  simulator_.RunAll();
  EXPECT_EQ(manager_.completed(), 1u);
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
  // pause + blocker + completion: each slot released exactly once.
  EXPECT_EQ(api_.stats().released, 3u);
}

TEST_F(SessionManagerTest, VdbmsPinningIsKeyedBySite) {
  SessionManager::Record a;
  a.content = LogicalOid(0);
  a.site = SiteId(0);
  a.vdbms_units = ToResourceUnits(500.0);
  SessionManager::Record b;
  b.content = LogicalOid(1);
  b.site = SiteId(1);
  b.vdbms_units = ToResourceUnits(300.0);
  SessionId id_a = manager_.Start(std::move(a), 60.0);
  manager_.Start(std::move(b), 60.0);
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(0)), 500.0);
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(1)), 300.0);

  ASSERT_TRUE(manager_.Pause(id_a).ok());
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(0)), 0.0);
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(1)), 300.0);
  ASSERT_TRUE(manager_.Resume(id_a).ok());
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(0)), 500.0);

  simulator_.RunAll();
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(0)), 0.0);
  EXPECT_DOUBLE_EQ(manager_.vdbms_active_kbps(SiteId(1)), 0.0);
}

TEST_F(SessionManagerTest, AdoptedPlanIsWhatResumeReadmits) {
  SessionId id = manager_.Start(ReservedRecord(Reserve(400.0)), 60.0);
  ASSERT_TRUE(manager_.Pause(id).ok());
  ASSERT_TRUE(
      manager_.AdoptRenegotiatedPlan(id, SiteId(1), Kbps(1, 100.0)).ok());
  ASSERT_TRUE(manager_.Resume(id).ok());
  // The re-admitted reservation is the adopted 100 KB/s on site 1, not
  // the original 400 KB/s on site 0.
  EXPECT_DOUBLE_EQ(pool_.Used({SiteId(1), ResourceKind::kNetworkBandwidth}),
                   100.0);
  EXPECT_DOUBLE_EQ(pool_.Used({SiteId(0), ResourceKind::kNetworkBandwidth}),
                   0.0);
  simulator_.RunAll();
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
}

// Lookup and aggregation over sessions on many sites.
class MultiSiteSessionManagerTest : public ::testing::Test {
 protected:
  static constexpr int kSites = 8;

  MultiSiteSessionManagerTest()
      : api_(&pool_, observability_.metrics()),
        manager_(&simulator_, &api_, observability_) {
    for (int site = 0; site < kSites; ++site) {
      EXPECT_TRUE(pool_.DeclareBucket(
                          {SiteId(site), ResourceKind::kNetworkBandwidth},
                          1000.0)
                      .ok());
    }
  }

  SessionId StartOn(int site, double kbps = 100.0) {
    ResourceVector v;
    v.Add({SiteId(site), ResourceKind::kNetworkBandwidth}, kbps);
    Result<res::ReservationId> r = api_.Reserve(v);
    EXPECT_TRUE(r.ok());
    SessionManager::Record record;
    record.content = LogicalOid(site);
    record.site = SiteId(site);
    record.reservation = *r;
    return manager_.Start(std::move(record), 60.0);
  }

  sim::Simulator simulator_;
  res::ResourcePool pool_;
  obs::Observability observability_;
  res::CompositeQosApi api_;
  SessionManager manager_;
};

TEST_F(MultiSiteSessionManagerTest, LookupFindsEverySession) {
  std::vector<SessionId> ids;
  for (int site = 0; site < kSites; ++site) ids.push_back(StartOn(site));
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }
  EXPECT_EQ(manager_.outstanding(), kSites);
  for (int site = 0; site < kSites; ++site) {
    const SessionManager::Record* record = manager_.Find(ids[site]);
    ASSERT_NE(record, nullptr) << "site " << site;
    EXPECT_EQ(record->site, SiteId(site));
    EXPECT_EQ(record->content, LogicalOid(site));
  }
  ASSERT_TRUE(manager_.Pause(ids[3]).ok());
  ASSERT_TRUE(manager_.Resume(ids[3]).ok());
  ASSERT_TRUE(manager_.Cancel(ids[5]).ok());
  EXPECT_EQ(manager_.Find(ids[5]), nullptr);
  EXPECT_EQ(manager_.outstanding(), kSites - 1);
  simulator_.RunAll();
  EXPECT_EQ(manager_.completed(), static_cast<uint64_t>(kSites - 1));
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
}

TEST_F(SessionManagerTest, SessionIdsAreDense) {
  // The manager hands out the dense 1, 2, 3... sequence — harnesses key
  // logs on those IDs.
  EXPECT_EQ(manager_.Start(ReservedRecord(Reserve(10.0)), 60.0),
            SessionId(1));
  EXPECT_EQ(manager_.Start(ReservedRecord(Reserve(10.0)), 60.0),
            SessionId(2));
  EXPECT_EQ(manager_.Start(ReservedRecord(Reserve(10.0)), 60.0),
            SessionId(3));
}

// Interleavings through the facade: ChangeSessionQos against paused
// sessions, double-release hunting across the full QuaSAQ stack.
class SessionInterleavingTest : public ::testing::Test {
 protected:
  SessionInterleavingTest() {
    MediaDbSystem::Options options;
    options.kind = SystemKind::kVdbmsQuasaq;
    options.seed = 3;
    options.library.min_duration_seconds = 60.0;
    options.library.max_duration_seconds = 90.0;
    system_ = std::make_unique<MediaDbSystem>(&simulator_, options);
  }

  // A DVD-rate session: only satisfiable by the master replica.
  MediaDbSystem::DeliveryOutcome StartHighRate() {
    return system_->SubmitDelivery(SiteId(0), LogicalOid(0), HighRateQos());
  }

  query::QosRequirement HighRateQos() {
    query::QosRequirement qos;
    qos.range.min_resolution = media::kResolutionSvcd;
    qos.range.min_color_depth_bits = 24;
    qos.range.min_frame_rate = 20.0;
    return qos;
  }

  query::QosRequirement WideQos() {
    query::QosRequirement qos;
    qos.range.min_frame_rate = 1.0;
    return qos;
  }

  sim::Simulator simulator_;
  std::unique_ptr<MediaDbSystem> system_;
};

TEST_F(SessionInterleavingTest, MidPauseQosChangeAppliesOnResume) {
  MediaDbSystem::DeliveryOutcome outcome = StartHighRate();
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_TRUE(system_->PauseSession(outcome.session).ok());
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);

  // Renegotiate downward while paused: the new plan is adopted but
  // nothing is acquired until the user hits play again — not even a
  // momentary reservation the Composite QoS API would count.
  const res::CompositeQosApi::Stats before = system_->qos_api().stats();
  Result<MediaDbSystem::DeliveryOutcome> changed =
      system_->ChangeSessionQos(outcome.session, WideQos());
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed->renegotiated);
  EXPECT_LT(changed->wire_rate_kbps, outcome.wire_rate_kbps);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
  const res::CompositeQosApi::Stats after = system_->qos_api().stats();
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.rejected, before.rejected);
  EXPECT_EQ(after.released, before.released);
  EXPECT_EQ(after.renegotiations, before.renegotiations);
  EXPECT_EQ(after.renegotiation_failures, before.renegotiation_failures);
  EXPECT_EQ(system_->outstanding_sessions(), 1);

  ASSERT_TRUE(system_->ResumeSession(outcome.session).ok());
  EXPECT_GT(system_->pool().MaxUtilization(), 0.0);
  simulator_.RunAll();
  EXPECT_EQ(system_->stats().completed, 1u);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

TEST_F(SessionInterleavingTest, CancelWhilePausedReleasesExactlyOnce) {
  MediaDbSystem::DeliveryOutcome outcome = StartHighRate();
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_TRUE(system_->PauseSession(outcome.session).ok());
  uint64_t released_after_pause = system_->qos_api().stats().released;
  ASSERT_TRUE(system_->CancelSession(outcome.session).ok());
  EXPECT_EQ(system_->qos_api().stats().released, released_after_pause);
  EXPECT_EQ(system_->outstanding_sessions(), 0);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

TEST_F(SessionInterleavingTest, ResumeFailureAfterQosChangeStaysPaused) {
  MediaDbSystem::DeliveryOutcome outcome = StartHighRate();
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_TRUE(system_->PauseSession(outcome.session).ok());
  Result<MediaDbSystem::DeliveryOutcome> changed =
      system_->ChangeSessionQos(outcome.session, HighRateQos());
  ASSERT_TRUE(changed.ok());

  // Occupy every link while the user is paused.
  for (int i = 0; i < 400; ++i) {
    system_->SubmitDelivery(SiteId(i % 3), LogicalOid(i % 15), HighRateQos());
  }
  uint64_t released_before = system_->qos_api().stats().released;
  EXPECT_EQ(system_->ResumeSession(outcome.session).code(),
            StatusCode::kResourceExhausted);
  // The failed resume neither acquired nor released anything.
  EXPECT_EQ(system_->qos_api().stats().released, released_before);

  simulator_.RunAll();  // the load drains; the session is still paused
  EXPECT_EQ(system_->outstanding_sessions(), 1);
  ASSERT_TRUE(system_->ResumeSession(outcome.session).ok());
  simulator_.RunAll();
  EXPECT_EQ(system_->outstanding_sessions(), 0);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

TEST_F(SessionInterleavingTest, QosChangeOnRunningSessionSwapsInPlace) {
  MediaDbSystem::DeliveryOutcome outcome = StartHighRate();
  ASSERT_TRUE(outcome.status.ok());
  double before = system_->pool().MaxUtilization();
  Result<MediaDbSystem::DeliveryOutcome> changed =
      system_->ChangeSessionQos(outcome.session, WideQos());
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_LT(changed->wire_rate_kbps, outcome.wire_rate_kbps);
  EXPECT_LT(system_->pool().MaxUtilization(), before);
  simulator_.RunAll();
  EXPECT_EQ(system_->stats().completed, 1u);
  EXPECT_DOUBLE_EQ(system_->pool().MaxUtilization(), 0.0);
}

}  // namespace
}  // namespace quasaq::core
