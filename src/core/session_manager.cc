#include "core/session_manager.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace quasaq::core {

SessionManager::SessionManager(sim::Simulator* simulator,
                               res::CompositeQosApi* qos_api,
                               int shard_count)
    : simulator_(simulator), qos_api_(qos_api) {
  assert(simulator_ != nullptr);
  assert(qos_api_ != nullptr);
  assert(shard_count >= 1);
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void SessionManager::set_observability(obs::Observability* observability) {
  const bool per_shard =
      observability != nullptr && shards_.size() > 1 &&
      observability->shard_registry_count() >= shard_count();
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    MutexLock lock(&shard.mu);
    if (observability == nullptr) {
      shard.metrics = Metrics{};
      shard.tracer = nullptr;
      continue;
    }
    obs::MetricsRegistry& reg =
        per_shard ? observability->shard_metrics(static_cast<int>(i))
                  : observability->metrics();
    shard.metrics.started =
        reg.GetCounter("quasaq_session_started_total",
                       "Deliveries admitted and started");
    shard.metrics.completed =
        reg.GetCounter("quasaq_session_completed_total",
                       "Sessions that played to the end");
    shard.metrics.cancelled =
        reg.GetCounter("quasaq_session_cancelled_total",
                       "Sessions aborted before completion");
    shard.metrics.paused =
        reg.GetCounter("quasaq_session_paused_total", "Pause operations");
    shard.metrics.resumed = reg.GetCounter("quasaq_session_resumed_total",
                                           "Successful resume operations");
    shard.metrics.resume_failed =
        reg.GetCounter("quasaq_session_resume_failed_total",
                       "Resumes rejected by re-admission");
    shard.metrics.duration_seconds = reg.GetHistogram(
        "quasaq_session_duration_seconds",
        "Wall-clock (simulated) session length from start to completion",
        obs::HistogramOptions{/*first_bound=*/1.0, /*growth=*/2.0,
                              /*bucket_count=*/16});
    shard.tracer = &observability->tracer();
  }
  if (observability == nullptr) {
    active_gauge_ = nullptr;
    peak_gauge_ = nullptr;
    return;
  }
  obs::MetricsRegistry& main = observability->metrics();
  active_gauge_ = main.GetGauge("quasaq_session_active_count",
                                "Sessions currently streaming or paused");
  peak_gauge_ = main.GetGauge("quasaq_session_peak_count",
                              "High-water mark of concurrent sessions");
}

void SessionManager::NoteActiveDelta(SimTime now, int delta, bool sample) {
  const int active =
      total_active_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (!sample || active_gauge_ == nullptr) return;
  active_gauge_->Sample(now, active);
  peak_gauge_->SampleMax(now, active);
}

sim::EventId SessionManager::ScheduleCompletion(SimTime at, SessionId id) {
  MutexLock lock(&sim_mu_);
  return simulator_->ScheduleAt(at, [this, id] { Complete(id); });
}

void SessionManager::CancelCompletion(sim::EventId event) {
  MutexLock lock(&sim_mu_);
  simulator_->Cancel(event);
}

SessionId SessionManager::Start(Record record, double duration_seconds) {
  const size_t shard_index = ShardIndexOfSite(record.site);
  Shard& shard = *shards_[shard_index];
  const SimTime now = simulator_->Now();
  record.start = now;
  record.expected_end = now + SecondsToSimTime(duration_seconds);
  if (record.reservation != res::kInvalidReservationId) {
    const ResourceVector* vector = qos_api_->Find(record.reservation);
    assert(vector != nullptr);
    record.reserved_vector = *vector;
  }
  SessionId id;
  {
    MutexLock lock(&shard.mu);
    id = SessionId(shard.next_seq++ * shard_count() +
                   static_cast<int64_t>(shard_index));
    if (record.vdbms_milli_kbps > 0) {
      shard.vdbms_site_milli_kbps[record.site] += record.vdbms_milli_kbps;
    }
    record.completion_event = ScheduleCompletion(record.expected_end, id);
    if (shard.tracer != nullptr && record.trace_track != 0) {
      shard.tracer->Begin(record.trace_track, "session.stream", now,
                          {{"session", std::to_string(id.value())},
                           {"site", std::to_string(record.site.value())}});
    }
    shard.sessions.emplace(id, std::move(record));
    ++shard.outstanding;
    if (shard.metrics.started != nullptr) shard.metrics.started->Increment();
  }
  NoteActiveDelta(now, +1, /*sample=*/true);
  return id;
}

const SessionManager::Record* SessionManager::Find(SessionId session) const {
  Shard& shard = *shards_[ShardIndexOfSession(session)];
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session);
  return it == shard.sessions.end() ? nullptr : &it->second;
}

std::optional<SessionManager::Record> SessionManager::Snapshot(
    SessionId session) const {
  Shard& shard = *shards_[ShardIndexOfSession(session)];
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session);
  if (it == shard.sessions.end()) return std::nullopt;
  return it->second;
}

double SessionManager::vdbms_active_kbps(SiteId site) const {
  Shard& shard = *shards_[ShardIndexOfSite(site)];
  MutexLock lock(&shard.mu);
  auto it = shard.vdbms_site_milli_kbps.find(site);
  return it == shard.vdbms_site_milli_kbps.end()
             ? 0.0
             : static_cast<double>(it->second) / 1000.0;
}

int SessionManager::outstanding() const {
  int total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->outstanding;
  }
  return total;
}

uint64_t SessionManager::completed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->completed;
  }
  return total;
}

void SessionManager::UnpinVdbms(Shard& shard, const Record& record) {
  if (record.vdbms_milli_kbps <= 0) return;
  int64_t& active = shard.vdbms_site_milli_kbps[record.site];
  assert(active >= record.vdbms_milli_kbps);
  active -= record.vdbms_milli_kbps;
}

Status SessionManager::Pause(SessionId session) {
  Shard& shard = *shards_[ShardIndexOfSession(session)];
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session);
  if (it == shard.sessions.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  if (record.paused) {
    return Status::FailedPrecondition("session already paused");
  }
  // A paused stream sends nothing: give its resources back.
  if (record.reservation != res::kInvalidReservationId) {
    Status status = qos_api_->Release(record.reservation);
    assert(status.ok());
    (void)status;
    record.reservation = res::kInvalidReservationId;
  }
  UnpinVdbms(shard, record);
  CancelCompletion(record.completion_event);
  record.completion_event = sim::kInvalidEventId;
  record.remaining_at_pause = record.expected_end - simulator_->Now();
  record.paused = true;
  if (shard.metrics.paused != nullptr) shard.metrics.paused->Increment();
  if (shard.tracer != nullptr && record.trace_track != 0) {
    shard.tracer->Begin(record.trace_track, "session.paused",
                        simulator_->Now());
  }
  return Status::Ok();
}

Status SessionManager::Resume(SessionId session) {
  Shard& shard = *shards_[ShardIndexOfSession(session)];
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session);
  if (it == shard.sessions.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  if (!record.paused) {
    return Status::FailedPrecondition("session is not paused");
  }
  // Re-admission: the released resources must still be available.
  if (!record.reserved_vector.empty()) {
    Result<res::ReservationId> reservation =
        qos_api_->Reserve(record.reserved_vector);
    if (!reservation.ok()) {
      if (shard.metrics.resume_failed != nullptr) {
        shard.metrics.resume_failed->Increment();
      }
      if (shard.tracer != nullptr && record.trace_track != 0) {
        shard.tracer->Instant(record.trace_track, "session.resume_failed",
                              simulator_->Now());
      }
      return reservation.status();
    }
    record.reservation = *reservation;
  }
  if (record.vdbms_milli_kbps > 0) {
    shard.vdbms_site_milli_kbps[record.site] += record.vdbms_milli_kbps;
  }
  record.paused = false;
  record.expected_end = simulator_->Now() + record.remaining_at_pause;
  record.completion_event = ScheduleCompletion(record.expected_end, session);
  if (shard.metrics.resumed != nullptr) shard.metrics.resumed->Increment();
  if (shard.tracer != nullptr && record.trace_track != 0) {
    // Closes the session.paused span opened by Pause.
    shard.tracer->End(record.trace_track, simulator_->Now());
  }
  return Status::Ok();
}

Status SessionManager::Cancel(SessionId session) {
  Shard& shard = *shards_[ShardIndexOfSession(session)];
  SimTime now = 0;
  {
    MutexLock lock(&shard.mu);
    auto it = shard.sessions.find(session);
    if (it == shard.sessions.end()) {
      return Status::NotFound("no such session");
    }
    const Record& record = it->second;
    if (record.reservation != res::kInvalidReservationId) {
      Status status = qos_api_->Release(record.reservation);
      assert(status.ok());
      (void)status;
    }
    // Paused sessions already returned their resources.
    if (!record.paused) UnpinVdbms(shard, record);
    now = simulator_->Now();
    if (shard.tracer != nullptr && record.trace_track != 0) {
      shard.tracer->Instant(record.trace_track, "session.cancelled", now);
      shard.tracer->EndAll(record.trace_track, now);
    }
    shard.sessions.erase(it);
    --shard.outstanding;
    if (shard.metrics.cancelled != nullptr) {
      shard.metrics.cancelled->Increment();
    }
  }
  NoteActiveDelta(now, -1, /*sample=*/true);
  return Status::Ok();
}

Status SessionManager::AdoptRenegotiatedPlan(SessionId session,
                                             SiteId delivery_site,
                                             const ResourceVector& resources) {
  Shard& shard = *shards_[ShardIndexOfSession(session)];
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session);
  if (it == shard.sessions.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  record.site = delivery_site;
  record.reserved_vector = resources;
  return Status::Ok();
}

void SessionManager::Complete(SessionId id) {
  Shard& shard = *shards_[ShardIndexOfSession(id)];
  SimTime completed_at = 0;
  {
    MutexLock lock(&shard.mu);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return;  // cancelled earlier
    const Record& record = it->second;
    if (record.reservation != res::kInvalidReservationId) {
      Status status = qos_api_->Release(record.reservation);
      assert(status.ok());
      (void)status;
    }
    UnpinVdbms(shard, record);
    completed_at = simulator_->Now();
    if (shard.metrics.completed != nullptr) {
      shard.metrics.completed->Increment();
      shard.metrics.duration_seconds->Observe(
          SimTimeToSeconds(completed_at - record.start));
    }
    if (shard.tracer != nullptr && record.trace_track != 0) {
      // Closes session.stream (and a dangling session.paused, if the
      // caller completed a paused session) plus the delivery root span.
      shard.tracer->EndAll(record.trace_track, completed_at);
    }
    shard.sessions.erase(it);
    --shard.outstanding;
    ++shard.completed;
  }
  NoteActiveDelta(completed_at, -1, /*sample=*/false);
  CompleteCallback callback;
  {
    MutexLock lock(&config_mu_);
    callback = on_complete_;
  }
  // Invoke outside every lock: the facade's completion hook (and user
  // callbacks behind it) may re-enter this manager, e.g. to cancel or
  // start a follow-up session.
  if (callback) callback(id, completed_at);
}

}  // namespace quasaq::core
