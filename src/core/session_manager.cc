#include "core/session_manager.h"

#include <cassert>
#include <string>
#include <utility>

namespace quasaq::core {

SessionManager::Metrics::Metrics(obs::MetricsRegistry& registry)
    : started(registry.GetCounter("quasaq_session_started_total",
                                  "Deliveries admitted and started")),
      completed(registry.GetCounter("quasaq_session_completed_total",
                                    "Sessions that played to the end")),
      cancelled(registry.GetCounter("quasaq_session_cancelled_total",
                                    "Sessions aborted before completion")),
      paused(registry.GetCounter("quasaq_session_paused_total",
                                 "Pause operations")),
      resumed(registry.GetCounter("quasaq_session_resumed_total",
                                  "Successful resume operations")),
      resume_failed(registry.GetCounter("quasaq_session_resume_failed_total",
                                        "Resumes rejected by re-admission")),
      duration_seconds(registry.GetHistogram(
          "quasaq_session_duration_seconds",
          "Wall-clock (simulated) session length from start to completion",
          obs::HistogramOptions{/*first_bound=*/1.0, /*growth=*/2.0,
                                /*bucket_count=*/16})),
      active(registry.GetGauge("quasaq_session_active_count",
                               "Sessions currently streaming or paused")),
      peak(registry.GetGauge("quasaq_session_peak_count",
                             "High-water mark of concurrent sessions")) {}

SessionManager::SessionManager(sim::Simulator* simulator,
                               res::CompositeQosApi* qos_api,
                               obs::Observability& observability)
    : simulator_(simulator),
      qos_api_(qos_api),
      tracer_(&observability.tracer()),
      metrics_(observability.metrics()) {
  assert(simulator_ != nullptr);
  assert(qos_api_ != nullptr);
}

void SessionManager::SampleActive(SimTime now) {
  const auto active = static_cast<double>(sessions_.size());
  metrics_.active->Sample(now, active);
  metrics_.peak->SampleMax(now, active);
}

SessionId SessionManager::Start(Record record, double duration_seconds) {
  const SimTime now = simulator_->Now();
  record.start = now;
  record.expected_end = now + SecondsToSimTime(duration_seconds);
  const SessionId id(next_seq_++);
  if (record.vdbms_units > 0) {
    vdbms_site_units_[record.site] += record.vdbms_units;
  }
  record.completion_event =
      simulator_->ScheduleAt(record.expected_end, [this, id] { Complete(id); });
  if (record.trace_track != 0) {
    tracer_->Begin(record.trace_track, "session.stream", now,
                   {{"session", std::to_string(id.value())},
                    {"site", std::to_string(record.site.value())}});
  }
  sessions_.emplace(id, std::move(record));
  metrics_.started->Increment();
  SampleActive(now);
  return id;
}

const SessionManager::Record* SessionManager::Find(SessionId session) const {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : &it->second;
}

double SessionManager::vdbms_active_kbps(SiteId site) const {
  auto it = vdbms_site_units_.find(site);
  return it == vdbms_site_units_.end()
             ? 0.0
             : FromResourceUnits(it->second);
}

int SessionManager::outstanding() const {
  return static_cast<int>(sessions_.size());
}

void SessionManager::UnpinVdbms(const Record& record) {
  if (record.vdbms_units <= 0) return;
  int64_t& active = vdbms_site_units_[record.site];
  assert(active >= record.vdbms_units);
  active -= record.vdbms_units;
}

Status SessionManager::Pause(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  if (record.paused) {
    return Status::FailedPrecondition("session already paused");
  }
  // A paused stream sends nothing: give its resources back, keeping the
  // vector for Resume to re-admit.
  if (record.reservation != res::kInvalidReservationId) {
    const ResourceVector* vector = qos_api_->Find(record.reservation);
    assert(vector != nullptr);
    record.reserved_vector = *vector;
    Status status = qos_api_->Release(record.reservation);
    assert(status.ok());
    (void)status;
    record.reservation = res::kInvalidReservationId;
  }
  UnpinVdbms(record);
  simulator_->Cancel(record.completion_event);
  record.completion_event = sim::kInvalidEventId;
  record.remaining_at_pause = record.expected_end - simulator_->Now();
  record.paused = true;
  metrics_.paused->Increment();
  if (record.trace_track != 0) {
    tracer_->Begin(record.trace_track, "session.paused", simulator_->Now());
  }
  return Status::Ok();
}

Status SessionManager::Resume(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  if (!record.paused) {
    return Status::FailedPrecondition("session is not paused");
  }
  // Re-admission: the released resources must still be available.
  if (!record.reserved_vector.empty()) {
    Result<res::ReservationId> reservation =
        qos_api_->Reserve(record.reserved_vector);
    if (!reservation.ok()) {
      metrics_.resume_failed->Increment();
      if (record.trace_track != 0) {
        tracer_->Instant(record.trace_track, "session.resume_failed",
                         simulator_->Now());
      }
      return reservation.status();
    }
    record.reservation = *reservation;
    record.reserved_vector = ResourceVector();  // the API holds it again
  }
  if (record.vdbms_units > 0) {
    vdbms_site_units_[record.site] += record.vdbms_units;
  }
  record.paused = false;
  record.expected_end = simulator_->Now() + record.remaining_at_pause;
  record.completion_event = simulator_->ScheduleAt(
      record.expected_end, [this, session] { Complete(session); });
  metrics_.resumed->Increment();
  if (record.trace_track != 0) {
    // Closes the session.paused span opened by Pause.
    tracer_->End(record.trace_track, simulator_->Now());
  }
  return Status::Ok();
}

Status SessionManager::Cancel(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  const Record& record = it->second;
  if (record.reservation != res::kInvalidReservationId) {
    Status status = qos_api_->Release(record.reservation);
    assert(status.ok());
    (void)status;
  }
  // Paused sessions already returned their resources.
  if (!record.paused) UnpinVdbms(record);
  simulator_->Cancel(record.completion_event);
  const SimTime now = simulator_->Now();
  if (record.trace_track != 0) {
    tracer_->Instant(record.trace_track, "session.cancelled", now);
    tracer_->EndAll(record.trace_track, now);
  }
  sessions_.erase(it);
  metrics_.cancelled->Increment();
  SampleActive(now);
  return Status::Ok();
}

Status SessionManager::AdoptRenegotiatedPlan(SessionId session,
                                             SiteId delivery_site,
                                             const ResourceVector& resources) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  Record& record = it->second;
  record.site = delivery_site;
  if (record.paused) record.reserved_vector = resources;
  return Status::Ok();
}

void SessionManager::Complete(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;  // cancelled earlier
  const Record& record = it->second;
  if (record.reservation != res::kInvalidReservationId) {
    Status status = qos_api_->Release(record.reservation);
    assert(status.ok());
    (void)status;
  }
  UnpinVdbms(record);
  const SimTime completed_at = simulator_->Now();
  metrics_.completed->Increment();
  metrics_.duration_seconds->Observe(
      SimTimeToSeconds(completed_at - record.start));
  if (record.trace_track != 0) {
    // Closes session.stream (and a dangling session.paused, if the
    // caller completed a paused session) plus the delivery root span.
    tracer_->EndAll(record.trace_track, completed_at);
  }
  sessions_.erase(it);
  SampleActive(completed_at);
  // Last, once the table is consistent: the facade's completion hook
  // (and user callbacks behind it) may re-enter this manager, e.g. to
  // cancel or start a follow-up session.
  if (on_complete_) on_complete_(id, completed_at);
}

}  // namespace quasaq::core
