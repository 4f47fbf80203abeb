#ifndef QUASAQ_CORE_SESSION_MANAGER_H_
#define QUASAQ_CORE_SESSION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/ids.h"
#include "common/resource_vector.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "obs/observability.h"
#include "resource/composite_api.h"
#include "simcore/simulator.h"

// Session lifecycle layer, extracted from the MediaDbSystem facade: owns
// the session table and every piece of per-session bookkeeping —
// timed completion events, expected-end times, reservation handles and
// their resource vectors (for re-admission on resume), pause/resume
// state, and the per-site bitrate pinning the plain-VDBMS configuration
// uses in place of reservations. The facade decides *what* to deliver
// (per system kind) and hands the resulting record to this manager,
// which alone decides *when* resources are released: exactly once, at
// completion, cancellation, or pause.
//
// Thread-compatible: the manager takes no lock. Its callers serialize:
// in a MediaDbSystem the lifecycle calls run under the facade's one
// lock, and completion runs on the thread that steps the simulator,
// which must not overlap facade calls (docs/ARCHITECTURE.md
// "Threading model").

namespace quasaq::core {

class SessionManager {
 public:
  struct Record {
    LogicalOid content;
    SimTime start = 0;
    res::ReservationId reservation = res::kInvalidReservationId;
    // Bitrate pinned on `site` (VDBMS only), in resource units of KB/s
    // (ToResourceUnits), so pins and unpins add up exactly in any order.
    int64_t vdbms_units = 0;
    SiteId site;
    // Pause/resume bookkeeping.
    sim::EventId completion_event = sim::kInvalidEventId;
    SimTime expected_end = 0;
    bool paused = false;
    SimTime remaining_at_pause = 0;
    // The vector Resume re-admits. Set only while paused: a running
    // session's vector lives in the CompositeQosApi reservation.
    ResourceVector reserved_vector;
    // Trace track (Tracer::NewTrack) this delivery's spans render on;
    // 0 when tracing is off.
    int64_t trace_track = 0;
  };

  using CompleteCallback = std::function<void(SessionId, SimTime)>;

  /// Both pointers and `observability` must outlive the manager. The
  /// lifecycle counters, active/peak gauges and duration histogram are
  /// registered in `observability`'s registry here.
  SessionManager(sim::Simulator* simulator, res::CompositeQosApi* qos_api,
                 obs::Observability& observability);

  /// Registers a delivery and schedules its completion, and pins
  /// `record.vdbms_units` on the record's site. IDs are the dense
  /// sequence 1, 2, 3...
  SessionId Start(Record record, double duration_seconds);

  /// Pauses a running session. Its reserved resources are released
  /// while paused (a paused stream sends nothing) after their vector is
  /// captured into the record for Resume; playback time stops accruing.
  Status Pause(SessionId session);

  /// Resumes a paused session — effectively a renegotiation, since the
  /// released resources must be re-admitted. Fails with
  /// kResourceExhausted when the system can no longer carry the stream;
  /// the session then stays paused, its resources still released.
  Status Resume(SessionId session);

  /// Aborts a session early, releasing whatever it still holds.
  Status Cancel(SessionId session);

  /// Re-points a session at a renegotiated delivery site. A running
  /// session's reservation handle is unchanged (renegotiation swaps the
  /// vector in place); a paused session records `resources` as the
  /// vector Resume re-admits, and nothing is acquired until then.
  Status AdoptRenegotiatedPlan(SessionId session, SiteId delivery_site,
                               const ResourceVector& resources);

  /// The session's record, or nullptr. Invalidated by the next
  /// lifecycle call.
  const Record* Find(SessionId session) const;

  /// Active VDBMS-pinned bitrate currently streaming from `site`, KB/s
  /// (the exact sum of the live pins; 0 once they are all unpinned).
  double vdbms_active_kbps(SiteId site) const;

  /// Sessions currently streaming or paused.
  int outstanding() const;
  /// Sessions that ran to completion (the registry counter).
  uint64_t completed() const {
    return static_cast<uint64_t>(metrics_.completed->value());
  }
  /// Sessions started (the registry counter).
  uint64_t started() const {
    return static_cast<uint64_t>(metrics_.started->value());
  }

  void set_on_complete(CompleteCallback callback) {
    on_complete_ = std::move(callback);
  }

 private:
  // Registry handles, resolved at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& registry);
    obs::Counter* started;
    obs::Counter* completed;
    obs::Counter* cancelled;
    obs::Counter* paused;
    obs::Counter* resumed;
    obs::Counter* resume_failed;
    obs::Histogram* duration_seconds;
    obs::Gauge* active;
    obs::Gauge* peak;
  };

  // Samples the active-session gauge (and bumps the peak) after
  // the session table's size changed: Start, Cancel and Complete.
  void SampleActive(SimTime now);
  void Complete(SessionId id);
  // Returns the session's pinned VDBMS bitrate to its site (no-op for
  // reservation-backed sessions).
  void UnpinVdbms(const Record& record);

  sim::Simulator* simulator_;      // set at construction, never reassigned
  res::CompositeQosApi* qos_api_;  // likewise
  obs::Tracer* tracer_;            // likewise
  const Metrics metrics_;
  int64_t next_seq_ = 1;
  std::unordered_map<SessionId, Record> sessions_;
  // Sum of the live pins per site, in resource units of KB/s.
  std::unordered_map<SiteId, int64_t> vdbms_site_units_;
  CompleteCallback on_complete_;
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_SESSION_MANAGER_H_
