#ifndef QUASAQ_CORE_SESSION_MANAGER_H_
#define QUASAQ_CORE_SESSION_MANAGER_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/resource_vector.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/sync.h"
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
// Sharded for the admission hot path: the table splits into
// `shard_count` shards, sessions routed to the shard of their delivery
// site (site-hashed), each shard under its own annotated Mutex —
// concurrent Start/Pause/Resume/Cancel on different sites never touch
// the same lock. Routing is lock-free: a session ID encodes its shard
// (value = seq * shard_count + shard_index), so Find/Cancel/... go
// straight to the owning shard without a directory lookup, and
// renegotiating a session to a new delivery site never re-homes it.
// Cross-shard aggregation (outstanding(), completed()) walks the shards
// on demand. The default shard_count of 1 reproduces the pre-sharding
// behavior exactly, session IDs included.
//
// Thread-safe: concurrent lifecycle calls serialize per shard and the
// release-exactly-once invariant holds under any interleaving. The
// simulator's event queue is mutated only under the dedicated sim_mu_
// leaf lock, which makes ScheduleAt/Cancel safe against concurrent
// session mutations on other shards — but *driving* the simulator
// (Step/RunAll) must not overlap with session calls from other threads;
// the clock itself stays single-threaded. Lock order:
// SessionShard::mu → CompositeQosApi::mu_ → ResourcePool::mu_, and
// SessionShard::mu → sim_mu_ (docs/ARCHITECTURE.md "Threading model").
// set_observability/set_on_complete are configuration: call them before
// lifecycle calls run concurrently.

namespace quasaq::core {

class SessionManager {
 public:
  struct Record {
    LogicalOid content;
    SimTime start = 0;
    res::ReservationId reservation = res::kInvalidReservationId;
    // Bitrate pinned on `site` (VDBMS only), in milli-KB/s: quantized
    // once (ToMilliKbps) so pins and unpins add up exactly in any order.
    int64_t vdbms_milli_kbps = 0;
    SiteId site;
    // Pause/resume bookkeeping.
    sim::EventId completion_event = sim::kInvalidEventId;
    SimTime expected_end = 0;
    bool paused = false;
    SimTime remaining_at_pause = 0;
    ResourceVector reserved_vector;  // for re-admission on resume
    // Trace track (Tracer::NewTrack) this delivery's spans render on;
    // 0 when tracing is off.
    int64_t trace_track = 0;
  };

  using CompleteCallback = std::function<void(SessionId, SimTime)>;

  /// Both pointers must outlive the manager. `shard_count` fixes the
  /// number of session-table shards for the manager's lifetime (>= 1).
  SessionManager(sim::Simulator* simulator, res::CompositeQosApi* qos_api,
                 int shard_count = 1);

  /// Registers a delivery and schedules its completion. Captures the
  /// reservation's resource vector (when one is held) so resume can
  /// re-admit it, and pins `record.vdbms_milli_kbps` on the record's site.
  /// The returned ID encodes the owning shard (site-hashed).
  SessionId Start(Record record, double duration_seconds);

  /// Pauses a running session. Its reserved resources are released
  /// while paused (a paused stream sends nothing); playback time stops
  /// accruing.
  Status Pause(SessionId session);

  /// Resumes a paused session — effectively a renegotiation, since the
  /// released resources must be re-admitted. Fails with
  /// kResourceExhausted when the system can no longer carry the stream;
  /// the session then stays paused, its resources still released.
  Status Resume(SessionId session);

  /// Aborts a session early, releasing whatever it still holds.
  Status Cancel(SessionId session);

  /// Re-points a session at a renegotiated delivery: the new delivery
  /// site and the resource vector resume must re-admit. The reservation
  /// handle itself is unchanged (renegotiation swaps it in place); for
  /// paused sessions nothing is acquired until Resume. The session
  /// stays in its original shard — routing is by ID, not site.
  Status AdoptRenegotiatedPlan(SessionId session, SiteId delivery_site,
                               const ResourceVector& resources);

  /// The session's record, or nullptr. Invalidated by any mutation, so
  /// only serialized callers (the single-threaded driver, tests) may
  /// hold the pointer; concurrent observers must use Snapshot().
  const Record* Find(SessionId session) const;

  /// Copy of the session's record, or nullopt — the concurrency-safe
  /// flavor of Find().
  std::optional<Record> Snapshot(SessionId session) const;

  /// Active VDBMS-pinned bitrate currently streaming from `site`, KB/s
  /// (the exact sum of the live pins; 0 once they are all unpinned).
  double vdbms_active_kbps(SiteId site) const;

  /// Quantizes a bitrate in KB/s to the milli-KB/s units of
  /// Record::vdbms_milli_kbps (rounding to nearest).
  static int64_t ToMilliKbps(double kbps) {
    return static_cast<int64_t>(std::llround(kbps * 1000.0));
  }

  /// Sessions currently streaming or paused, summed over all shards.
  int outstanding() const;
  /// Sessions that ran to completion, summed over all shards.
  uint64_t completed() const;

  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Shard index sessions started on `site` land in.
  int ShardOfSite(SiteId site) const {
    return static_cast<int>(ShardIndexOfSite(site));
  }
  /// Shard index encoded in a session ID.
  int ShardOfSession(SessionId session) const {
    return static_cast<int>(ShardIndexOfSession(session));
  }

  void set_on_complete(CompleteCallback callback) {
    MutexLock lock(&config_mu_);
    on_complete_ = std::move(callback);
  }

  /// Attaches lifecycle counters, active/peak gauges, the duration
  /// histogram, and span emission to `observability` (nullptr
  /// detaches). When `observability` carries at least shard_count()
  /// shard registries and the table is sharded, each shard resolves its
  /// counters and duration histogram from its own registry (the
  /// active/peak gauges stay in the main registry); otherwise every
  /// shard reports into the main registry. Call before the first Start;
  /// the pointer must outlive the manager.
  void set_observability(obs::Observability* observability);

 private:
  // Registry handles resolved once in set_observability; all nullptr
  // when unobserved.
  struct Metrics {
    obs::Counter* started = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* paused = nullptr;
    obs::Counter* resumed = nullptr;
    obs::Counter* resume_failed = nullptr;
    obs::Histogram* duration_seconds = nullptr;
  };

  // One session-table shard. heap-allocated so Mutex addresses stay
  // stable in the shards_ vector.
  struct Shard {
    mutable Mutex mu;
    int64_t next_seq QUASAQ_GUARDED_BY(mu) = 1;
    int outstanding QUASAQ_GUARDED_BY(mu) = 0;
    uint64_t completed QUASAQ_GUARDED_BY(mu) = 0;
    std::unordered_map<SessionId, Record> sessions QUASAQ_GUARDED_BY(mu);
    // Sum of the live pins per site, milli-KB/s.
    std::unordered_map<SiteId, int64_t> vdbms_site_milli_kbps
        QUASAQ_GUARDED_BY(mu);
    // Observability is emitted while mu is held; the obs mutexes are
    // strict leaves in the lock order, below ResourcePool::mu_.
    Metrics metrics QUASAQ_GUARDED_BY(mu);
    obs::Tracer* tracer QUASAQ_GUARDED_BY(mu) = nullptr;
  };

  size_t ShardIndexOfSite(SiteId site) const {
    return static_cast<size_t>(
               std::hash<int64_t>{}(site.value())) %
           shards_.size();
  }
  size_t ShardIndexOfSession(SessionId session) const {
    return static_cast<size_t>(session.value()) % shards_.size();
  }

  // Samples the active-session gauge (and bumps the peak) after the
  // global active count changed by `delta`. `sample` mirrors the
  // pre-sharding cadence: Start and Cancel sample, Complete only
  // adjusts the count.
  void NoteActiveDelta(SimTime now, int delta, bool sample);
  void Complete(SessionId id);
  // Returns the session's pinned VDBMS bitrate to its site (no-op for
  // reservation-backed sessions).
  static void UnpinVdbms(Shard& shard, const Record& record)
      QUASAQ_REQUIRES(shard.mu);
  // Simulator event-queue access, serialized across shards (sim_mu_ is
  // a leaf under every Shard::mu).
  sim::EventId ScheduleCompletion(SimTime at, SessionId id)
      QUASAQ_EXCLUDES(sim_mu_);
  void CancelCompletion(sim::EventId event) QUASAQ_EXCLUDES(sim_mu_);

  sim::Simulator* simulator_;      // set at construction, never reassigned
  res::CompositeQosApi* qos_api_;  // likewise
  std::vector<std::unique_ptr<Shard>> shards_;  // immutable layout
  // Serializes simulator event-queue mutations from concurrent shards.
  mutable Mutex sim_mu_;
  mutable Mutex config_mu_;
  CompleteCallback on_complete_ QUASAQ_GUARDED_BY(config_mu_);
  // Global active count + gauges (main registry): written by every
  // shard, so they stay out of the per-shard registries by design.
  std::atomic<int> total_active_{0};
  obs::Gauge* active_gauge_ = nullptr;  // set_observability, pre-threading
  obs::Gauge* peak_gauge_ = nullptr;    // likewise
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_SESSION_MANAGER_H_
