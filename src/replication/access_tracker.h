#ifndef QUASAQ_REPLICATION_ACCESS_TRACKER_H_
#define QUASAQ_REPLICATION_ACCESS_TRACKER_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

// Access-pattern tracking for dynamic replication (paper §2 item 1: "the
// total number and choice of QoS of pre-stored media replicas should
// reflect the access pattern of media content. Therefore, dynamic online
// replication and migration has to be performed to make the system
// converge to the current status of user requests").
//
// The tracker records, per (logical object, quality-ladder level), the
// demand observed over a sliding window; the replication policy reads
// demand rates from it.

namespace quasaq::repl {

// Key of one demand stream: which content at which ladder level.
struct DemandKey {
  LogicalOid content;
  int ladder_level = 0;

  friend bool operator==(const DemandKey& a, const DemandKey& b) = default;
};

struct DemandKeyHash {
  size_t operator()(const DemandKey& key) const {
    return std::hash<int64_t>()(key.content.value() * 31 +
                                key.ladder_level);
  }
};

class AccessTracker {
 public:
  /// `window` is the sliding-window length for rate estimation.
  explicit AccessTracker(SimTime window);

  /// Records one request for `content` that a `ladder_level` replica
  /// would (ideally) serve, observed at time `now`.
  void Record(LogicalOid content, int ladder_level, SimTime now);

  /// All keys with at least one request in the window ending at `now`,
  /// with their requests per second over that window, most-demanded
  /// first.
  std::vector<std::pair<DemandKey, double>> RankedDemand(SimTime now);

  /// Total requests recorded (lifetime).
  uint64_t total_requests() const { return total_; }

 private:
  void Expire(std::deque<SimTime>& events, SimTime now) const;

  SimTime window_;
  uint64_t total_ = 0;
  std::unordered_map<DemandKey, std::deque<SimTime>, DemandKeyHash> events_;
};

}  // namespace quasaq::repl

#endif  // QUASAQ_REPLICATION_ACCESS_TRACKER_H_
