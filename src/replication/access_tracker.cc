#include "replication/access_tracker.h"

#include <algorithm>
#include <cassert>

namespace quasaq::repl {

AccessTracker::AccessTracker(SimTime window) : window_(window) {
  assert(window_ > 0);
}

void AccessTracker::Record(LogicalOid content, int ladder_level,
                           SimTime now) {
  DemandKey key{content, ladder_level};
  std::deque<SimTime>& events = events_[key];
  events.push_back(now);
  ++total_;
  Expire(events, now);
}

void AccessTracker::Expire(std::deque<SimTime>& events, SimTime now) const {
  while (!events.empty() && events.front() < now - window_) {
    events.pop_front();
  }
}

std::vector<std::pair<DemandKey, double>> AccessTracker::RankedDemand(
    SimTime now) {
  std::vector<std::pair<DemandKey, double>> ranked;
  for (auto& [key, events] : events_) {
    Expire(events, now);
    if (events.empty()) continue;
    ranked.emplace_back(key, static_cast<double>(events.size()) /
                                 SimTimeToSeconds(window_));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              if (a.first.content != b.first.content) {
                return a.first.content < b.first.content;
              }
              return a.first.ladder_level < b.first.ladder_level;
            });
  return ranked;
}

}  // namespace quasaq::repl
