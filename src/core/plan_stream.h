#ifndef QUASAQ_CORE_PLAN_STREAM_H_
#define QUASAQ_CORE_PLAN_STREAM_H_

#include <optional>
#include <queue>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cost_evaluator.h"
#include "core/plan.h"
#include "core/plan_generator.h"
#include "query/ast.h"
#include "resource/pool.h"

// Lazy best-first enumeration of the plan search space (paper §3.4).
//
// The eager pipeline materializes every plan, ranks the full vector and
// walks it — O(d^n) work even when the very first plan is admitted,
// which is the common case the throughput experiments depend on. The
// PlanStream instead yields plans one at a time in exactly the ranking
// order of RuntimeCostEvaluator::Rank (same cost key, same tie-breaks),
// expanding the search space only as far as the consumer pulls.
//
// The search is organized over (replica, delivery-site) groups — the
// (A1, A2) prefixes of the enumeration. Each group carries an
// admissible lower bound on the LRB cost f(r) = max_i (U_i + r_i)/R_i
// of every plan it contains: the bound overlays the group's demand floor
// (PlanGenerator::GroupDemandFloor), which every QoS-feasible activity
// combination (A3–A5) of the group carries at least, so bound <= true
// cost always holds. A
// best-first frontier mixes unexpanded groups (keyed by their bound)
// with already-costed plans (keyed by their exact ranking key); a plan
// is yielded only once no group that could still beat it remains, so
// groups whose bound exceeds the cost of the plan the consumer stops at
// are never expanded at all. For cost models without a sound bound
// (Random, the ablation models, or a gain function) every group bound
// is zero: the stream degenerates to full enumeration — still in
// bit-identical ranking order, just without pruning.

namespace quasaq::core {

class PlanStream {
 public:
  // One yielded plan with the key it was ordered by (cost = C(r)/G,
  // demand = the tie-break of RuntimeCostEvaluator::Rank).
  struct Ranked {
    Plan plan;
    double cost = 0.0;
    double demand = 0.0;
  };

  struct Stats {
    // (replica, delivery-site) prefixes the space decomposes into.
    size_t groups = 0;
    size_t groups_expanded = 0;
    // Plans materialized and costed (the work the eager path always
    // pays for the whole space).
    size_t plans_generated = 0;
    size_t plans_yielded = 0;
  };

  /// All pointers must outlive the stream. The stream captures the
  /// search space of `content` under `qos` as seen from `query_site`;
  /// costs are evaluated against `pool`'s usage at expansion time, so a
  /// stream must be consumed before reservations move the pool.
  ///
  /// When `costing_pool` is non-null and the evaluator supports a sound
  /// cost lower bound, group expansion + costing fans out over the pool
  /// (see PlanGenerator::Options::parallel_costing): the top run of
  /// unexpanded groups on the frontier is costed concurrently, one
  /// group per worker, and merged back in frontier order. Yield order
  /// is bit-identical to the serial walk — a plan is yielded only when
  /// its exact key beats every remaining bound, and eagerly expanding a
  /// group only replaces its bound with exact keys that are >= it.
  /// Pruning statistics may count fewer pruned groups (the batch
  /// expands groups the serial walk might never have touched).
  PlanStream(const PlanGenerator* generator,
             const RuntimeCostEvaluator* evaluator,
             const res::ResourcePool* pool, SiteId query_site,
             LogicalOid content, const query::QosRequirement& qos,
             SimTime* metadata_latency = nullptr,
             ThreadPool* costing_pool = nullptr);

  /// Construction failure (kNotFound when no replica exists). A failed
  /// stream yields nothing.
  const Status& status() const { return status_; }

  /// Re-arms the stream over the already-enumerated (replica, site)
  /// groups for a new QoS window: pending plans and frontier state are
  /// discarded, group bounds are recomputed against the pool's current
  /// usage, and enumeration restarts from scratch — without re-fetching
  /// metadata. This is how a renegotiation's relaxation rounds reuse
  /// one stream instead of re-seeding enumeration per round. The
  /// cumulative stats keep counting across rounds (groups grows by the
  /// group count per round, so groups_pruned() stays consistent).
  /// No-op on a failed stream.
  void Reset(const query::QosRequirement& qos);

  /// The next plan in ranking order, or nullopt when the space is
  /// exhausted.
  std::optional<Ranked> Next();

  /// Number of unexpanded groups — the branches pruning saved so far.
  size_t groups_pruned() const { return stats_.groups - stats_.groups_expanded; }

  /// Ranking key at the head of the frontier: the lower bound every
  /// not-yet-yielded plan must meet or exceed. When a consumer stops
  /// pulling after an admitted plan, `FrontierBound() / admitted_cost`
  /// is the margin by which the remaining search space lost — the
  /// cutoff telemetry the observability layer histograms. nullopt once
  /// the space is exhausted.
  std::optional<double> FrontierBound() const {
    if (frontier_.empty()) return std::nullopt;
    return frontier_.top().cost;
  }

  const Stats& stats() const { return stats_; }

 private:
  // Frontier entry: a group awaiting expansion (plan_slot < 0, cost =
  // lower bound) or a materialized plan (cost = exact ranking key).
  // Groups carry demand -1 so they expand before any plan of equal
  // cost — required for the bound to stay sound on exact ties.
  struct Entry {
    double cost = 0.0;
    double demand = 0.0;
    size_t group_index = 0;
    size_t within_index = 0;
    int plan_slot = -1;
  };
  struct EntryAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.cost != b.cost) return a.cost > b.cost;
      if (a.demand != b.demand) return a.demand > b.demand;
      if (a.group_index != b.group_index) return a.group_index > b.group_index;
      return a.within_index > b.within_index;
    }
  };

  // Pushes every group's lower-bound entry onto the frontier and
  // refreshes the parallel-costing decision for the current evaluator
  // state (a gain function installed since the last round disables the
  // bound, and with it the fan-out).
  void SeedFrontier();
  void ExpandGroup(size_t group_index);
  // Expands and costs `batch` concurrently on costing_pool_, then
  // merges the results in batch (= frontier pop) order.
  void ExpandGroupBatch(const std::vector<size_t>& batch);

  const PlanGenerator* generator_;
  const RuntimeCostEvaluator* evaluator_;
  const res::ResourcePool* pool_;
  ThreadPool* costing_pool_;
  query::QosRequirement qos_;
  Status status_;
  std::vector<PlanGenerator::GroupSeed> groups_;
  std::vector<Ranked> plans_;  // materialized plans, stable slots
  std::priority_queue<Entry, std::vector<Entry>, EntryAfter> frontier_;
  Stats stats_;
  bool parallel_ = false;  // recomputed by SeedFrontier
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_PLAN_STREAM_H_
