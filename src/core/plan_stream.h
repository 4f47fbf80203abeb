#ifndef QUASAQ_CORE_PLAN_STREAM_H_
#define QUASAQ_CORE_PLAN_STREAM_H_

#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
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
// (A1, A2) prefixes of the enumeration. Each round (construction or
// Reset) first filters one PlanGenerator::ChoiceTable per distinct
// (stored quality, relayed) key among the groups — a handful, however
// many groups share them — out of the candidates the generator priced
// for that key once, for every admission, so a round computes no stream
// rates; every group's demand floor and expansion read its key's table.
// Each group enters the frontier at the key (LRB cost, normalized
// demand) of its demand floor (PlanGenerator::GroupDemandFloor), which
// is written into one scratch vector the stream keeps for its lifetime
// and refills group after group, round after round: seeding a group
// allocates nothing once that vector has grown to the largest floor, and
// only the two scalars of the key outlive it. The floor's entries are a
// subset of every plan's entries of the group, in the same sorted order
// and none larger, so both overlays are monotone in it: bound <= true
// cost, and on an exact cost tie floor demand <= plan demand, bit for
// bit. A best-first frontier mixes unexpanded groups (keyed by that
// bound) with already-costed plans (keyed by their exact ranking key); a
// plan is yielded only once no group that could still beat it remains,
// with ties between a group and a plan falling to the group index
// exactly as Rank's enumeration-order tie-break does. So groups whose bound exceeds
// the key of the plan the consumer stops at are never expanded at all.
// A group whose choice table is empty (no transcode target and drop of
// its stored quality meets the startup bound and the QoS window) is
// never seeded: it would expand to no plan, so it gets no floor, no
// pool read and no frontier entry — a static prune decided before any
// costing. Leaving it out moves no decision: it makes no cost-model
// call, and in the min-heap frontier every entry after one above
// `max_key` is above it too, so Next() stops where it did. For cost
// models without a sound bound (Random, the ablation models, or a gain
// function) every seeded group's bound is zero: the stream degenerates
// to full enumeration — still in bit-identical ranking order, just
// without pruning.

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
    // (replica, delivery-site) prefixes the space decomposes into,
    // counted once per round.
    size_t groups = 0;
    // Groups whose round's choice table was empty: never seeded.
    size_t groups_skipped = 0;
    // Seeded groups popped and turned into plans.
    size_t groups_expanded = 0;
    // Plans materialized and costed (the work the eager path always
    // pays for the whole space).
    size_t plans_generated = 0;
    size_t plans_yielded = 0;
  };

  /// All pointers must outlive the stream. The stream captures the
  /// search space of `content` under `qos` as seen from `query_site`
  /// and ranks it by C(r)/G under the query's `gain` (empty = 1); costs
  /// are evaluated against `pool`'s usage at expansion time, so a
  /// stream must be consumed before reservations move the pool.
  PlanStream(const PlanGenerator* generator,
             const RuntimeCostEvaluator* evaluator,
             const res::ResourcePool* pool, SiteId query_site,
             LogicalOid content, const query::QosRequirement& qos,
             RuntimeCostEvaluator::GainFunction gain = {});

  /// Construction failure (kNotFound when no replica exists). A failed
  /// stream yields nothing.
  const Status& status() const { return status_; }

  /// Re-arms the stream over the already-enumerated (replica, site)
  /// groups for a new QoS window and its gain: pending plans, choice
  /// tables and frontier state are discarded, group bounds are
  /// recomputed against the pool's current usage, and enumeration
  /// restarts from scratch — without re-fetching metadata. This is how a
  /// renegotiation's relaxation rounds reuse one stream instead of
  /// re-seeding enumeration per round. The cumulative stats keep
  /// counting across rounds (groups grows by the group count per round,
  /// and groups_skipped by that round's empty groups, so
  /// groups_pruned() stays consistent). No-op on a failed stream.
  void Reset(const query::QosRequirement& qos,
             RuntimeCostEvaluator::GainFunction gain = {});

  /// The next plan in ranking order, or nullopt when the space is
  /// exhausted or the frontier head's key is above `max_key`. A stopped
  /// stream pops nothing, so the head is still there for FrontierBound()
  /// and a later call with a larger `max_key`. Under a sound bound
  /// (SupportsCostLowerBound) every plan still to come ranks at or
  /// above the head, so an admission walk passes the key above which a
  /// plan cannot fit and never expands a group that has no fitting
  /// plan. EXPLAIN keeps the default and lists the whole space.
  std::optional<Ranked> Next(
      double max_key = std::numeric_limits<double>::infinity());

  /// Whether this round's space is non-empty: some group has a
  /// QoS-feasible choice, and such a group expands to at least one plan.
  /// Known at seeding, so it holds whether or not Next() stopped early.
  bool has_plans() const;

  /// Number of seeded groups never expanded — the branches the lower
  /// bound cut off so far.
  size_t groups_pruned() const {
    return stats_.groups - stats_.groups_skipped - stats_.groups_expanded;
  }

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
  // Frontier entry: a group awaiting expansion (plan_slot < 0; cost and
  // demand = its floor's LRB cost and normalized demand, or 0 and -1
  // without a sound bound so that every group expands before any plan
  // is yielded) or a materialized plan (cost, demand = its exact ranking
  // key).
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

  // Builds this round's choice tables and pushes the lower-bound entry
  // of every group with a non-empty table onto the frontier (a gain
  // disables the bound).
  void SeedFrontier();
  void ExpandGroup(size_t group_index);

  const PlanGenerator* generator_;
  const RuntimeCostEvaluator* evaluator_;
  const res::ResourcePool* pool_;
  query::QosRequirement qos_;
  RuntimeCostEvaluator::GainFunction gain_;
  Status status_;
  std::vector<PlanGenerator::GroupSeed> groups_;
  // This round's tables, one per distinct key, and each group's slot in
  // them.
  std::vector<PlanGenerator::ChoiceTable> tables_;
  std::vector<size_t> group_table_;
  // Scratch for the group floor being keyed, refilled for every seeded
  // group of every round; only its Cost and FractionalDemand are kept.
  ResourceVector floor_;
  std::vector<Ranked> plans_;  // materialized plans, stable slots
  std::priority_queue<Entry, std::vector<Entry>, EntryAfter> frontier_;
  Stats stats_;
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_PLAN_STREAM_H_
