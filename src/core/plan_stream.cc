#include "core/plan_stream.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace quasaq::core {

PlanStream::PlanStream(const PlanGenerator* generator,
                       const RuntimeCostEvaluator* evaluator,
                       const res::ResourcePool* pool, SiteId query_site,
                       LogicalOid content, const query::QosRequirement& qos,
                       RuntimeCostEvaluator::GainFunction gain)
    : generator_(generator),
      evaluator_(evaluator),
      pool_(pool),
      qos_(qos),
      gain_(std::move(gain)) {
  assert(generator_ != nullptr);
  assert(evaluator_ != nullptr);
  assert(pool_ != nullptr);
  Result<std::vector<PlanGenerator::GroupSeed>> groups =
      generator_->EnumerateGroups(query_site, content);
  if (!groups.ok()) {
    status_ = groups.status();
    return;
  }
  groups_ = std::move(*groups);
  stats_.groups = groups_.size();
  SeedFrontier();
}

void PlanStream::SeedFrontier() {
  const bool bounded = evaluator_->SupportsCostLowerBound(gain_);
  tables_.clear();
  group_table_.resize(groups_.size());
  for (size_t i = 0; i < groups_.size(); ++i) {
    const PlanGenerator::ChoiceKey key = PlanGenerator::KeyOf(groups_[i]);
    size_t slot = 0;
    while (slot < tables_.size() && tables_[slot].key != key) ++slot;
    if (slot == tables_.size()) {
      tables_.push_back(generator_->BuildChoiceTable(groups_[i], qos_));
    }
    group_table_[i] = slot;
    if (tables_[slot].choices.empty()) {
      ++stats_.groups_skipped;
      continue;
    }

    Entry entry;
    entry.group_index = i;
    if (bounded) {
      generator_->GroupDemandFloor(groups_[i], tables_[slot], floor_);
      entry.cost = evaluator_->model().Cost(floor_, *pool_);
      entry.demand = pool_->FractionalDemand(floor_);
    } else {
      // Without a sound bound every group enters ahead of any plan:
      // nothing can be yielded before the whole space is expanded, which
      // reproduces the eager evaluator exactly (including the per-plan
      // cost-model call order the Random model's RNG stream depends on).
      entry.cost = 0.0;
      entry.demand = -1.0;
    }
    frontier_.push(entry);
  }
}

void PlanStream::Reset(const query::QosRequirement& qos,
                       RuntimeCostEvaluator::GainFunction gain) {
  if (!status_.ok()) return;
  qos_ = qos;
  gain_ = std::move(gain);
  plans_.clear();
  frontier_ = {};
  // Each round counts every group again; groups_skipped and
  // groups_expanded keep accumulating, so groups_pruned() stays the
  // cumulative count of seeded branches never expanded across rounds.
  stats_.groups += groups_.size();
  SeedFrontier();
}

void PlanStream::ExpandGroup(size_t group_index) {
  std::vector<Plan> expanded;
  generator_->ExpandGroup(groups_[group_index],
                          tables_[group_table_[group_index]], expanded);
  ++stats_.groups_expanded;
  stats_.plans_generated += expanded.size();
  size_t within = 0;
  for (Plan& plan : expanded) {
    Ranked ranked;
    ranked.cost = evaluator_->EfficiencyCost(plan, *pool_, gain_);
    ranked.demand = RuntimeCostEvaluator::NormalizedDemand(plan, *pool_);
    ranked.plan = std::move(plan);
    plans_.push_back(std::move(ranked));

    Entry entry;
    entry.cost = plans_.back().cost;
    entry.demand = plans_.back().demand;
    entry.group_index = group_index;
    entry.within_index = within++;
    entry.plan_slot = static_cast<int>(plans_.size()) - 1;
    frontier_.push(entry);
  }
}

bool PlanStream::has_plans() const {
  return std::any_of(tables_.begin(), tables_.end(),
                     [](const PlanGenerator::ChoiceTable& table) {
                       return !table.choices.empty();
                     });
}

std::optional<PlanStream::Ranked> PlanStream::Next(double max_key) {
  while (!frontier_.empty()) {
    const Entry top = frontier_.top();
    if (top.cost > max_key) return std::nullopt;
    frontier_.pop();
    if (top.plan_slot < 0) {
      ExpandGroup(top.group_index);
      continue;
    }
    // Every remaining frontier entry — group bound or exact key — is
    // ordered after this plan, so it is the global minimum.
    ++stats_.plans_yielded;
    return std::move(plans_[static_cast<size_t>(top.plan_slot)]);
  }
  return std::nullopt;
}

}  // namespace quasaq::core
