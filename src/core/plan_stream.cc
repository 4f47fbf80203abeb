#include "core/plan_stream.h"

#include <cassert>
#include <utility>

namespace quasaq::core {

PlanStream::PlanStream(const PlanGenerator* generator,
                       const RuntimeCostEvaluator* evaluator,
                       const res::ResourcePool* pool, SiteId query_site,
                       LogicalOid content, const query::QosRequirement& qos,
                       SimTime* metadata_latency, ThreadPool* costing_pool)
    : generator_(generator),
      evaluator_(evaluator),
      pool_(pool),
      costing_pool_(costing_pool),
      qos_(qos) {
  assert(generator_ != nullptr);
  assert(evaluator_ != nullptr);
  assert(pool_ != nullptr);
  Result<std::vector<PlanGenerator::GroupSeed>> groups =
      generator_->EnumerateGroups(query_site, content, metadata_latency);
  if (!groups.ok()) {
    status_ = groups.status();
    return;
  }
  groups_ = std::move(*groups);
  stats_.groups = groups_.size();
  SeedFrontier();
}

void PlanStream::SeedFrontier() {
  const bool bounded = evaluator_->SupportsCostLowerBound();
  // Fan out only when the bound is sound: without it every group enters
  // at cost 0 and is expanded serially anyway (preserving the per-plan
  // cost-model call order the Random model's RNG stream depends on).
  parallel_ = costing_pool_ != nullptr && bounded;
  for (size_t i = 0; i < groups_.size(); ++i) {
    Entry entry;
    // Without a sound bound every group enters at 0: nothing can be
    // yielded before the whole space is expanded, which reproduces the
    // eager evaluator exactly (including the per-plan cost-model call
    // order the Random model's RNG stream depends on).
    entry.cost = bounded
                     ? evaluator_->model().Cost(
                           generator_->GroupDemandFloor(groups_[i], qos_),
                           *pool_)
                     : 0.0;
    entry.demand = -1.0;
    entry.group_index = i;
    frontier_.push(entry);
  }
}

void PlanStream::Reset(const query::QosRequirement& qos) {
  if (!status_.ok()) return;
  qos_ = qos;
  plans_.clear();
  frontier_ = {};
  // Each round enters every group again; groups_expanded keeps
  // accumulating, so groups_pruned() stays the cumulative count of
  // branches never expanded across rounds.
  stats_.groups += groups_.size();
  SeedFrontier();
}

void PlanStream::ExpandGroup(size_t group_index) {
  std::vector<Plan> expanded;
  generator_->ExpandGroup(groups_[group_index], qos_, expanded);
  ++stats_.groups_expanded;
  stats_.plans_generated += expanded.size();
  size_t within = 0;
  for (Plan& plan : expanded) {
    Ranked ranked;
    ranked.cost = evaluator_->EfficiencyCost(plan, *pool_);
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

void PlanStream::ExpandGroupBatch(const std::vector<size_t>& batch) {
  // Workers expand and cost into private vectors; the merge below runs
  // on the calling thread only after every worker finished, so no
  // member of the stream is touched concurrently.
  std::vector<std::vector<Ranked>> results(batch.size());
  BlockingCounter done(static_cast<int>(batch.size()));
  for (size_t i = 0; i < batch.size(); ++i) {
    costing_pool_->Submit([this, &batch, &results, &done, i] {
      std::vector<Plan> expanded;
      generator_->ExpandGroup(groups_[batch[i]], qos_, expanded);
      std::vector<Ranked>& out = results[i];
      out.reserve(expanded.size());
      for (Plan& plan : expanded) {
        Ranked ranked;
        ranked.cost = evaluator_->EfficiencyCost(plan, *pool_);
        ranked.demand = RuntimeCostEvaluator::NormalizedDemand(plan, *pool_);
        ranked.plan = std::move(plan);
        out.push_back(std::move(ranked));
      }
      done.DecrementCount();
    });
  }
  done.Wait();
  // Merge in pop order: slots, within-group indices and stats land
  // exactly as a serial expansion of the same groups would have left
  // them, so the frontier's tie-breaks are unchanged.
  for (size_t i = 0; i < batch.size(); ++i) {
    ++stats_.groups_expanded;
    stats_.plans_generated += results[i].size();
    size_t within = 0;
    for (Ranked& ranked : results[i]) {
      plans_.push_back(std::move(ranked));
      Entry entry;
      entry.cost = plans_.back().cost;
      entry.demand = plans_.back().demand;
      entry.group_index = batch[i];
      entry.within_index = within++;
      entry.plan_slot = static_cast<int>(plans_.size()) - 1;
      frontier_.push(entry);
    }
  }
}

std::optional<PlanStream::Ranked> PlanStream::Next() {
  while (!frontier_.empty()) {
    Entry top = frontier_.top();
    if (top.plan_slot >= 0) {
      // Every remaining frontier entry — group bound or exact key — is
      // ordered after this plan, so it is the global minimum.
      frontier_.pop();
      ++stats_.plans_yielded;
      return std::move(plans_[static_cast<size_t>(top.plan_slot)]);
    }
    if (!parallel_) {
      frontier_.pop();
      ExpandGroup(top.group_index);
      continue;
    }
    // The frontier's top run of unexpanded groups, up to one per
    // worker. Expanding a group past the serial cutoff only converts
    // its bound into exact keys >= the bound, so the batch never
    // changes which plan surfaces next — it just costs groups the
    // serial walk would have expanded one wake-up later (or, at the
    // tail, not at all).
    std::vector<size_t> batch;
    const size_t max_batch =
        static_cast<size_t>(costing_pool_->worker_count());
    while (!frontier_.empty() && frontier_.top().plan_slot < 0 &&
           batch.size() < max_batch) {
      batch.push_back(frontier_.top().group_index);
      frontier_.pop();
    }
    if (batch.size() == 1) {
      ExpandGroup(batch.front());
    } else {
      ExpandGroupBatch(batch);
    }
  }
  return std::nullopt;
}

}  // namespace quasaq::core
