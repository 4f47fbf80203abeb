#include "core/quality_manager.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <optional>

namespace quasaq::core {

QualityManager::QualityManager(meta::DistributedMetadataEngine* metadata,
                               res::CompositeQosApi* qos_api,
                               CostModel* cost_model,
                               std::vector<SiteId> sites,
                               const Options& options)
    : qos_api_(qos_api),
      generator_(metadata, std::move(sites), options.generator),
      evaluator_(cost_model),
      options_(options) {
  assert(qos_api_ != nullptr);
}

QualityManager::Stats QualityManager::stats() const {
  Stats snapshot;
  snapshot.queries = stats_.queries.load(std::memory_order_relaxed);
  snapshot.admitted = stats_.admitted.load(std::memory_order_relaxed);
  snapshot.rejected_no_plan =
      stats_.rejected_no_plan.load(std::memory_order_relaxed);
  snapshot.rejected_no_resources =
      stats_.rejected_no_resources.load(std::memory_order_relaxed);
  snapshot.renegotiated = stats_.renegotiated.load(std::memory_order_relaxed);
  snapshot.plans_generated =
      stats_.plans_generated.load(std::memory_order_relaxed);
  snapshot.groups_pruned =
      stats_.groups_pruned.load(std::memory_order_relaxed);
  return snapshot;
}

void QualityManager::set_observability(obs::Observability* observability) {
  if (observability == nullptr) {
    metrics_ = Metrics{};
    tracer_ = nullptr;
    return;
  }
  obs::MetricsRegistry& reg = observability->metrics();
  metrics_.queries = reg.GetCounter("quasaq_plan_queries_total",
                                    "Delivery queries planned");
  metrics_.admitted = reg.GetCounter("quasaq_plan_admitted_total",
                                     "Queries that passed admission control");
  metrics_.rejected_no_plan =
      reg.GetCounter("quasaq_plan_rejected_no_plan_total",
                     "Queries whose QoS no stored replica satisfies");
  metrics_.rejected_no_resources =
      reg.GetCounter("quasaq_plan_rejected_no_resources_total",
                     "Queries whose every plan failed admission");
  metrics_.relaxations =
      reg.GetCounter("quasaq_plan_relaxations_total",
                     "Second-chance QoS relaxation rounds attempted");
  metrics_.renegotiations =
      reg.GetCounter("quasaq_plan_renegotiations_total",
                     "Mid-playback renegotiations planned (counted once "
                     "per renegotiation, however many relaxation rounds "
                     "it retried)");
  metrics_.generated = reg.GetCounter("quasaq_plan_generated_total",
                                      "Plans materialized and costed");
  metrics_.groups_pruned =
      reg.GetCounter("quasaq_plan_groups_pruned_total",
                     "Search branches the LRB lower bound cut off");
  metrics_.per_query = reg.GetHistogram(
      "quasaq_plan_generated_per_query_count",
      "Plans materialized per query (prefix the admission walk expanded)",
      obs::HistogramOptions{/*first_bound=*/1.0, /*growth=*/2.0,
                            /*bucket_count=*/12});
  metrics_.cutoff_margin = reg.GetHistogram(
      "quasaq_plan_cutoff_margin_ratio",
      "Frontier lower bound over admitted cost when enumeration stopped",
      obs::HistogramOptions{/*first_bound=*/0.25, /*growth=*/1.5,
                            /*bucket_count=*/12});
  tracer_ = &observability->tracer();
}

void QualityManager::TraceBegin(const char* name, obs::Tracer::Args args) {
  if (tracer_ == nullptr || trace_track_ == 0) return;
  tracer_->Begin(trace_track_, name, trace_now_, std::move(args));
}

void QualityManager::TraceEnd(obs::Tracer::Args args) {
  if (tracer_ == nullptr || trace_track_ == 0) return;
  tracer_->End(trace_track_, trace_now_, std::move(args));
}

void QualityManager::TraceInstant(const char* name) {
  if (tracer_ == nullptr || trace_track_ == 0) return;
  tracer_->Instant(trace_track_, name, trace_now_);
}

void QualityManager::PopulateDefaultTranscodeTargets(
    PlanGenerator::Options& options) {
  if (!options.transcode_targets.empty()) return;
  for (const media::AppQos& level :
       media::QualityLadder::Standard().levels) {
    options.transcode_targets.push_back(level);
    media::AppQos variant = level;
    if (level.color_depth_bits > 12) {
      variant.color_depth_bits = 12;
      options.transcode_targets.push_back(variant);
    }
    if (level.audio > media::AudioQuality::kFm) {
      variant = level;
      variant.audio = media::AudioQuality::kFm;
      options.transcode_targets.push_back(variant);
      if (level.color_depth_bits > 12) {
        variant.color_depth_bits = 12;
        options.transcode_targets.push_back(variant);
      }
    }
  }
}

void QualityManager::ConfigureGain(const query::QosRequirement& qos) {
  if (options_.goal == OptimizationGoal::kUserSatisfaction) {
    evaluator_.set_gain_function(
        MakeSatisfactionGain(qos.range, options_.utility_weights));
  } else if (evaluator_.has_gain_function()) {
    // Throughput goal: the gain stays null. Skipping the redundant
    // clear keeps concurrent throughput-goal admissions write-free on
    // the evaluator.
    evaluator_.set_gain_function(nullptr);
  }
}

Result<QualityManager::Admitted> QualityManager::TryAdmitWithStream(
    PlanStream& stream, bool* had_plans) {
  // A stream that failed to open (no replica registered) has nothing to
  // walk in any round.
  if (!stream.status().ok()) return stream.status();
  const size_t generated_before = stream.stats().plans_generated;
  // On the streamed path enumeration and admission interleave, so one
  // plan.enumerate span covers the whole walk; reservation of the
  // winning plan still gets its own nested plan.reserve span.
  TraceBegin("plan.enumerate");
  Result<Admitted> result =
      Status::ResourceExhausted("no admittable plan");
  double admitted_cost = 0.0;
  int attempts = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    *had_plans = true;
    if (options_.max_admission_attempts > 0 &&
        attempts >= options_.max_admission_attempts) {
      break;
    }
    ++attempts;
    if (!qos_api_->Admissible(ranked->plan.resources)) continue;
    TraceBegin("plan.reserve");
    Result<res::ReservationId> reservation =
        qos_api_->Reserve(ranked->plan.resources);
    if (!reservation.ok()) {  // raced/edge: try the next plan
      TraceEnd({{"outcome", "rejected"}});
      continue;
    }
    Admitted admitted;
    admitted.plan = std::move(ranked->plan);
    admitted.reservation = *reservation;
    admitted_cost = ranked->cost;
    TraceEnd({{"attempts", std::to_string(attempts)},
              {"site", std::to_string(admitted.plan.delivery_site.value())}});
    result = std::move(admitted);
    break;
  }
  const size_t generated =
      stream.stats().plans_generated - generated_before;
  AccountGenerated(generated);
  if (metrics_.cutoff_margin != nullptr) {
    // How decisively the lower bound cut the rest of the space off: the
    // frontier's best remaining bound relative to the admitted cost.
    std::optional<double> bound = stream.FrontierBound();
    if (result.ok() && bound.has_value() && admitted_cost > 0.0) {
      metrics_.cutoff_margin->Observe(*bound / admitted_cost);
    }
  }
  TraceEnd({{"plans", std::to_string(generated)},
            {"pruned", std::to_string(stream.groups_pruned())}});
  return result;
}

void QualityManager::AccountGenerated(size_t generated) {
  stats_.plans_generated += generated;
  if (metrics_.generated != nullptr) {
    metrics_.generated->Increment(static_cast<double>(generated));
  }
}

void QualityManager::AccountStreamPruning(const PlanStream& stream) {
  if (!stream.status().ok()) return;
  stats_.groups_pruned += stream.groups_pruned();
  if (metrics_.groups_pruned != nullptr) {
    metrics_.groups_pruned->Increment(
        static_cast<double>(stream.groups_pruned()));
  }
}

Result<QualityManager::Admitted> QualityManager::AdmitQuery(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile) {
  ++stats_.queries;
  if (metrics_.queries != nullptr) metrics_.queries->Increment();
  TraceBegin("delivery.admit");
  const uint64_t generated_before =
      stats_.plans_generated.load(std::memory_order_relaxed);
  auto observe_per_query = [&] {
    if (metrics_.per_query != nullptr) {
      metrics_.per_query->Observe(static_cast<double>(
          stats_.plans_generated.load(std::memory_order_relaxed) -
          generated_before));
    }
  };
  ConfigureGain(qos);
  // One PlanStream serves the whole admission — relaxation rounds
  // Reset() it over the already-enumerated groups instead of
  // re-fetching metadata and re-seeding per round.
  PlanStream stream(&generator_, &evaluator_, &qos_api_->pool(), query_site,
                    content, qos);
  bool had_plans = false;
  Result<Admitted> attempt = TryAdmitWithStream(stream, &had_plans);
  if (attempt.ok()) {
    ++stats_.admitted;
    if (metrics_.admitted != nullptr) metrics_.admitted->Increment();
    AccountStreamPruning(stream);
    observe_per_query();
    TraceEnd({{"outcome", "admitted"}});
    return attempt;
  }

  // Second chance: relax the QoS bounds along the axis this user values
  // least and retry (paper §3.2's renegotiation on admission failure).
  bool any_plans_seen = had_plans;
  if (options_.enable_renegotiation && profile != nullptr) {
    query::QosRequirement relaxed = qos;
    for (int round = 0; round < options_.max_renegotiation_rounds; ++round) {
      if (!profile->RelaxForRenegotiation(relaxed.range)) break;
      if (metrics_.relaxations != nullptr) metrics_.relaxations->Increment();
      TraceInstant("plan.relax");
      ConfigureGain(relaxed);
      had_plans = false;
      stream.Reset(relaxed);
      Result<Admitted> retry = TryAdmitWithStream(stream, &had_plans);
      any_plans_seen = any_plans_seen || had_plans;
      if (retry.ok()) {
        ++stats_.admitted;
        ++stats_.renegotiated;
        if (metrics_.admitted != nullptr) metrics_.admitted->Increment();
        AccountStreamPruning(stream);
        observe_per_query();
        retry->renegotiated = true;
        TraceEnd({{"outcome", "admitted_relaxed"},
                  {"rounds", std::to_string(round + 1)}});
        return retry;
      }
    }
  }

  AccountStreamPruning(stream);
  observe_per_query();
  if (any_plans_seen) {
    ++stats_.rejected_no_resources;
    if (metrics_.rejected_no_resources != nullptr) {
      metrics_.rejected_no_resources->Increment();
    }
    TraceEnd({{"outcome", "rejected_no_resources"}});
    return Status::ResourceExhausted("no admittable plan after " +
                                     std::string(profile != nullptr
                                                     ? "renegotiation"
                                                     : "admission control"));
  }
  ++stats_.rejected_no_plan;
  if (metrics_.rejected_no_plan != nullptr) {
    metrics_.rejected_no_plan->Increment();
  }
  TraceEnd({{"outcome", "rejected_no_plan"}});
  return Status::NotFound("no plan satisfies the QoS bounds");
}

Status QualityManager::CompleteDelivery(const Admitted& admitted) {
  return qos_api_->Release(admitted.reservation);
}

Result<std::vector<QualityManager::RankedPlan>> QualityManager::ExplainPlans(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    size_t limit) {
  ConfigureGain(qos);
  PlanStream stream(&generator_, &evaluator_, &qos_api_->pool(), query_site,
                    content, qos);
  if (!stream.status().ok()) return stream.status();
  std::vector<RankedPlan> ranked;
  while (ranked.size() < limit) {
    std::optional<PlanStream::Ranked> next = stream.Next();
    if (!next.has_value()) break;
    RankedPlan entry;
    entry.cost =
        evaluator_.model().Cost(next->plan.resources, qos_api_->pool());
    entry.admissible = qos_api_->Admissible(next->plan.resources);
    entry.plan = std::move(next->plan);
    ranked.push_back(std::move(entry));
  }
  // EXPLAIN materializes and costs plans like an admission does, so it
  // feeds the same plan counters (but not the per-query ones).
  AccountGenerated(stream.stats().plans_generated);
  AccountStreamPruning(stream);
  return ranked;
}

std::string QualityManager::FormatPlanListing(
    LogicalOid content, const std::vector<RankedPlan>& plans) {
  std::string out = "EXPLAIN: " + std::to_string(plans.size()) +
                    " plans for logical OID " +
                    std::to_string(content.value()) + "\n";
  char buf[160];
  int rank = 1;
  for (const RankedPlan& entry : plans) {
    std::snprintf(buf, sizeof(buf),
                  "  %2d. cost=%.4f %-9s %6.1f KB/s  startup=%.1fs  %s\n",
                  rank++, entry.cost,
                  entry.admissible ? "admit" : "reject",
                  entry.plan.wire_rate_kbps, entry.plan.startup_seconds,
                  entry.plan.ToString().c_str());
    out += buf;
  }
  return out;
}

Result<QualityManager::Admitted> QualityManager::RenegotiateImpl(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile,
    const std::function<Status(const ResourceVector&)>& adopt,
    res::ReservationId reservation) {
  // One renegotiation — however many relaxation rounds it retries below
  // — counts once. Counting per round double-counted retried
  // renegotiations in the exposition.
  if (metrics_.renegotiations != nullptr) {
    metrics_.renegotiations->Increment();
  }
  ConfigureGain(qos);

  // One admission walk at fixed bounds; used per relaxation round.
  auto walk = [&](PlanStream& stream, bool* had_plans) -> Result<Admitted> {
    const size_t generated_before = stream.stats().plans_generated;
    TraceBegin("plan.enumerate");
    Result<Admitted> result = Status::ResourceExhausted(
        "no admittable plan for the renegotiated QoS");
    while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
      *had_plans = true;
      TraceBegin("plan.reserve");
      Status status = adopt(ranked->plan.resources);
      if (!status.ok()) {
        TraceEnd({{"outcome", "rejected"}});
        continue;
      }
      Admitted admitted;
      admitted.plan = std::move(ranked->plan);
      admitted.reservation = reservation;
      admitted.renegotiated = true;
      TraceEnd({{"site",
                 std::to_string(admitted.plan.delivery_site.value())}});
      result = std::move(admitted);
      break;
    }
    const size_t generated =
        stream.stats().plans_generated - generated_before;
    AccountGenerated(generated);
    TraceEnd({{"plans", std::to_string(generated)}});
    return result;
  };

  PlanStream stream(&generator_, &evaluator_, &qos_api_->pool(), query_site,
                    content, qos);
  if (!stream.status().ok()) return stream.status();
  bool had_plans = false;
  Result<Admitted> result = walk(stream, &had_plans);
  bool any_plans_seen = had_plans;
  if (!result.ok() && options_.enable_renegotiation && profile != nullptr) {
    // Relaxation rounds reuse the session's still-open stream: the
    // (replica, site) groups stay enumerated, only the QoS window and
    // the frontier re-arm.
    query::QosRequirement relaxed = qos;
    for (int round = 0; round < options_.max_renegotiation_rounds; ++round) {
      if (!profile->RelaxForRenegotiation(relaxed.range)) break;
      if (metrics_.relaxations != nullptr) metrics_.relaxations->Increment();
      TraceInstant("plan.relax");
      ConfigureGain(relaxed);
      stream.Reset(relaxed);
      had_plans = false;
      result = walk(stream, &had_plans);
      any_plans_seen = any_plans_seen || had_plans;
      if (result.ok()) break;
    }
  }
  AccountStreamPruning(stream);
  if (!result.ok() && !any_plans_seen) {
    return Status::NotFound("no plan satisfies the new QoS bounds");
  }
  return result;
}

Result<QualityManager::Admitted> QualityManager::RenegotiateDelivery(
    res::ReservationId id, SiteId query_site, LogicalOid content,
    const query::QosRequirement& qos, const UserProfile* profile) {
  if (qos_api_->Find(id) == nullptr) {
    return Status::NotFound("unknown reservation");
  }
  return RenegotiateImpl(
      query_site, content, qos, profile,
      [this, id](const ResourceVector& resources) {
        return qos_api_->Renegotiate(id, resources);
      },
      id);
}

Result<QualityManager::Admitted> QualityManager::PlanPausedRenegotiation(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile) {
  return RenegotiateImpl(
      query_site, content, qos, profile,
      [this](const ResourceVector& resources) {
        // Admission probe: the paused session must be able to carry the
        // plan *now*, but nothing may stay held — Resume re-admits the
        // adopted vector when playback actually restarts.
        Result<res::ReservationId> probe = qos_api_->Reserve(resources);
        if (!probe.ok()) return probe.status();
        Status released = qos_api_->Release(*probe);
        assert(released.ok());
        return released;
      },
      res::kInvalidReservationId);
}

}  // namespace quasaq::core
