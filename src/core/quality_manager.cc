#include "core/quality_manager.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <optional>

namespace quasaq::core {

namespace {

// The LRB key above which no plan can fit. The key is the fullest bucket
// once a plan is overlaid, max_i (U_i + r_i) / R_i, in integer units with
// every R_i below 2^52, so it is above 1 exactly when U_i + r_i > R_i.
// That bucket is one the plan touches: usage grows only through Acquire,
// which checks the fit, and a bucket is declared once, so no bucket is
// above capacity on its own. A group's floor key lower-bounds its plans'
// keys, so once the frontier head is above this key, so is every plan
// still to come.
constexpr double kOverflowKey = 1.0;

}  // namespace

QualityManager::QualityManager(const meta::MetadataStore* metadata,
                               res::CompositeQosApi* qos_api,
                               CostModel* cost_model,
                               std::vector<SiteId> sites,
                               const Options& options,
                               obs::Observability& observability)
    : qos_api_(qos_api),
      generator_(metadata, std::move(sites), options.generator),
      evaluator_(cost_model),
      options_(options),
      metrics_(observability.metrics()),
      tracer_(&observability.tracer()) {
  assert(qos_api_ != nullptr);
}

QualityManager::Metrics::Metrics(obs::MetricsRegistry& registry)
    : queries(registry.GetCounter("quasaq_plan_queries_total",
                                  "Delivery queries planned")),
      admitted(registry.GetCounter("quasaq_plan_admitted_total",
                                   "Queries that passed admission control")),
      admitted_relaxed(
          registry.GetCounter("quasaq_plan_admitted_relaxed_total",
                              "Queries admitted only after QoS relaxation")),
      rejected_no_plan(
          registry.GetCounter("quasaq_plan_rejected_no_plan_total",
                              "Queries whose QoS no stored replica satisfies")),
      rejected_no_resources(
          registry.GetCounter("quasaq_plan_rejected_no_resources_total",
                              "Queries whose every plan failed admission")),
      relaxations(
          registry.GetCounter("quasaq_plan_relaxations_total",
                              "Second-chance QoS relaxation rounds attempted")),
      renegotiations(registry.GetCounter(
          "quasaq_plan_renegotiations_total",
          "Mid-playback renegotiations planned (counted once per "
          "renegotiation, however many relaxation rounds it retried)")),
      generated(registry.GetCounter("quasaq_plan_generated_total",
                                    "Plans materialized and costed")),
      groups_skipped(registry.GetCounter(
          "quasaq_plan_groups_skipped_total",
          "Groups with no QoS-feasible choice, never seeded")),
      groups_pruned(
          registry.GetCounter("quasaq_plan_groups_pruned_total",
                              "Search branches the LRB lower bound cut off")),
      per_query(registry.GetHistogram(
          "quasaq_plan_generated_per_query_count",
          "Plans materialized per query (prefix the admission walk expanded)",
          obs::HistogramOptions{/*first_bound=*/1.0, /*growth=*/2.0,
                                /*bucket_count=*/12})),
      cutoff_margin(registry.GetHistogram(
          "quasaq_plan_cutoff_margin_ratio",
          "Frontier lower bound over admitted cost when enumeration stopped",
          obs::HistogramOptions{/*first_bound=*/0.25, /*growth=*/1.5,
                                /*bucket_count=*/12})) {}

QualityManager::Stats QualityManager::stats() const {
  auto read = [](const obs::Counter* counter) {
    return static_cast<uint64_t>(counter->value());
  };
  Stats snapshot;
  snapshot.queries = read(metrics_.queries);
  snapshot.admitted = read(metrics_.admitted);
  snapshot.rejected_no_plan = read(metrics_.rejected_no_plan);
  snapshot.rejected_no_resources = read(metrics_.rejected_no_resources);
  snapshot.renegotiated = read(metrics_.admitted_relaxed);
  snapshot.plans_generated = read(metrics_.generated);
  snapshot.groups_skipped = read(metrics_.groups_skipped);
  snapshot.groups_pruned = read(metrics_.groups_pruned);
  return snapshot;
}

void QualityManager::TraceBegin(const TraceContext& trace, const char* name) {
  if (trace.track != 0) tracer_->Begin(trace.track, name, trace.now);
}

void QualityManager::TraceEnd(const TraceContext& trace,
                              obs::Tracer::Args args) {
  if (trace.track != 0) tracer_->End(trace.track, trace.now, std::move(args));
}

void QualityManager::TraceInstant(const TraceContext& trace,
                                  const char* name) {
  if (trace.track != 0) tracer_->Instant(trace.track, name, trace.now);
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

RuntimeCostEvaluator::GainFunction QualityManager::GainFor(
    const query::QosRequirement& qos) const {
  if (options_.goal != OptimizationGoal::kUserSatisfaction) return {};
  return MakeSatisfactionGain(qos.range, options_.utility_weights);
}

std::optional<QualityManager::Admitted> QualityManager::WalkRound(
    PlanStream& stream, double max_key, const TraceContext& trace,
    const Adopt& adopt) {
  // Enumeration and adoption interleave, so one plan.enumerate span
  // covers the round; each adopt attempt nests a plan.reserve span.
  TraceBegin(trace, "plan.enumerate");
  const size_t generated_before = stream.stats().plans_generated;
  std::optional<Admitted> adopted;
  int attempts = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next(max_key)) {
    if (options_.max_admission_attempts > 0 &&
        attempts >= options_.max_admission_attempts) {
      break;
    }
    ++attempts;
    TraceBegin(trace, "plan.reserve");
    std::optional<res::ReservationId> reservation =
        adopt(ranked->plan.resources);
    if (!reservation.has_value()) {
      if (trace.track != 0) TraceEnd(trace, {{"outcome", "rejected"}});
      continue;
    }
    if (trace.track != 0) {
      TraceEnd(trace,
               {{"attempts", std::to_string(attempts)},
                {"site", std::to_string(ranked->plan.delivery_site.value())}});
    }
    // How decisively the lower bound cut the rest of the space off: the
    // frontier's best remaining bound relative to the adopted cost.
    std::optional<double> bound = stream.FrontierBound();
    if (bound.has_value() && ranked->cost > 0.0) {
      metrics_.cutoff_margin->Observe(*bound / ranked->cost);
    }
    adopted.emplace();
    adopted->plan = std::move(ranked->plan);
    adopted->reservation = *reservation;
    break;
  }
  if (trace.track != 0) {
    TraceEnd(trace, {{"plans", std::to_string(stream.stats().plans_generated -
                                              generated_before)},
                     {"skipped", std::to_string(stream.stats().groups_skipped)},
                     {"pruned", std::to_string(stream.groups_pruned())}});
  }
  return adopted;
}

QualityManager::Walked QualityManager::Walk(SiteId query_site,
                                            LogicalOid content,
                                            const query::QosRequirement& qos,
                                            const UserProfile* profile,
                                            const TraceContext& trace,
                                            const Adopt& adopt,
                                            bool stop_at_overflow) {
  RuntimeCostEvaluator::GainFunction gain = GainFor(qos);
  // Only a pure LRB key above 1 means the plan overflows a bucket;
  // the other models' keys and a gain-scaled key say nothing about fit.
  // Whether a gain is set depends on the goal alone, so this holds for
  // every round.
  const double max_key =
      stop_at_overflow && evaluator_.SupportsCostLowerBound(gain)
          ? kOverflowKey
          : std::numeric_limits<double>::infinity();
  // One PlanStream serves the whole walk — relaxation rounds Reset() it
  // over the already-enumerated groups instead of re-fetching metadata
  // and re-seeding per round.
  PlanStream stream(&generator_, &evaluator_, &qos_api_->pool(), query_site,
                    content, qos, std::move(gain));
  // A stream that failed to open (no replica registered) has nothing to
  // walk in any round.
  if (!stream.status().ok()) return Walked{stream.status()};
  int rounds = 0;
  std::optional<Admitted> adopted = WalkRound(stream, max_key, trace, adopt);
  // Read per round (Reset rebuilds the tables), not from what the walk
  // yielded: a round stopped at max_key yields nothing, yet had plans.
  bool had_plans = stream.has_plans();
  // Second chance: relax the QoS bounds along the axis this user values
  // least and retry (paper §3.2's renegotiation on admission failure).
  query::QosRequirement relaxed = qos;
  while (!adopted.has_value() && profile != nullptr &&
         rounds < options_.max_renegotiation_rounds &&
         profile->RelaxForRenegotiation(relaxed.range)) {
    ++rounds;
    metrics_.relaxations->Increment();
    TraceInstant(trace, "plan.relax");
    stream.Reset(relaxed, GainFor(relaxed));
    adopted = WalkRound(stream, max_key, trace, adopt);
    had_plans = had_plans || stream.has_plans();
  }
  AccountStream(stream);
  const size_t generated = stream.stats().plans_generated;
  if (adopted.has_value()) {
    adopted->renegotiated = rounds > 0;
    return Walked{std::move(*adopted), rounds, generated};
  }
  return Walked{had_plans
                    ? Status::ResourceExhausted("no admittable plan")
                    : Status::NotFound("no plan satisfies the QoS bounds"),
                rounds, generated};
}

void QualityManager::AccountStream(const PlanStream& stream) {
  metrics_.generated->Increment(
      static_cast<double>(stream.stats().plans_generated));
  metrics_.groups_skipped->Increment(
      static_cast<double>(stream.stats().groups_skipped));
  metrics_.groups_pruned->Increment(
      static_cast<double>(stream.groups_pruned()));
}

Result<QualityManager::Admitted> QualityManager::AdmitQuery(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, TraceContext trace) {
  metrics_.queries->Increment();
  TraceBegin(trace, "delivery.admit");
  // Reserve is the one fit test. The walk stops before plans whose LRB
  // key already overflows, so a denial here is a plan ranked by a model
  // with no such bound.
  Walked walked = Walk(
      query_site, content, qos, profile, trace,
      [this](const ResourceVector& resources)
          -> std::optional<res::ReservationId> {
        Result<res::ReservationId> reservation = qos_api_->Reserve(resources);
        if (!reservation.ok()) return std::nullopt;
        return *reservation;
      },
      /*stop_at_overflow=*/true);
  // This admission's own plans, counted on its stream.
  metrics_.per_query->Observe(static_cast<double>(walked.plans_generated));
  const char* outcome = nullptr;
  if (walked.result.ok()) {
    metrics_.admitted->Increment();
    outcome = "admitted";
    if (walked.result->renegotiated) {
      metrics_.admitted_relaxed->Increment();
      outcome = "admitted_relaxed";
    }
  } else if (walked.result.status().code() ==
             StatusCode::kResourceExhausted) {
    metrics_.rejected_no_resources->Increment();
    outcome = "rejected_no_resources";
  } else {
    metrics_.rejected_no_plan->Increment();
    outcome = "rejected_no_plan";
  }
  if (trace.track != 0) {
    obs::Tracer::Args args = {{"outcome", outcome}};
    if (walked.rounds > 0 && walked.result.ok()) {
      args.emplace_back("rounds", std::to_string(walked.rounds));
    }
    TraceEnd(trace, std::move(args));
  }
  return std::move(walked.result);
}

Status QualityManager::CompleteDelivery(const Admitted& admitted) {
  return qos_api_->Release(admitted.reservation);
}

Result<std::vector<QualityManager::RankedPlan>> QualityManager::ExplainPlans(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    size_t limit) {
  PlanStream stream(&generator_, &evaluator_, &qos_api_->pool(), query_site,
                    content, qos, GainFor(qos));
  if (!stream.status().ok()) return stream.status();
  std::vector<RankedPlan> ranked;
  while (ranked.size() < limit) {
    std::optional<PlanStream::Ranked> next = stream.Next();
    if (!next.has_value()) break;
    RankedPlan entry;
    entry.cost = next->cost;
    entry.admissible = qos_api_->Admissible(next->plan.resources);
    entry.plan = std::move(next->plan);
    ranked.push_back(std::move(entry));
  }
  // EXPLAIN materializes and costs plans like an admission does, so it
  // feeds the same plan counters (but not the per-query ones).
  AccountStream(stream);
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

Result<QualityManager::Admitted> QualityManager::Renegotiate(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, const TraceContext& trace,
    const Adopt& adopt, bool stop_at_overflow) {
  // One renegotiation — however many relaxation rounds it retries —
  // counts once. Counting per round double-counted retried
  // renegotiations in the exposition.
  metrics_.renegotiations->Increment();
  Walked walked = Walk(query_site, content, qos, profile, trace, adopt,
                       stop_at_overflow);
  if (walked.result.ok()) walked.result->renegotiated = true;
  return std::move(walked.result);
}

Result<QualityManager::Admitted> QualityManager::RenegotiateDelivery(
    res::ReservationId id, SiteId query_site, LogicalOid content,
    const query::QosRequirement& qos, const UserProfile* profile,
    TraceContext trace) {
  if (qos_api_->Find(id) == nullptr) {
    return Status::NotFound("unknown reservation");
  }
  // The ranking counts the session's own reservation, which the swap
  // releases first: a plan whose key is above 1 may still fit, so this
  // walk does not stop at the overflow key.
  return Renegotiate(query_site, content, qos, profile, trace,
                     [this, id](const ResourceVector& resources)
                         -> std::optional<res::ReservationId> {
                       if (!qos_api_->Renegotiate(id, resources).ok()) {
                         return std::nullopt;
                       }
                       return id;
                     },
                     /*stop_at_overflow=*/false);
}

Result<QualityManager::Admitted> QualityManager::PlanPausedRenegotiation(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
    const UserProfile* profile, TraceContext trace) {
  return Renegotiate(
      query_site, content, qos, profile, trace,
      [this](const ResourceVector& resources)
          -> std::optional<res::ReservationId> {
        // The paused session must be able to carry the plan *now*, but
        // nothing may be held — Resume re-admits the adopted vector when
        // playback actually restarts.
        if (!qos_api_->Admissible(resources)) return std::nullopt;
        return res::kInvalidReservationId;
      },
      /*stop_at_overflow=*/true);
}

}  // namespace quasaq::core
