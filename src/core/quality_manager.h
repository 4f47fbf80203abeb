#ifndef QUASAQ_CORE_QUALITY_MANAGER_H_
#define QUASAQ_CORE_QUALITY_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "core/cost_evaluator.h"
#include "core/plan_generator.h"
#include "core/plan_stream.h"
#include "core/qop.h"
#include "core/utility.h"
#include "metadata/metadata_store.h"
#include "obs/observability.h"
#include "query/ast.h"
#include "resource/composite_api.h"

// Quality Manager (paper §3.4): the focal point of QuaSAQ. For a query
// that phase 1 resolved to a logical OID, it generates delivery plans,
// ranks them with the Runtime Cost Evaluator, and walks the ranking
// through admission control — the first admittable plan is reserved and
// executed. When nothing is admittable and the user profile allows it,
// the QoS bounds are relaxed along the user's least-valued axis and the
// query gets a "second chance" (renegotiation).
//
// Admissions and renegotiations share one walk (paper §3.4, §3.6): a
// lazy best-first PlanStream (core/plan_stream.h) yields plans in
// ranking order, each is handed to an *adopt* step until one is taken,
// and relaxation rounds reuse the still-open stream (PlanStream::Reset)
// instead of re-seeding enumeration. Only the adopt step differs:
// admission reserves (Reserve is its one fit test, paper §3.5), a live
// renegotiation swaps the running reservation through the Composite QoS
// API, and a paused one only asks admission control (Admissible),
// reserving nothing. max_admission_attempts caps every round of every
// walk. Plans are materialized only as far as the walk looks, and the
// stream yields the exact order of PlanGenerator::Generate followed by a
// full ranking, so the adopted plan is the one an eager
// materialize-and-sort walk would pick. Under the pure LRB key,
// admissions and paused renegotiations also end a round where the
// frontier head's key is above 1 (exact in resource units): every plan
// left overflows a bucket, so stopping there changes no decision, and
// Reserve never denies a plan the walk reaches (callers serialize, so
// usage cannot move between ranking and reserving). The live swap walks
// on, because its ranking counts the reservation it releases.
//
// The counters live only in the metrics registry passed at
// construction; stats() reads them.
//
// Thread-compatible: the manager takes no lock, and neither do the
// generator's candidate store, the cost model (the Random model's RNG
// included) or the Composite QoS API it walks against. In a
// MediaDbSystem every call runs under the facade's one lock
// (docs/ARCHITECTURE.md "Threading model"). What belongs to one query,
// its gain and its trace context, travels as arguments down the walk.

namespace quasaq::core {

// Where one planner call's spans go: the owning delivery's trace track
// and the sim time to stamp them with (the sim clock does not advance
// during admission, so every span of one call shares a timestamp).
// track 0, the default, emits nothing.
struct TraceContext {
  int64_t track = 0;
  SimTime now = 0;
};

class QualityManager {
 public:
  // Optimization goal of the configurable cost model (paper §3.4,
  // E = G / C(r)): maximize system throughput (G = 1, the paper's
  // evaluated model) or maximize user satisfaction (G = presentation
  // utility of the delivered quality).
  enum class OptimizationGoal {
    kThroughput = 0,
    kUserSatisfaction,
  };

  struct Options {
    PlanGenerator::Options generator;
    // Relaxation rounds a walk may retry when a UserProfile is passed.
    int max_renegotiation_rounds = 2;
    // How many plans of the ranking a walk may try per round before it
    // gives up, for admissions and renegotiations alike. 0 = walk the
    // entire ranking (engineering improvement); 1 = the paper's
    // semantics, where only the first plan in ascending cost order is
    // submitted for admission.
    int max_admission_attempts = 0;
    OptimizationGoal goal = OptimizationGoal::kThroughput;
    // Axis weights when goal == kUserSatisfaction.
    UtilityWeights utility_weights;
  };

  struct Stats {
    uint64_t queries = 0;
    uint64_t admitted = 0;
    uint64_t rejected_no_plan = 0;      // QoS unsatisfiable from storage
    uint64_t rejected_no_resources = 0; // all plans failed admission
    uint64_t renegotiated = 0;          // admitted at relaxed QoS
    // Plans materialized and costed (admissions, renegotiations and
    // EXPLAIN): only the prefix of the ranking the walk expanded.
    uint64_t plans_generated = 0;
    uint64_t groups_skipped = 0;  // no QoS-feasible choice, never seeded
    uint64_t groups_pruned = 0;   // seeded, never expanded
  };

  // A successfully admitted query.
  struct Admitted {
    Plan plan;
    res::ReservationId reservation = res::kInvalidReservationId;
    bool renegotiated = false;
  };

  /// All pointers and `observability` must outlive the manager. The
  /// plan-search counters and histograms are registered in
  /// `observability`'s registry here; spans go to its tracer.
  QualityManager(const meta::MetadataStore* metadata,
                 res::CompositeQosApi* qos_api, CostModel* cost_model,
                 std::vector<SiteId> sites, const Options& options,
                 obs::Observability& observability);

  /// Populates `options.transcode_targets` (when empty) with the
  /// standard ladder plus reduced-color and reduced-audio variants so
  /// color-only or audio-only degradations are plannable — the default
  /// activity set of the full-stack system configuration.
  static void PopulateDefaultTranscodeTargets(PlanGenerator::Options& options);

  /// Plans, ranks and reserves the delivery of `content` under `qos`.
  /// `profile` enables relaxation (nullptr = none); spans go to
  /// `trace`. Fails with kNotFound when no plan satisfies the QoS from
  /// storage and kResourceExhausted when no satisfying plan passes
  /// admission.
  Result<Admitted> AdmitQuery(SiteId query_site, LogicalOid content,
                              const query::QosRequirement& qos,
                              const UserProfile* profile = nullptr,
                              TraceContext trace = {});

  /// Releases the resources of a finished (or aborted) delivery.
  Status CompleteDelivery(const Admitted& admitted);

  /// Mid-playback renegotiation (paper §3.2's first scenario: "QoS
  /// requirements are allowed to be modified during media playback"):
  /// re-plans `content` under `qos` and atomically swaps the running
  /// reservation `id` to the best admittable new plan. On failure the
  /// old reservation stands untouched. When `profile` is non-null, an
  /// unservable `qos` is relaxed along the profile's least-valued axis
  /// for up to max_renegotiation_rounds retries — each round reusing
  /// the same still-open plan stream.
  Result<Admitted> RenegotiateDelivery(res::ReservationId id,
                                       SiteId query_site, LogicalOid content,
                                       const query::QosRequirement& qos,
                                       const UserProfile* profile = nullptr,
                                       TraceContext trace = {});

  /// Renegotiation flavor for *paused* sessions, which hold no
  /// reservation to swap: plans `qos`, adopts the best plan admission
  /// control would take *now* (a read-only Admissible check: nothing is
  /// reserved, nothing counted as a reservation — Resume re-admits the
  /// adopted vector when playback restarts) and returns it with an
  /// invalid reservation id. Counts as a renegotiation, not as a fresh
  /// query: the plan.queries/admitted counters and the delivery.admit
  /// span stay untouched.
  Result<Admitted> PlanPausedRenegotiation(SiteId query_site,
                                           LogicalOid content,
                                           const query::QosRequirement& qos,
                                           const UserProfile* profile =
                                               nullptr,
                                           TraceContext trace = {});

  // One entry of an EXPLAIN listing: a ranked plan, its ranking key
  // C(r)/G under the current system status, and whether admission
  // control would take it.
  struct RankedPlan {
    Plan plan;
    double cost = 0.0;
    bool admissible = false;
  };

  /// Enumerates and ranks the plans for `content` under `qos` without
  /// reserving anything — the EXPLAIN path. At most `limit` entries;
  /// enumeration stops as soon as `limit` plans have been yielded
  /// instead of ranking the whole space first.
  Result<std::vector<RankedPlan>> ExplainPlans(
      SiteId query_site, LogicalOid content,
      const query::QosRequirement& qos, size_t limit = 10);

  /// Renders an EXPLAIN listing for `content`, one plan per line with
  /// its cost, wire rate, startup latency and admissibility.
  static std::string FormatPlanListing(LogicalOid content,
                                       const std::vector<RankedPlan>& plans);

  /// Reads the registry counters (each field is one atomic read).
  Stats stats() const;
  res::CompositeQosApi& qos_api() { return *qos_api_; }
  PlanGenerator& generator() { return generator_; }

 private:
  // Registry handles, resolved at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& registry);
    obs::Counter* queries;
    obs::Counter* admitted;
    obs::Counter* admitted_relaxed;
    obs::Counter* rejected_no_plan;
    obs::Counter* rejected_no_resources;
    obs::Counter* relaxations;
    obs::Counter* renegotiations;
    obs::Counter* generated;
    obs::Counter* groups_skipped;
    obs::Counter* groups_pruned;
    obs::Histogram* per_query;
    obs::Histogram* cutoff_margin;
  };

  // The step that takes a plan once the walk has chosen it: the
  // reservation the plan now holds, or nullopt to walk on.
  using Adopt = std::function<std::optional<res::ReservationId>(
      const ResourceVector&)>;

  // What one walk ended with.
  struct Walked {
    // The adopted plan (renegotiated = taken in a relaxation round);
    // otherwise the stream's failure, kResourceExhausted when plans
    // existed but none was adopted, or kNotFound when no round yielded
    // a plan.
    Result<Admitted> result;
    int rounds = 0;               // relaxation rounds run
    size_t plans_generated = 0;   // over every round
  };

  // Span helpers; callers build arguments only when `trace.track` is
  // set.
  void TraceBegin(const TraceContext& trace, const char* name);
  void TraceEnd(const TraceContext& trace, obs::Tracer::Args args = {});
  void TraceInstant(const TraceContext& trace, const char* name);
  // The gain the optimization goal gives a query with QoS window `qos`:
  // empty (G = 1) for kThroughput.
  RuntimeCostEvaluator::GainFunction GainFor(
      const query::QosRequirement& qos) const;
  // The one plan → rank → adopt walk behind every admission and
  // renegotiation: walks the ranking of `content` under `qos`, handing
  // at most max_admission_attempts plans per round to `adopt`, and
  // relaxes along `profile` (when non-null) for up to
  // max_renegotiation_rounds rounds while nothing is adopted. With
  // `stop_at_overflow`, for an adopt step that judges plans against the
  // pool as ranked, a round under the pure LRB key ends where every plan
  // left overflows. Accounts plans generated, groups skipped and
  // pruned, and the cutoff margin.
  Walked Walk(SiteId query_site, LogicalOid content,
              const query::QosRequirement& qos, const UserProfile* profile,
              const TraceContext& trace, const Adopt& adopt,
              bool stop_at_overflow);
  // One round of Walk at fixed bounds, pulling plans up to `max_key`:
  // the adopted plan, or nullopt.
  std::optional<Admitted> WalkRound(PlanStream& stream, double max_key,
                                    const TraceContext& trace,
                                    const Adopt& adopt);
  // The renegotiation flavors of Walk: counted once, whatever the
  // number of rounds.
  Result<Admitted> Renegotiate(SiteId query_site, LogicalOid content,
                               const query::QosRequirement& qos,
                               const UserProfile* profile,
                               const TraceContext& trace, const Adopt& adopt,
                               bool stop_at_overflow);
  // Folds a finished stream's plans and pruning into the counters.
  void AccountStream(const PlanStream& stream);

  res::CompositeQosApi* qos_api_;
  PlanGenerator generator_;
  const RuntimeCostEvaluator evaluator_;
  Options options_;
  const Metrics metrics_;
  obs::Tracer* tracer_;
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_QUALITY_MANAGER_H_
