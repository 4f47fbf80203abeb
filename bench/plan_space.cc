// Regenerates Figure 2: illustrative plan generation across the ordered
// activity sets A1 (object retrieval) .. A5 (encryption), plus the
// search-space ablation: raw combinatorial space vs statically pruned,
// plus the lazy-enumeration ablation: plans materialized by the eager
// materialize-and-rank pipeline vs the best-first PlanStream, with the
// position in the ranking at which the first plan is admitted.
//
// The scenario mirrors the figure: one logical object stored as
//   * physical copy 1 at site A (720x480/24bit MPEG2),
//   * physical copy 2 at site A (640x420-class MPEG1 copy),
//   * physical copy 1 at site B (720x480/24bit MPEG2),
// with two candidate delivery sites, four frame-dropping strategies,
// ladder transcode targets and three encryption algorithms; resource
// buckets come from the paper-testbed server specs.

#include <cassert>
#include <cstdlib>
#include <cstdio>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "core/cost_evaluator.h"
#include "core/cost_model.h"
#include "core/plan_generator.h"
#include "core/plan_stream.h"
#include "metadata/metadata_store.h"
#include "net/topology.h"
#include "resource/composite_api.h"
#include "resource/pool.h"

namespace {

using namespace quasaq;  // NOLINT: experiment harness

media::ReplicaInfo MakeReplica(int64_t oid, SiteId site,
                               const media::AppQos& qos) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(oid);
  replica.content = LogicalOid(0);
  replica.site = site;
  replica.qos = qos;
  replica.duration_seconds = 60.0;
  replica.frame_seed = static_cast<uint64_t>(oid);
  media::FinalizeReplicaSizing(replica);
  return replica;
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 2 — plan generation over activity sets A1-A5");

  const SiteId site_a(0);
  const SiteId site_b(1);
  std::vector<SiteId> sites = {site_a, site_b};
  meta::MetadataStore metadata;

  media::VideoContent content;
  content.id = LogicalOid(0);
  content.title = "object1";
  content.keywords = {"bush"};
  content.duration_seconds = 60.0;
  content.master_quality = media::QualityLadder::Standard().levels[0];
  Status status = metadata.InsertContent(content);
  assert(status.ok());

  const media::AppQos dvd = media::QualityLadder::Standard().levels[0];
  const media::AppQos vcd = media::QualityLadder::Standard().levels[1];
  for (const media::ReplicaInfo& replica :
       {MakeReplica(0, site_a, dvd), MakeReplica(1, site_a, vcd),
        MakeReplica(2, site_b, dvd)}) {
    status = metadata.InsertReplica(replica);
    assert(status.ok());
  }
  (void)status;

  query::QosRequirement qos;  // wide-open QoS bounds, security required
  qos.min_security = media::SecurityLevel::kStandard;
  qos.range.min_frame_rate = 1.0;

  size_t raw_space = 0;
  size_t pruned_space = 0;
  for (bool pruning : {false, true}) {
    core::PlanGenerator::Options options;
    options.apply_static_pruning = pruning;
    core::PlanGenerator generator(&metadata, sites, options);
    Result<std::vector<core::Plan>> plans =
        generator.Generate(site_a, LogicalOid(0), qos);
    assert(plans.ok());
    (pruning ? pruned_space : raw_space) = plans->size();
    std::printf("%-28s %zu plans\n",
                pruning ? "statically pruned space:" : "raw search space:",
                plans->size());
    if (pruning) {
      std::printf("\nexample plans (cf. Fig 2 solid and dotted paths):\n");
      size_t shown = 0;
      for (const core::Plan& plan : *plans) {
        // The solid-line example: copy at B, relayed to A, transcoded,
        // dropping B frames, encrypted.
        if (plan.source_site == site_b && plan.delivery_site == site_a &&
            plan.transform.transcode_target.has_value() &&
            plan.transform.drop == media::FrameDropStrategy::kAllBFrames) {
          std::printf("  [solid ] %s\n", plan.ToString().c_str());
          if (++shown >= 3) break;
        }
      }
      for (const core::Plan& plan : *plans) {
        // The dotted-line example: same object transcoded locally, no
        // dropping.
        if (plan.source_site == site_b && plan.delivery_site == site_b &&
            plan.transform.transcode_target.has_value() &&
            plan.transform.drop == media::FrameDropStrategy::kNone) {
          std::printf("  [dotted] %s\n", plan.ToString().c_str());
          break;
        }
      }
      std::printf("\nresource vector of the cheapest-looking plan:\n");
      std::printf("  %s\n  %s\n", plans->front().ToString().c_str(),
                  plans->front().resources.ToString().c_str());
    }
  }

  // ---------------------------------------------------------------
  // Lazy-enumeration ablation: the eager pipeline materializes and
  // ranks the whole (statically pruned) space before admission can
  // even start; the PlanStream expands (replica, site) groups
  // best-first and stops at the first admissible plan. Both walk the
  // identical ranking, so the first-admission *position* matches —
  // the work spent reaching it does not.
  bench::PrintHeader("Lazy enumeration — eager materialize-and-rank vs stream");

  res::ResourcePool pool;
  for (SiteId site : sites) {
    net::ServerSpec server;  // paper-testbed per-server capacities
    server.id = site;
    auto declare = [&pool, site](ResourceKind kind, double capacity) {
      if (!pool.DeclareBucket({site, kind}, capacity).ok()) std::abort();
    };
    declare(ResourceKind::kCpu, 1.0);
    declare(ResourceKind::kNetworkBandwidth, server.outbound_kbps);
    declare(ResourceKind::kDiskBandwidth, server.disk_kbps);
    declare(ResourceKind::kMemory, server.memory_kb);
    declare(ResourceKind::kMemoryBandwidth, server.memory_bandwidth_kbps);
  }
  obs::MetricsRegistry registry;
  res::CompositeQosApi api(&pool, registry);
  core::LrbCostModel lrb;
  core::RuntimeCostEvaluator evaluator(&lrb);
  core::PlanGenerator generator(&metadata, sites,
                                core::PlanGenerator::Options());

  bench::JsonWriter json("plan_space");
  json.Add("raw_space_plans", static_cast<double>(raw_space));
  json.Add("pruned_space_plans", static_cast<double>(pruned_space));

  // Two load points: an idle testbed (the cheapest plan is admitted
  // immediately) and a loaded one where site A's link is nearly full,
  // forcing the search past the plans that deliver the DVD rate there.
  for (bool loaded : {false, true}) {
    if (loaded) {
      ResourceVector busy;
      busy.Add({site_a, ResourceKind::kNetworkBandwidth}, 3000.0);
      busy.Add({site_b, ResourceKind::kNetworkBandwidth}, 2500.0);
      Status acquired = pool.Acquire(busy);
      assert(acquired.ok());
      (void)acquired;
    }

    Result<std::vector<core::Plan>> eager =
        generator.Generate(site_a, LogicalOid(0), qos);
    assert(eager.ok());
    evaluator.Rank(*eager, pool);
    size_t eager_position = 0;
    for (const core::Plan& plan : *eager) {
      ++eager_position;
      if (api.Admissible(plan.resources)) break;
    }

    core::PlanStream stream(&generator, &evaluator, &pool, site_a,
                            LogicalOid(0), qos);
    assert(stream.status().ok());
    size_t streamed_position = 0;
    while (std::optional<core::PlanStream::Ranked> next = stream.Next()) {
      ++streamed_position;
      if (api.Admissible(next->plan.resources)) break;
    }
    // Equivalence is the point of the ablation, so check it even in
    // release builds (the CI bench-smoke leg runs on exit status).
    if (streamed_position != eager_position) {
      std::fprintf(stderr,
                   "streamed-vs-eager divergence: first admission at #%zu "
                   "streamed vs #%zu eager\n",
                   streamed_position, eager_position);
      return 1;
    }

    const core::PlanStream::Stats& stats = stream.stats();
    const char* tag = loaded ? "loaded" : "idle";
    std::printf("[%s] eager:    %zu plans materialized, admitted at #%zu\n",
                tag, eager->size(), eager_position);
    std::printf("[%s] streamed: %zu plans materialized, admitted at #%zu "
                "(%zu of %zu groups never expanded)\n",
                tag, stats.plans_generated, streamed_position,
                stream.groups_pruned(), stats.groups);

    std::string prefix = std::string(tag) + "_";
    json.Add(prefix + "eager_plans_generated",
             static_cast<double>(eager->size()));
    json.Add(prefix + "streamed_plans_generated",
             static_cast<double>(stats.plans_generated));
    json.Add(prefix + "streamed_groups_pruned",
             static_cast<double>(stream.groups_pruned()));
    json.Add(prefix + "first_admission_position",
             static_cast<double>(eager_position));
  }
  json.WriteFile();
  return 0;
}
