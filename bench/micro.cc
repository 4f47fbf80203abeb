// Micro-benchmarks of the substrate components: event queue throughput,
// VBR frame generation, metadata catalog lookup, choice-table filtering,
// plan-stream seeding, query parsing, content search, resource-pool
// operations and utilization telemetry.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/resource_vector.h"
#include "core/cost_evaluator.h"
#include "core/cost_model.h"
#include "core/plan_generator.h"
#include "core/plan_stream.h"
#include "core/qop.h"
#include "core/query_producer.h"
#include "media/frames.h"
#include "media/library.h"
#include "metadata/metadata_store.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/content_search.h"
#include "query/parser.h"
#include "resource/pool.h"
#include "resource/telemetry.h"
#include "simcore/simulator.h"

namespace {

using namespace quasaq;  // NOLINT: benchmark harness

void BM_SimulatorScheduleExecute(benchmark::State& state) {
  sim::Simulator simulator;
  int64_t counter = 0;
  for (auto _ : state) {
    simulator.ScheduleAfter(1, [&counter] { ++counter; });
    simulator.Step();
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_SimulatorScheduleExecute);

void BM_FrameGeneration(benchmark::State& state) {
  media::FrameSizeGenerator generator(media::GopPattern::Standard(), 119.0,
                                      23.97, 1);
  for (auto _ : state) {
    media::FrameInfo frame = generator.Next();
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_FrameGeneration);

struct MetadataFixture {
  MetadataFixture() {
    media::LibraryOptions options;
    library = media::BuildExperimentLibrary(
        options, {SiteId(0), SiteId(1), SiteId(2)});
    for (const media::VideoContent& content : library.contents) {
      (void)store.InsertContent(content);
    }
    for (const media::ReplicaInfo& replica : library.replicas) {
      (void)store.InsertReplica(replica);
    }
  }
  media::VideoLibrary library;
  meta::MetadataStore store;
};

void BM_MetadataReplicasOf(benchmark::State& state) {
  static MetadataFixture* fixture = new MetadataFixture();
  for (auto _ : state) {
    auto replicas = fixture->store.ReplicasOf(LogicalOid(0));
    benchmark::DoNotOptimize(replicas);
  }
}
BENCHMARK(BM_MetadataReplicasOf);

// The 81 QoP requests the traffic generator's levels range over.
std::vector<core::QopRequest> TrafficRequests() {
  const core::QopLevel levels[] = {core::QopLevel::kLow,
                                   core::QopLevel::kMedium,
                                   core::QopLevel::kHigh};
  std::vector<core::QopRequest> requests;
  for (core::QopLevel spatial : levels) {
    for (core::QopLevel temporal : levels) {
      for (core::QopLevel color : levels) {
        for (core::QopLevel audio : levels) {
          core::QopRequest qop;
          qop.spatial = spatial;
          qop.temporal = temporal;
          qop.color = color;
          qop.audio = audio;
          requests.push_back(qop);
        }
      }
    }
  }
  return requests;
}

// The 81 QoS windows the traffic generator's QoP levels translate to.
std::vector<query::QosRequirement> TrafficWindows() {
  const core::UserProfile profile(UserId(0), "traffic-default");
  std::vector<query::QosRequirement> windows;
  for (const core::QopRequest& qop : TrafficRequests()) {
    query::QosRequirement qos;
    qos.range = profile.Translate(qop);
    windows.push_back(qos);
  }
  return windows;
}

// One ChoiceTable per iteration for a relayed group of the master
// quality (the richest key: every ladder level is a transcode target),
// under the traffic windows in turn. Only the first iteration prices the
// key's candidates; the rest time the per-round filter.
void BM_BuildChoiceTable(benchmark::State& state) {
  static MetadataFixture* fixture = new MetadataFixture();
  core::PlanGenerator generator(&fixture->store,
                                {SiteId(0), SiteId(1), SiteId(2)},
                                core::PlanGenerator::Options());
  Result<std::vector<core::PlanGenerator::GroupSeed>> groups =
      generator.EnumerateGroups(SiteId(0), LogicalOid(0));
  if (!groups.ok()) {
    state.SkipWithError("no replicas");
    return;
  }
  const media::AppQos master = fixture->library.contents[0].master_quality;
  auto seed = std::find_if(
      groups->begin(), groups->end(),
      [&](const core::PlanGenerator::GroupSeed& group) {
        return group.replica.qos == master &&
               group.delivery_site != group.replica.site;
      });
  if (seed == groups->end()) {
    state.SkipWithError("no relayed master-quality group");
    return;
  }
  const std::vector<query::QosRequirement> windows = TrafficWindows();
  size_t next = 0;
  for (auto _ : state) {
    core::PlanGenerator::ChoiceTable table =
        generator.BuildChoiceTable(*seed, windows[next]);
    benchmark::DoNotOptimize(table);
    next = next + 1 == windows.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_BuildChoiceTable);

// Group seeding: one PlanStream construction per iteration (metadata
// lookup, EnumerateGroups, then SeedFrontier's choice tables and group
// floors) for a title on the 3-site testbed with relay on, under the
// traffic windows in turn. Every bucket of the LRB pool holds a
// different share of its capacity, 10% to 70%, so the floors' keys
// differ. Nothing is expanded.
void BM_PlanStreamSeed(benchmark::State& state) {
  static MetadataFixture* fixture = new MetadataFixture();
  const net::Topology topology = net::Topology::PaperTestbed();
  core::PlanGenerator generator(&fixture->store, topology.SiteIds(),
                                core::PlanGenerator::Options());
  res::ResourcePool pool;
  int loaded = 0;
  for (const net::ServerSpec& server : topology.servers) {
    const double capacities[kNumResourceKinds] = {
        1.0, server.outbound_kbps, server.disk_kbps, server.memory_kb,
        server.memory_bandwidth_kbps};
    ResourceVector load;
    for (int kind = 0; kind < kNumResourceKinds; ++kind) {
      const BucketId bucket{server.id, static_cast<ResourceKind>(kind)};
      if (!pool.DeclareBucket(bucket, capacities[kind]).ok()) std::abort();
      load.Add(bucket, capacities[kind] * ((loaded++ % 7) + 1) / 10.0);
    }
    if (!pool.Acquire(load).ok()) std::abort();
  }
  core::LrbCostModel lrb;
  core::RuntimeCostEvaluator evaluator(&lrb);
  const std::vector<query::QosRequirement> windows = TrafficWindows();
  size_t next = 0;
  for (auto _ : state) {
    core::PlanStream stream(&generator, &evaluator, &pool, SiteId(0),
                            LogicalOid(0), windows[next]);
    benchmark::DoNotOptimize(stream.FrontierBound());
    next = next + 1 == windows.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_PlanStreamSeed);

// The query front end: one ParseQuery (lex, parse, validate) per
// iteration over the texts a traffic generator's queries render to, a
// title term under each of the 81 QoS windows, in turn.
void BM_ParseQuery(benchmark::State& state) {
  const core::UserProfile profile(UserId(0), "traffic-default");
  const core::QueryProducer producer(&profile);
  query::ContentPredicate content;
  content.title = "video07";
  std::vector<std::string> texts;
  for (const core::QopRequest& qop : TrafficRequests()) {
    texts.push_back(producer.ProduceText(content, qop));
  }
  size_t next = 0;
  for (auto _ : state) {
    Result<query::ParsedQuery> parsed = query::ParseQuery(texts[next]);
    benchmark::DoNotOptimize(parsed);
    next = next + 1 == texts.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_ParseQuery);

void BM_ContentKeywordSearch(benchmark::State& state) {
  static MetadataFixture* fixture = new MetadataFixture();
  query::ContentIndex index;
  for (const media::VideoContent& content : fixture->library.contents) {
    index.Add(content);
  }
  query::ContentPredicate predicate;
  predicate.keywords = {"news"};
  for (auto _ : state) {
    auto matches = index.Search(predicate);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_ContentKeywordSearch);

void BM_ContentSimilaritySearch(benchmark::State& state) {
  static MetadataFixture* fixture = new MetadataFixture();
  query::ContentIndex index;
  for (const media::VideoContent& content : fixture->library.contents) {
    index.Add(content);
  }
  query::ContentPredicate predicate;
  predicate.similar_to = std::vector<double>{0.5, 0.5, 0.5, 0.5,
                                             0.5, 0.5, 0.5, 0.5};
  predicate.top_k = 3;
  for (auto _ : state) {
    auto matches = index.Search(predicate);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_ContentSimilaritySearch);

void BM_ResourcePoolAcquireRelease(benchmark::State& state) {
  res::ResourcePool pool;
  for (int site = 0; site < 3; ++site) {
    for (int kind = 0; kind < kNumResourceKinds; ++kind) {
      Status declared = pool.DeclareBucket(
          {SiteId(site), static_cast<ResourceKind>(kind)}, 1000.0);
      if (!declared.ok()) std::abort();
    }
  }
  ResourceVector demand;
  demand.Add({SiteId(0), ResourceKind::kCpu}, 1.0);
  demand.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 10.0);
  demand.Add({SiteId(0), ResourceKind::kDiskBandwidth}, 10.0);
  for (auto _ : state) {
    Status status = pool.Acquire(demand);
    benchmark::DoNotOptimize(status);
    Status released = pool.Release(demand);
    benchmark::DoNotOptimize(released);
  }
}
BENCHMARK(BM_ResourcePoolAcquireRelease);

// Utilization telemetry at the wide workload's 16 sites (80 buckets):
// an admission's 3-bucket acquire, a sample, its release, a sample. The
// registry is rebuilt untimed every 4096 iterations, so no gauge history
// reaches Gauge::kMaxHistory and every recorded point is a real append.
void BM_PoolTelemetrySample(benchmark::State& state) {
  constexpr int kSites = 16;
  constexpr int kResetEvery = 4096;
  res::ResourcePool pool;
  for (int site = 0; site < kSites; ++site) {
    for (int kind = 0; kind < kNumResourceKinds; ++kind) {
      Status declared = pool.DeclareBucket(
          {SiteId(site), static_cast<ResourceKind>(kind)}, 1000.0);
      if (!declared.ok()) std::abort();
    }
  }
  ResourceVector demand;
  demand.Add({SiteId(7), ResourceKind::kCpu}, 1.0);
  demand.Add({SiteId(7), ResourceKind::kNetworkBandwidth}, 10.0);
  demand.Add({SiteId(7), ResourceKind::kDiskBandwidth}, 10.0);
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<res::PoolTelemetry> telemetry;
  SimTime now = 0;
  int until_reset = 0;
  for (auto _ : state) {
    if (until_reset-- == 0) {
      state.PauseTiming();
      telemetry.reset();
      registry = std::make_unique<obs::MetricsRegistry>();
      telemetry = std::make_unique<res::PoolTelemetry>(&pool, registry.get());
      until_reset = kResetEvery - 1;
      state.ResumeTiming();
    }
    if (!pool.Acquire(demand).ok()) std::abort();
    telemetry->Sample(++now);
    if (!pool.Release(demand).ok()) std::abort();
    telemetry->Sample(++now);
  }
}
BENCHMARK(BM_PoolTelemetrySample);

// Observability substrate: these bound what the instrumentation added
// to the delivery pipeline can cost per event.

void BM_MetricsCounterIncrement(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter =
      registry.GetCounter("quasaq_bench_ops_total", "bench");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsRegistryResolve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    obs::Counter* counter = registry.GetCounter(
        "quasaq_bench_labeled_total", "bench", {{"site", "2"}});
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_MetricsRegistryResolve);

void BM_MetricsRegistryResolveMultiLabel(benchmark::State& state) {
  // A multi-label lookup serializes the probe labels, which arrive
  // unsorted, into the canonical "k=v,k=v" key and finds it among a
  // small population of sibling children. Lookups run at set-up, not
  // per admission.
  obs::MetricsRegistry registry;
  for (int site = 0; site < 8; ++site) {
    registry.GetCounter("quasaq_bench_sharded_total", "bench",
                        {{"site", std::to_string(site)},
                         {"kind", "disk"},
                         {"op", "read"}});
  }
  for (auto _ : state) {
    obs::Counter* counter = registry.GetCounter(
        "quasaq_bench_sharded_total", "bench",
        {{"site", "5"}, {"kind", "disk"}, {"op", "read"}});
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_MetricsRegistryResolveMultiLabel);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram histogram(obs::HistogramOptions{1.0, 2.0, 24});
  double value = 0.0;
  for (auto _ : state) {
    histogram.Observe(value);
    value = value > 1e6 ? 0.0 : value + 17.0;
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_TracerBeginEnd(benchmark::State& state) {
  obs::Tracer tracer;
  int64_t track = tracer.NewTrack("bench");
  SimTime now = 0;
  for (auto _ : state) {
    tracer.Begin(track, "plan.enumerate", now);
    tracer.End(track, ++now);
  }
  benchmark::DoNotOptimize(tracer.event_count());
}
// Fixed iteration count: End events intentionally bypass the buffer
// cap (so exported traces stay balanced), which would let a free
// -running benchmark loop grow the buffer without bound.
BENCHMARK(BM_TracerBeginEnd)->Iterations(1 << 17);

void BM_TracerDisabled(benchmark::State& state) {
  obs::Tracer::Options options;
  options.enabled = false;
  obs::Tracer tracer(options);
  for (auto _ : state) {
    tracer.Begin(0, "plan.enumerate", 0);
    tracer.End(0, 0);
  }
  benchmark::DoNotOptimize(tracer.event_count());
}
BENCHMARK(BM_TracerDisabled);

}  // namespace

BENCHMARK_MAIN();
