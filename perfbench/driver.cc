// Admission benchmark driver (the program behind perfbench/run.py).
//
// Replays seeded streams of QoS-aware text queries through the full
// QuaSAQ path a user triggers -- parse, content resolution, plan search,
// admission, session start -- against a simulated deployment whose
// sessions play out and complete in simulated time between arrivals.
// Wall-clock time is what is measured; the simulation only supplies a
// realistic, deterministic load on the resource buckets.
//
// --seed draws kStreams query streams. A run is a sequence of *passes*;
// each builds a fresh system (timed: set-up), replays one stream, drains
// the remaining sessions and checks the invariants. First every stream
// is replayed once untraced and unmeasured (the warm-up); measured passes
// then cycle through the streams until --seconds have been measured, at
// least once each. Every measured replay of a stream, traced or not, must
// reproduce the outcome digest of its warm-up replay, and the QoS outcome
// metrics come from the warm-up replays, so they are fixed by the seed.
//
// --trace 0 prints the end-to-end metrics: per-query latency of the text
// path, query throughput of the passes' loops (clock advance, in which
// sessions complete and release their resources, plus submission), the
// QoS outcome and set-up time. Reference ops interleaved with the queries
// scale the times to a nominal machine speed (see kNominalOpUs), so that
// other tenants of a shared machine do not move them. Queries are
// submitted from one thread on the default system options (one session
// shard, serial plan costing). --trace 1 instead times each layer
// boundary from here: it splits the text path into parse, resolve and
// delivery, and after every delivery probes the planner's layers
// read-only on the same state (group seeding, expansion and costing of
// the *full* plan space, which the streamed planner only partly walks;
// telemetry sampling). The probes may not change a decision, which the
// digest checks enforce. --trace-file writes the spans of the first
// traced queries as Chrome trace-event JSON.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_evaluator.h"
#include "core/cost_model.h"
#include "core/query_producer.h"
#include "core/system.h"
#include "core/utility.h"
#include "media/library.h"
#include "query/parser.h"
#include "simcore/simulator.h"
#include "workload/traffic.h"

namespace {

using namespace quasaq;  // NOLINT: benchmark harness
using Clock = std::chrono::steady_clock;

// Query streams drawn per seed; measured passes cycle through them.
constexpr int kStreams = 4;

// Sites of the "wide" workload: the geometric midpoint of the first
// step (4 -> 64 sites) of the ROADMAP's sites sweep. 64 sites already
// take over 5 ms per query, too few queries for a steady run.
constexpr int kWideSites = 16;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// A workload is a deployment plus a traffic mix; --seed draws the query
// streams from the mix. The deployment itself is fixed per workload.
struct Workload {
  core::MediaDbSystem::Options system;
  workload::TrafficOptions traffic;
  int queries_per_pass = 0;
};

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.system.kind = core::SystemKind::kVdbmsQuasaq;
  w.system.seed = 7;
  // Session lengths as in the Figure 6 harness, so the buckets reach a
  // steady state early in a pass.
  w.system.library.max_duration_seconds = 120.0;
  if (name == "paper") {
    // The paper's testbed and traffic: three sites, uniform access,
    // one query per second.
    w.traffic.mean_interarrival_seconds = 1.0;
    w.queries_per_pass = 1500;
  } else if (name == "wide") {
    // Each value is taken from elsewhere in the repository:
    // - kWideSites sites (see there);
    // - each site gets the paper testbed's per-site arrival rate
    //   (3 sites at 1 query/s), so load per site matches "paper";
    // - fast links and slow disks with 96 MB segment caches, as in
    //   bench/cache_hit_ratio.cc, so cache-served plans compete with
    //   disk-served ones;
    // - Zipf 1.1 popularity, as in bench/ablation_replication_dynamic.cc;
    // - no relay, as in bench/admission_scale.cc, so a site serves only
    //   its own replicas and the plan space grows with replicas rather
    //   than with the square of the site count.
    w.system.topology = net::Topology::Uniform(kWideSites);
    w.system.quality.generator.enable_relay = false;
    for (net::ServerSpec& server : w.system.topology.servers) {
      server.outbound_kbps = 8000.0;
      server.disk_kbps = 2500.0;
    }
    w.system.cache.enabled = true;
    w.system.cache.manager.cache.capacity_kb = 96.0 * 1024.0;
    w.traffic.mean_interarrival_seconds = 3.0 / kWideSites;
    w.traffic.video_zipf_s = 1.1;
    // Spans 300 s of simulated time: the buckets fill within the first
    // 120 s (the longest session), as in "paper".
    w.queries_per_pass = 100 * kWideSites;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Query {
  SimTime arrival = 0;
  SiteId site;
  LogicalOid content;
  query::QosRequirement qos;
  std::string text;
};

bool SameQos(const query::QosRequirement& a, const query::QosRequirement& b) {
  const media::AppQosRange& x = a.range;
  const media::AppQosRange& y = b.range;
  return x.min_resolution == y.min_resolution &&
         x.max_resolution == y.max_resolution &&
         x.min_color_depth_bits == y.min_color_depth_bits &&
         x.max_color_depth_bits == y.max_color_depth_bits &&
         x.min_frame_rate == y.min_frame_rate &&
         x.max_frame_rate == y.max_frame_rate &&
         x.accepted_formats == y.accepted_formats &&
         x.min_audio == y.min_audio && x.max_audio == y.max_audio &&
         a.min_security == b.min_security &&
         a.max_startup_seconds == b.max_startup_seconds;
}

// splitmix64: decorrelates the per-stream traffic seeds.
uint64_t StreamSeed(uint64_t seed, int stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(stream);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Draws query stream `stream` of `seed` and renders each query as the
// text a user's QoP browser would send. Every text must parse back to
// exactly the generated QoS window; `mismatches` counts those that do
// not.
std::vector<Query> MakeQueries(const Workload& w,
                               const media::VideoLibrary& library,
                               uint64_t seed, int stream,
                               uint64_t* mismatches) {
  workload::TrafficOptions traffic_options = w.traffic;
  traffic_options.seed = StreamSeed(seed, stream);
  workload::TrafficGenerator traffic(traffic_options,
                                     w.system.library.num_videos,
                                     w.system.topology.SiteIds());
  core::QueryProducer producer(&traffic.profile());

  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(w.queries_per_pass));
  SimTime now = 0;
  for (int i = 0; i < w.queries_per_pass; ++i) {
    now += SecondsToSimTime(traffic.NextGapSeconds());
    workload::QuerySpec spec = traffic.Next();
    query::ContentPredicate content;
    content.title =
        library.contents[static_cast<size_t>(spec.content.value())].title;
    Query q;
    q.arrival = now;
    q.site = spec.client_site;
    q.content = spec.content;
    q.qos = spec.qos;
    q.text = producer.ProduceText(content, spec.qop);
    Result<query::ParsedQuery> parsed = query::ParseQuery(q.text);
    if (!parsed.ok() || !SameQos(parsed->qos, q.qos)) ++*mismatches;
    queries.push_back(std::move(q));
  }
  return queries;
}

void Mix(uint64_t& h, uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
}

uint64_t Bits(double v) {
  uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// Per-layer samples gathered by traced passes.
struct LayerTimes {
  std::vector<double> parse_us;
  std::vector<double> resolve_us;
  std::vector<double> deliver_us;
  std::vector<double> seed_us;
  std::vector<double> telemetry_us;
  std::vector<double> snapshot_ms;
  double advance_s = 0.0;
  double expand_s = 0.0;
  double cost_s = 0.0;
  uint64_t queries = 0;
  uint64_t groups = 0;
  uint64_t plans = 0;
};

// One reference op: a fixed amount of ordinary C++ work that shares no
// code with the program under test -- ordered and hashed map inserts,
// string formatting, vector growth, and random reads and writes over a
// 2 MB table. Returns a checksum so the work cannot be optimized away.
uint64_t ReferenceOp(uint64_t salt) {
  std::map<uint64_t, std::string> ordered;
  std::unordered_map<uint64_t, std::vector<double>> hashed;
  for (int j = 0; j < 300; ++j) {
    const uint64_t key = StreamSeed(salt, j);
    ordered.emplace(key, std::to_string(key));
    hashed[key % 97].push_back(static_cast<double>(j));
  }
  uint64_t sum = 0;
  for (const auto& [key, text] : ordered) {
    sum += text.size() + hashed.count(key % 97);
  }
  static std::vector<uint64_t> table(1 << 18, 1);
  uint64_t at = salt;
  for (int j = 0; j < 2000; ++j) {
    at = StreamSeed(at, j);
    sum += table[at & (table.size() - 1)]++;
  }
  return sum;
}

// End-to-end times are reported as they would read on a machine on which
// one reference op takes kNominalOpUs: each measured time is scaled by
// kNominalOpUs / (reference-op time measured alongside it). On a shared
// machine other tenants change its speed by 20-40% for seconds to minutes
// at a time: on the 4-core VM this was tuned on, the same work ran at 540
// to 1000 queries/s from run to run, while its time in reference ops
// moved by a few percent. The unscaled figures go to stderr.
constexpr double kNominalOpUs = 100.0;

// Wall-clock times of one replay of a stream, with the time of the
// reference ops interleaved with its queries.
struct QueryTimes {
  std::vector<double> latency_us;  // submission: parse to session start
  std::vector<double> step_us;     // clock advance plus submission
  double reference_s = 0.0;
  uint64_t reference_ops = 0;
  uint64_t reference_sum = 0;

  // Multiplier from this replay's wall-clock times to nominal ones.
  double Scale() const {
    return kNominalOpUs * static_cast<double>(reference_ops) /
           (1e6 * reference_s);
  }
};

// One Chrome trace "complete" event, microseconds from run start.
struct Span {
  const char* name;
  double start_us;
  double dur_us;
  int query;
};

struct PassResult {
  double setup_s = 0.0;
  uint64_t digest = 0xcbf29ce484222325ULL;
  uint64_t failed = 0;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  double utility_sum = 0.0;
  core::MediaDbSystem::Stats system;
  core::QualityManager::Stats planner;
  cache::SegmentCache::Counters cache;
};

class Runner {
 public:
  explicit Runner(const Workload& w) : workload_(w), epoch_(Clock::now()) {}

  // Runs one pass over `queries`. `timing` (may be null) receives each
  // query's times; `layers` (may be null) turns on the layer probes;
  // `spans` (may be null) records the first queries' spans.
  PassResult Pass(const std::vector<Query>& queries,
                  QueryTimes* timing, LayerTimes* layers,
                  std::vector<Span>* spans) {
    PassResult out;
    const Clock::time_point setup_start = Clock::now();
    sim::Simulator simulator;
    core::MediaDbSystem system(&simulator, workload_.system);
    out.setup_s = Seconds(setup_start, Clock::now());

    for (size_t i = 0; i < queries.size(); ++i) {
      if (timing != nullptr && i % kReferenceEvery == 0) {
        const Clock::time_point r0 = Clock::now();
        for (int op = 0; op < kReferenceOps; ++op) {
          timing->reference_sum += ReferenceOp(timing->reference_ops++);
        }
        timing->reference_s += Seconds(r0, Clock::now());
      }
      const Query& q = queries[i];
      const bool record = spans != nullptr && i < kTracedQueries;
      const Clock::time_point t0 = Clock::now();
      simulator.RunUntil(q.arrival);
      const Clock::time_point t1 = Clock::now();
      if (layers != nullptr) layers->advance_s += Seconds(t0, t1);
      if (record) Record(spans, "advance", t0, t1, i);

      core::MediaDbSystem::DeliveryOutcome delivery;
      if (layers == nullptr) {
        Result<core::MediaDbSystem::TextQueryOutcome> outcome =
            system.SubmitTextQuery(q.site, q.text, &profile_);
        const Clock::time_point t2 = Clock::now();
        if (timing != nullptr) {
          timing->latency_us.push_back(Micros(t1, t2));
          timing->step_us.push_back(Micros(t0, t2));
        }
        if (!outcome.ok() || outcome->content != q.content) {
          ++out.failed;
          continue;
        }
        delivery = outcome->delivery;
      } else if (!Traced(system, q, *layers, spans, record, i, &delivery)) {
        ++out.failed;
        continue;
      }
      Account(q, delivery, out);
    }

    if (layers != nullptr) {
      const Clock::time_point s0 = Clock::now();
      core::MediaDbSystem::ObservabilitySnapshot snapshot =
          system.TakeObservabilitySnapshot();
      layers->snapshot_ms.push_back(Micros(s0, Clock::now()) / 1000.0);
      if (snapshot.metrics_json.empty()) ++out.failed;
    }

    // Drain: every session completes and every reservation is released
    // exactly once, so the pool must return to empty.
    simulator.RunAll();
    out.system = system.stats();
    out.planner = system.quality_manager()->stats();
    if (system.cache_manager() != nullptr) {
      out.cache = system.cache_manager()->TotalCounters();
    }
    bool ok = system.outstanding_sessions() == 0 &&
              system.qos_api().active_reservations() == 0 &&
              out.system.submitted == out.submitted &&
              out.system.admitted == out.admitted &&
              out.system.admitted + out.system.rejected == out.submitted &&
              out.system.completed == out.admitted &&
              out.planner.queries == out.submitted &&
              out.planner.admitted == out.admitted;
    res::ResourcePool& pool = system.pool();
    for (const BucketId& bucket : pool.Buckets()) {
      if (std::fabs(pool.Used(bucket)) >
          1e-6 * std::max(1.0, pool.Capacity(bucket))) {
        ok = false;
      }
    }
    if (!ok) ++out.failed;
    return out;
  }

 private:
  static constexpr size_t kTracedQueries = 200;
  // kReferenceOps reference ops (about 4 ms) before every kReferenceEvery
  // queries (about 100 ms), so they track the machine's speed through the
  // pass at a cost of a few percent of the run.
  static constexpr size_t kReferenceEvery = 100;
  static constexpr int kReferenceOps = 40;

  void Record(std::vector<Span>* spans, const char* name,
              Clock::time_point from, Clock::time_point to, size_t query) {
    spans->push_back(Span{name, Micros(epoch_, from), Micros(from, to),
                          static_cast<int>(query)});
  }

  // The text path split at its layer boundaries, with read-only planner
  // probes after the delivery, so they do not warm the delivery's
  // caches. Returns false on an unexpected error.
  bool Traced(core::MediaDbSystem& system, const Query& q, LayerTimes& layers,
              std::vector<Span>* spans, bool record, size_t i,
              core::MediaDbSystem::DeliveryOutcome* delivery) {
    ++layers.queries;
    const Clock::time_point t0 = Clock::now();
    Result<query::ParsedQuery> parsed = query::ParseQuery(q.text);
    const Clock::time_point t1 = Clock::now();
    if (!parsed.ok()) return false;
    std::vector<LogicalOid> matches = system.ResolveContent(*parsed);
    const Clock::time_point t2 = Clock::now();
    if (matches.empty() || matches.front() != q.content) return false;
    *delivery = system.SubmitDelivery(q.site, q.content, parsed->qos,
                                      &profile_);
    const Clock::time_point t3 = Clock::now();

    core::PlanGenerator& generator = system.quality_manager()->generator();
    Result<std::vector<core::PlanGenerator::GroupSeed>> groups =
        generator.EnumerateGroups(q.site, q.content);
    const Clock::time_point t4 = Clock::now();
    if (!groups.ok()) return false;
    std::vector<core::Plan> plans;
    for (const core::PlanGenerator::GroupSeed& group : *groups) {
      generator.ExpandGroup(group, parsed->qos, plans);
    }
    const Clock::time_point t5 = Clock::now();
    double cost_sum = 0.0;
    for (const core::Plan& plan : plans) {
      cost_sum += evaluator_.EfficiencyCost(plan, system.pool());
    }
    const Clock::time_point t6 = Clock::now();
    system.SampleResourceTelemetry();
    const Clock::time_point t7 = Clock::now();
    if (!std::isfinite(cost_sum)) return false;

    layers.parse_us.push_back(Micros(t0, t1));
    layers.resolve_us.push_back(Micros(t1, t2));
    layers.deliver_us.push_back(Micros(t2, t3));
    layers.seed_us.push_back(Micros(t3, t4));
    layers.expand_s += Seconds(t4, t5);
    layers.cost_s += Seconds(t5, t6);
    layers.telemetry_us.push_back(Micros(t6, t7));
    layers.groups += groups->size();
    layers.plans += plans.size();
    if (record) {
      Record(spans, "parse", t0, t1, i);
      Record(spans, "resolve", t1, t2, i);
      Record(spans, "deliver", t2, t3, i);
      Record(spans, "probe.seed", t3, t4, i);
      Record(spans, "probe.expand", t4, t5, i);
      Record(spans, "probe.cost", t5, t6, i);
      Record(spans, "probe.telemetry", t6, t7, i);
    }
    return true;
  }

  // Folds one delivery into the pass outcome and checks it: an admitted
  // delivery must meet the requested window (renegotiated ones meet a
  // relaxed one), a refusal must be a planned one.
  static void Account(const Query& q,
                      const core::MediaDbSystem::DeliveryOutcome& delivery,
                      PassResult& out) {
    ++out.submitted;
    const bool admitted = delivery.status.ok();
    Mix(out.digest, admitted ? 1 : 0);
    if (!admitted) {
      const StatusCode code = delivery.status.code();
      if (code != StatusCode::kResourceExhausted &&
          code != StatusCode::kNotFound) {
        ++out.failed;
      }
      Mix(out.digest, static_cast<uint64_t>(code));
      return;
    }
    ++out.admitted;
    Mix(out.digest, delivery.renegotiated ? 1 : 0);
    Mix(out.digest, Bits(delivery.wire_rate_kbps));
    Mix(out.digest, static_cast<uint64_t>(
                        delivery.delivered_qos.resolution.PixelCount()));
    Mix(out.digest, Bits(delivery.delivered_qos.frame_rate));
    if (delivery.wire_rate_kbps <= 0.0 ||
        (!delivery.renegotiated &&
         !q.qos.range.Contains(delivery.delivered_qos))) {
      ++out.failed;
    }
    out.utility_sum +=
        core::PresentationUtility(delivery.delivered_qos, q.qos.range);
  }

  const Workload& workload_;
  const Clock::time_point epoch_;
  // The renegotiation profile: the same default profile the traffic
  // generator translates QoP levels with.
  const core::UserProfile profile_{UserId(0), "traffic-default"};
  core::LrbCostModel lrb_;
  core::RuntimeCostEvaluator evaluator_{&lrb_};
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += std::string("\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"query\": %d}}",
                 i > 0 ? "," : "", spans[i].name, spans[i].start_us,
                 spans[i].dur_us, spans[i].query);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload paper|wide "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_file;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  if (argc % 2 != 1) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return Usage();
    }
  }
  std::optional<Workload> workload = MakeWorkload(workload_name);
  if (!workload.has_value() || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  uint64_t failed = 0;
  const media::VideoLibrary library = media::BuildExperimentLibrary(
      workload->system.library, workload->system.topology.SiteIds());
  std::vector<std::vector<Query>> streams;
  for (int k = 1; k <= kStreams; ++k) {
    streams.push_back(MakeQueries(*workload, library, seed, k, &failed));
  }
  Runner runner(*workload);

  // Warm-up: one untraced, unmeasured replay of every stream. Its digests
  // are what every measured replay must reproduce, and its outcomes are
  // the QoS outcome metrics.
  uint64_t attempted = 0;
  std::vector<uint64_t> digests;
  PassResult outcome;  // summed over the warm-up replays
  for (const std::vector<Query>& stream : streams) {
    const PassResult result = runner.Pass(stream, nullptr, nullptr, nullptr);
    attempted += stream.size();
    failed += result.failed;
    digests.push_back(result.digest);
    outcome.submitted += result.submitted;
    outcome.admitted += result.admitted;
    outcome.utility_sum += result.utility_sum;
    outcome.system.rejected += result.system.rejected;
    outcome.planner.plans_generated += result.planner.plans_generated;
    outcome.planner.groups_pruned += result.planner.groups_pruned;
    outcome.planner.renegotiated += result.planner.renegotiated;
    outcome.cache.hits += result.cache.hits;
    outcome.cache.misses += result.cache.misses;
  }

  // End-to-end times of the measured passes, scaled to nominal speed
  // (kNominalOpUs), and unscaled sums for stderr.
  std::vector<double> latency_us;
  std::vector<double> setup_s;
  double step_us = 0.0;
  double raw_step_us = 0.0;
  std::vector<double> raw_setup_s;
  uint64_t reference_sum = 0;
  int passes = 0;
  LayerTimes layers;
  std::vector<Span> spans;
  const Clock::time_point start = Clock::now();
  for (int pass = 0;
       pass < kStreams || Seconds(start, Clock::now()) < seconds; ++pass) {
    const size_t k = static_cast<size_t>(pass % kStreams);
    QueryTimes timing;
    const PassResult result =
        runner.Pass(streams[k], trace == 0 ? &timing : nullptr,
                    trace == 1 ? &layers : nullptr,
                    trace == 1 && pass == 0 ? &spans : nullptr);
    ++passes;
    if (trace == 0) {
      const double scale = timing.Scale();
      for (size_t i = 0; i < timing.step_us.size(); ++i) {
        latency_us.push_back(timing.latency_us[i] * scale);
        step_us += timing.step_us[i] * scale;
        raw_step_us += timing.step_us[i];
      }
      setup_s.push_back(result.setup_s * scale);
      raw_setup_s.push_back(result.setup_s);
      reference_sum += timing.reference_sum;
    }
    attempted += streams[k].size();
    failed += result.failed;
    if (result.digest != digests[k]) {
      std::fprintf(stderr, "pass %d diverged from stream %zu's warm-up\n",
                   pass, k + 1);
      ++failed;
    }
  }

  const double n = static_cast<double>(std::max<uint64_t>(outcome.submitted, 1));
  std::vector<Metric> metrics;
  if (trace == 0) {
    const double queries = static_cast<double>(latency_us.size());
    if (reference_sum == 0) ++failed;
    std::fprintf(stderr,
                 "unscaled: %.1f queries/s, set-up %.6f s; "
                 "scaled by %.4f on average\n",
                 1e6 * queries / raw_step_us, Quantile(raw_setup_s, 0.50),
                 step_us / raw_step_us);
    // Only the tail of the latency is reported: the mix is bimodal
    // (admission on an early plan versus a walk over the whole plan
    // space), so its median jumps between the modes from seed to seed.
    metrics = {
        {"latency_p99_us", Quantile(latency_us, 0.99), "us"},
        {"throughput_qps", 1e6 * queries / step_us, "1/s"},
        {"admitted_pct", 100.0 * static_cast<double>(outcome.admitted) / n,
         "%"},
        {"mean_utility",
         outcome.utility_sum /
             static_cast<double>(std::max<uint64_t>(outcome.admitted, 1)),
         "score"},
        {"setup_s", Quantile(setup_s, 0.50), "s"},
    };
  } else {
    const double traced =
        static_cast<double>(std::max<uint64_t>(layers.queries, 1));
    const double plans =
        static_cast<double>(std::max<uint64_t>(layers.plans, 1));
    metrics = {
        {"parse_us", Quantile(layers.parse_us, 0.50), "us"},
        {"resolve_us", Quantile(layers.resolve_us, 0.50), "us"},
        {"deliver_us", Quantile(layers.deliver_us, 0.50), "us"},
        {"advance_us_per_query", 1e6 * layers.advance_s / traced, "us"},
        {"probe_seed_us", Quantile(layers.seed_us, 0.50), "us"},
        {"probe_expand_ns_per_plan", 1e9 * layers.expand_s / plans, "ns"},
        {"probe_cost_ns_per_plan", 1e9 * layers.cost_s / plans, "ns"},
        {"telemetry_us", Quantile(layers.telemetry_us, 0.50), "us"},
        {"snapshot_ms", Quantile(layers.snapshot_ms, 0.50), "ms"},
        {"probe_groups_per_query",
         static_cast<double>(layers.groups) / traced, "count"},
        {"probe_plans_per_query", static_cast<double>(layers.plans) / traced,
         "count"},
        {"plans_costed_per_query",
         static_cast<double>(outcome.planner.plans_generated) / n, "count"},
        {"groups_pruned_per_query",
         static_cast<double>(outcome.planner.groups_pruned) / n, "count"},
        {"renegotiated_pct",
         100.0 * static_cast<double>(outcome.planner.renegotiated) / n, "%"},
        {"rejected_pct",
         100.0 * static_cast<double>(outcome.system.rejected) / n, "%"},
        {"cache_hit_pct", 100.0 * outcome.cache.HitRatio(), "%"},
    };
    if (!trace_file.empty() && !WriteTrace(trace_file, spans)) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      ++failed;
    }
  }
  std::fprintf(stderr,
               "workload=%s seed=%llu passes=%zu queries/pass=%zu "
               "measured=%.2fs\n",
               workload_name.c_str(), static_cast<unsigned long long>(seed),
               static_cast<size_t>(kStreams + passes), streams[0].size(),
               Seconds(start, Clock::now()));
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}
