// Section 5.2 "Overhead of QuaSAQ": the paper reports that the CPU used
// to process each query (plan generation + cost evaluation + admission)
// is a few milliseconds, and that the reservation scheduler adds ~1.6%
// dispatch overhead. This google-benchmark binary measures our
// per-query planning pipeline and its pieces.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <vector>

#include "core/system.h"
#include "query/parser.h"
#include "workload/traffic.h"

namespace {

using namespace quasaq;  // NOLINT: benchmark harness

struct PlanningFixture {
  PlanningFixture() {
    core::MediaDbSystem::Options options;
    options.kind = core::SystemKind::kVdbmsQuasaq;
    system = std::make_unique<core::MediaDbSystem>(&simulator, options);
    workload::TrafficOptions traffic_options;
    traffic = std::make_unique<workload::TrafficGenerator>(
        traffic_options, options.library.num_videos,
        options.topology.SiteIds());
  }

  sim::Simulator simulator;
  std::unique_ptr<core::MediaDbSystem> system;
  std::unique_ptr<workload::TrafficGenerator> traffic;
};

PlanningFixture& Fixture() {
  static PlanningFixture* fixture = new PlanningFixture();
  return *fixture;
}

// Full per-query cost: plan generation + LRB ranking + admission +
// release (§5.2: "CPU use for processing each query (a few ms)").
void BM_QuasaqPerQueryOverhead(benchmark::State& state) {
  PlanningFixture& f = Fixture();
  for (auto _ : state) {
    workload::QuerySpec spec = f.traffic->Next();
    Result<core::QualityManager::Admitted> admitted =
        f.system->quality_manager()->AdmitQuery(
            spec.client_site, spec.content, spec.qos, &f.traffic->profile());
    if (admitted.ok()) {
      Status status =
          f.system->quality_manager()->CompleteDelivery(*admitted);
      benchmark::DoNotOptimize(status);
    }
  }
}
BENCHMARK(BM_QuasaqPerQueryOverhead);

void BM_PlanGenerationOnly(benchmark::State& state) {
  PlanningFixture& f = Fixture();
  workload::QuerySpec spec = f.traffic->Next();
  core::PlanGenerator& generator =
      f.system->quality_manager()->generator();
  for (auto _ : state) {
    Result<std::vector<core::Plan>> plans =
        generator.Generate(spec.client_site, spec.content, spec.qos);
    benchmark::DoNotOptimize(plans);
  }
}
BENCHMARK(BM_PlanGenerationOnly);

void BM_LrbRankingOnly(benchmark::State& state) {
  PlanningFixture& f = Fixture();
  workload::QuerySpec spec = f.traffic->Next();
  core::PlanGenerator& generator =
      f.system->quality_manager()->generator();
  Result<std::vector<core::Plan>> plans =
      generator.Generate(spec.client_site, spec.content, spec.qos);
  core::LrbCostModel lrb;
  core::RuntimeCostEvaluator evaluator(&lrb);
  for (auto _ : state) {
    std::vector<core::Plan> copy = *plans;
    evaluator.Rank(copy, f.system->pool());
    benchmark::DoNotOptimize(copy);
  }
  state.SetLabel(std::to_string(plans->size()) + " plans");
}
BENCHMARK(BM_LrbRankingOnly);

void BM_AdmissionOnly(benchmark::State& state) {
  PlanningFixture& f = Fixture();
  workload::QuerySpec spec = f.traffic->Next();
  core::PlanGenerator& generator =
      f.system->quality_manager()->generator();
  Result<std::vector<core::Plan>> plans =
      generator.Generate(spec.client_site, spec.content, spec.qos);
  res::CompositeQosApi& api = f.system->quality_manager()->qos_api();
  for (auto _ : state) {
    Result<res::ReservationId> reservation =
        api.Reserve(plans->front().resources);
    if (reservation.ok()) {
      Status status = api.Release(*reservation);
      benchmark::DoNotOptimize(status);
    }
  }
}
BENCHMARK(BM_AdmissionOnly);

// Search-space scaling (paper §3.4: fixing the activity order reduces
// the space to O(d^n)): plan-generation cost as the deployment grows.
void BM_PlanGenerationScaling(benchmark::State& state) {
  int sites = static_cast<int>(state.range(0));
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(sites);
  core::MediaDbSystem system(&simulator, options);
  workload::TrafficGenerator traffic(workload::TrafficOptions(),
                                     options.library.num_videos,
                                     options.topology.SiteIds());
  workload::QuerySpec spec = traffic.Next();
  core::PlanGenerator& generator =
      system.quality_manager()->generator();
  size_t plans_seen = 0;
  for (auto _ : state) {
    Result<std::vector<core::Plan>> plans =
        generator.Generate(spec.client_site, spec.content, spec.qos);
    plans_seen = plans.ok() ? plans->size() : 0;
    benchmark::DoNotOptimize(plans);
  }
  state.SetLabel(std::to_string(plans_seen) + " plans/" +
                 std::to_string(sites) + " sites");
}
BENCHMARK(BM_PlanGenerationScaling)
    ->Arg(1)
    ->Arg(3)
    ->Arg(6)
    ->Arg(9)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

// The admission path as it actually runs, per query:
// QualityManager::AdmitQuery's streamed walk (no relaxation profile).
// Admitted deliveries stay reserved (up to four per site, oldest
// completed first) so the pool is loaded, as in steady-state operation.
// Reports the median and p99 wall-clock time per query next to the
// mean, and the plans each query costed, read from the manager's stats.
// Arguments: site count, relay on (1) or off (0). Every site stores
// every title, so with relay on the space grows with sites squared.
// Each configuration runs a fixed number of admissions rather than a
// time budget, so every build times the same prefix of the seeded query
// stream against the same pool states, and admitted_pct and
// plans_costed repeat exactly from build to build.
void BM_StreamedAdmissionScaling(benchmark::State& state) {
  int sites = static_cast<int>(state.range(0));
  sim::Simulator simulator;
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(sites);
  options.quality.generator.enable_relay = state.range(1) != 0;
  core::MediaDbSystem system(&simulator, options);
  workload::TrafficGenerator traffic(workload::TrafficOptions(),
                                     options.library.num_videos,
                                     options.topology.SiteIds());
  core::QualityManager& manager = *system.quality_manager();
  std::deque<core::QualityManager::Admitted> held;
  const size_t max_held = static_cast<size_t>(sites) * 4;
  std::vector<double> query_us;
  size_t admitted = 0;
  const uint64_t plans_before = manager.stats().plans_generated;
  for (auto _ : state) {
    workload::QuerySpec spec = traffic.Next();
    auto start = std::chrono::steady_clock::now();
    Result<core::QualityManager::Admitted> result =
        manager.AdmitQuery(spec.client_site, spec.content, spec.qos);
    if (result.ok()) {
      held.push_back(std::move(*result));
      ++admitted;
    }
    if (held.size() > max_held) {
      Status status = manager.CompleteDelivery(held.front());
      benchmark::DoNotOptimize(status);
      held.pop_front();
    }
    query_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  for (const core::QualityManager::Admitted& delivery : held) {
    Status status = manager.CompleteDelivery(delivery);
    benchmark::DoNotOptimize(status);
  }
  std::sort(query_us.begin(), query_us.end());
  if (!query_us.empty()) {
    state.counters["median_us"] = query_us[query_us.size() / 2];
    state.counters["p99_us"] = query_us[query_us.size() * 99 / 100];
    state.counters["plans_costed"] =
        static_cast<double>(manager.stats().plans_generated - plans_before) /
        query_us.size();
    state.counters["admitted_pct"] =
        100.0 * static_cast<double>(admitted) / query_us.size();
  }
  state.SetLabel(std::to_string(sites) + " sites, relay " +
                 (options.quality.generator.enable_relay ? "on" : "off"));
}
BENCHMARK(BM_StreamedAdmissionScaling)
    ->ArgNames({"sites", "relay"})->Args({16, 0})->Iterations(2000);
BENCHMARK(BM_StreamedAdmissionScaling)
    ->ArgNames({"sites", "relay"})->Args({64, 0})->Iterations(1000);
BENCHMARK(BM_StreamedAdmissionScaling)
    ->ArgNames({"sites", "relay"})->Args({256, 0})->Iterations(300);
BENCHMARK(BM_StreamedAdmissionScaling)
    ->ArgNames({"sites", "relay"})->Args({16, 1})->Iterations(2000);
BENCHMARK(BM_StreamedAdmissionScaling)
    ->ArgNames({"sites", "relay"})->Args({64, 1})->Iterations(300);
BENCHMARK(BM_StreamedAdmissionScaling)
    ->ArgNames({"sites", "relay"})->Args({256, 1})->Iterations(40);

// Text-path costs (parse + content search).
void BM_ParseQosQuery(benchmark::State& state) {
  const char* text =
      "SELECT video FROM videos WHERE CONTAINS('sunset') AND "
      "SIMILAR(0.2, 0.4, 0.6, 0.8) TOP 3 WITH QOS (resolution >= 320x240, "
      "resolution <= 720x480, framerate >= 15, color >= 12, "
      "format IN (MPEG1, MPEG2), security >= standard)";
  for (auto _ : state) {
    Result<query::ParsedQuery> parsed = query::ParseQuery(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseQosQuery);

}  // namespace

BENCHMARK_MAIN();
