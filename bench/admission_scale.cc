// Admission-pipeline scaling: wall-clock throughput of the delivery hot
// path (admit -> session-table probes -> cancel) under real submitter
// threads, swept over thread count. Every facade call serializes on the
// MediaDbSystem's one lock, so this harness shows what concurrency buys
// (and costs) end to end (the CI smoke leg runs
// `bench_admission_scale --smoke`).
//
// Unlike the simulation harnesses this one measures *wall-clock* time:
// the simulator clock never advances, sessions are admitted and
// cancelled in place, and the numbers are ops on the real machine.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/system.h"
#include "simcore/simulator.h"

namespace {

using namespace quasaq;  // NOLINT: experiment harness

constexpr int kSites = 4;

core::MediaDbSystem::Options BaseOptions() {
  core::MediaDbSystem::Options options;
  options.kind = core::SystemKind::kVdbmsQuasaq;
  options.topology = net::Topology::Uniform(kSites);
  options.seed = 11;
  // Tiny plan space: the harness measures the admission pipeline, not
  // plan enumeration, so each admit should be dominated by the lock
  // and table work.
  options.quality.generator.enable_transcoding = false;
  options.quality.generator.enable_frame_dropping = false;
  options.quality.generator.enable_relay = false;
  return options;
}

struct SweepResult {
  double admitted_per_sec = 0.0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
};

// `threads` submitters, each pinned to one site (threads round-robin
// over the 4 sites, so with 8 threads two share a site).
// Each cycle admits a delivery, looks the session up a few times
// (FindSession, as concurrent observers do), and cancels.
SweepResult RunSweep(int threads, int ops_per_thread,
                     core::MediaDbSystem::ObservabilitySnapshot* obs) {
  sim::Simulator simulator;
  core::MediaDbSystem system(&simulator, BaseOptions());
  const std::vector<SiteId> sites = system.topology().SiteIds();
  query::QosRequirement qos;  // permissive: every stored replica serves

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const SiteId site = sites[static_cast<size_t>(t) % sites.size()];
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t ok = 0, fail = 0;
      for (int op = 0; op < ops_per_thread; ++op) {
        LogicalOid content(static_cast<int64_t>((op + t) % 15));
        core::MediaDbSystem::DeliveryOutcome outcome =
            system.SubmitDelivery(site, content, qos);
        if (!outcome.status.ok()) {
          ++fail;
          continue;
        }
        ++ok;
        // Session-table probes: what concurrent observers (renegotiation,
        // dashboards) do between admit and teardown.
        for (int probe = 0; probe < 4; ++probe) {
          if (!system.FindSession(outcome.session).has_value()) ++fail;
        }
        Status cancelled = system.CancelSession(outcome.session);
        if (!cancelled.ok()) ++fail;
      }
      admitted.fetch_add(ok, std::memory_order_relaxed);
      rejected.fetch_add(fail, std::memory_order_relaxed);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(end - start).count();

  SweepResult result;
  result.admitted = admitted.load();
  result.rejected = rejected.load();
  result.admitted_per_sec =
      seconds > 0.0 ? static_cast<double>(result.admitted) / seconds : 0.0;
  if (obs != nullptr) *obs = system.TakeObservabilitySnapshot();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  // 20,000 cycles per thread keep even the 1-thread point (the base of
  // the scaling ratio) well past a tenth of a second of wall clock.
  const int ops_per_thread = smoke ? 200 : 20000;
  const int max_threads = thread_counts.back();

  bench::PrintHeader("Admission pipeline scaling (threads, " +
                     std::to_string(kSites) + " sites)");
  const unsigned cores = std::thread::hardware_concurrency();
  bench::JsonWriter json("admission_scale");
  json.Add("sites", static_cast<double>(kSites));
  json.Add("ops_per_thread", static_cast<double>(ops_per_thread));
  json.Add("smoke", smoke ? 1.0 : 0.0);
  json.Add("hardware_concurrency", static_cast<double>(cores));
  if (cores < static_cast<unsigned>(max_threads)) {
    // Submitters time-slice the available cores, so wall-clock
    // admitted/sec cannot exceed the single-core rate regardless of
    // locking; the sweep still exercises every contention path,
    // but read the speedup accordingly.
    std::printf("note: %u hardware core(s) < %d threads — wall-clock "
                "scaling is core-bound on this machine\n",
                cores, max_threads);
  }

  std::printf("%8s %14s %10s %10s\n", "threads", "admitted/sec",
              "admitted", "rejected");
  std::vector<double> rates;
  core::MediaDbSystem::ObservabilitySnapshot peak_obs;
  for (int threads : thread_counts) {
    const bool capture = threads == max_threads;
    SweepResult result =
        RunSweep(threads, ops_per_thread, capture ? &peak_obs : nullptr);
    rates.push_back(result.admitted_per_sec);
    std::printf("%8d %14.0f %10llu %10llu\n", threads,
                result.admitted_per_sec,
                static_cast<unsigned long long>(result.admitted),
                static_cast<unsigned long long>(result.rejected));
    std::string prefix = "t";
    prefix += std::to_string(threads);
    json.Add(prefix + ".admitted_per_sec", result.admitted_per_sec);
    json.Add(prefix + ".admitted", static_cast<double>(result.admitted));
    json.Add(prefix + ".rejected", static_cast<double>(result.rejected));
  }
  const double scaling =
      rates.front() > 0.0 ? rates.back() / rates.front() : 0.0;
  std::printf("\n%d-thread scaling over 1 thread: %.2fx\n", max_threads,
              scaling);
  json.Add("thread_scaling", scaling);

  json.WriteFile();
  // Sidecars from the peak-thread run, so its session counters
  // reconcile with the admit totals above.
  bench::WriteObservabilitySidecars("admission_scale", peak_obs.prometheus,
                                    peak_obs.metrics_json);
  return 0;
}
