// Ablation: the renegotiation "second chance" (paper §3.2). Under the
// single-attempt admission semantics, compare QuaSAQ with renegotiation
// off vs on (2 relaxation rounds along the user's least-valued axis).
// Renegotiation converts admission-control rejects into degraded-but-
// admitted sessions.

#include <cstdio>

#include "bench/bench_util.h"
#include "workload/throughput.h"

namespace {

using namespace quasaq;  // NOLINT: experiment harness

constexpr SimTime kHorizon = 2000 * kSecond;

void RunOne(const char* label, bool renegotiate) {
  workload::ThroughputOptions options;
  options.system.kind = core::SystemKind::kVdbmsQuasaq;
  options.system.seed = 7;
  options.system.library.max_duration_seconds = 120.0;
  options.system.quality.max_admission_attempts = 1;
  options.enable_renegotiation_profile = renegotiate;
  options.traffic.seed = 42;
  options.horizon = kHorizon;
  options.sample_period = 10 * kSecond;
  workload::ThroughputResult result =
      workload::RunThroughputExperiment(options);
  std::printf("%-22s %10llu %10llu %14llu %16.1f\n", label,
              static_cast<unsigned long long>(result.system_stats.admitted),
              static_cast<unsigned long long>(result.system_stats.rejected),
              static_cast<unsigned long long>(
                  result.quality_stats.renegotiated),
              result.outstanding.MeanOver(kHorizon / 2, kHorizon));
}

}  // namespace

int main() {
  bench::PrintHeader("Ablation — renegotiation second chance");
  std::printf("%-22s %10s %10s %14s %16s\n", "configuration", "admitted",
              "rejected", "renegotiated", "stable sessions");
  RunOne("no renegotiation", false);
  RunOne("renegotiation (2 rd)", true);
  return 0;
}
