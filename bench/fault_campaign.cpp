// Fault campaign: sweeps DRP-family fault rates x timing margins over RFTC
// devices (docs/ROBUSTNESS.md) and reports faulty-ciphertext rate, recovery
// latency, and the schedule-entropy cost of the fallback policy.  Gated in
// CI against ci/baselines/fault_campaign.jsonl via `rftc-report diff` —
// every count column is a seeded deterministic tally (unit "count", exact
// match required).
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "common.hpp"
#include "fault/campaign.hpp"

using namespace rftc;

int main() {
  bench::print_header("Fault campaign: DRP fault rate x timing margin");

  obs::RunManifest report("fault_campaign");
  fault::CampaignParams params;
  params.seed = 20260806;
  params.encryptions_per_cell = 400;
  report.seed(params.seed);

  const fault::CampaignResult result =
      fault::run_fault_campaign(params, &report);

  std::printf(
      "  %8s %9s %7s %8s %8s %6s %5s %9s %8s %7s\n", "drp_rate", "margin_ps",
      "faulty", "injected", "lockfail", "retry", "fback", "recov_us",
      "entropy", "locked");
  bench::print_rule();
  bool invariant_violated = false;
  bool zero_cell_faulty = false;
  for (const fault::CellResult& c : result.cells) {
    std::printf("  %8.3f %9lld %7zu %8llu %8llu %6llu %5llu %9.2f %8.3f %7s\n",
                c.drp_rate, static_cast<long long>(c.margin_ps),
                c.faulty_ciphertexts,
                static_cast<unsigned long long>(c.injected_faults),
                static_cast<unsigned long long>(c.lock_failures),
                static_cast<unsigned long long>(c.recovery_retries),
                static_cast<unsigned long long>(c.fallbacks),
                c.mean_recovery_latency_us, c.completion_entropy_bits,
                c.clock_always_locked ? "yes" : "NO");
    if (!c.clock_always_locked) invariant_violated = true;
    // The zero-rate / max-margin corner must be fault-free: its spec arms
    // nothing beyond the timing model, which the largest margin disarms in
    // practice for this plan.
    if (c.drp_rate == 0.0 && c.injected_faults == 0 &&
        c.faulty_ciphertexts > 0)
      zero_cell_faulty = true;
  }
  bench::print_rule();
  std::printf("  baseline (fault-free): entropy %.3f bits, %zu classes\n",
              result.baseline_entropy_bits, result.baseline_classes);

  // Aggregates for the CI gate.  Event tallies are exact-match "count"
  // metrics; entropies are value-class.
  std::uint64_t faulty = 0, injected = 0, lock_failures = 0, retries = 0,
                fallbacks = 0, reconfigs = 0;
  double min_entropy = result.baseline_entropy_bits;
  for (const fault::CellResult& c : result.cells) {
    faulty += c.faulty_ciphertexts;
    injected += c.injected_faults;
    lock_failures += c.lock_failures;
    retries += c.recovery_retries;
    fallbacks += c.fallbacks;
    reconfigs += c.reconfigurations;
    if (c.completion_entropy_bits < min_entropy)
      min_entropy = c.completion_entropy_bits;
  }
  report.metric("cells", static_cast<double>(result.cells.size()), "count");
  report.metric("faulty_ciphertexts", static_cast<double>(faulty), "count");
  report.metric("injected_faults", static_cast<double>(injected), "count");
  report.metric("lock_failures", static_cast<double>(lock_failures), "count");
  report.metric("recovery_retries", static_cast<double>(retries), "count");
  report.metric("fallbacks", static_cast<double>(fallbacks), "count");
  report.metric("reconfigurations", static_cast<double>(reconfigs), "count");
  report.metric("baseline_entropy_bits", result.baseline_entropy_bits,
                "bits");
  report.metric("min_cell_entropy_bits", min_entropy, "bits");
  report.metric("clock_always_locked", invariant_violated ? 0.0 : 1.0,
                "count");
  const double total_enc = static_cast<double>(result.cells.size()) *
                           static_cast<double>(params.encryptions_per_cell);
  report.throughput(total_enc / std::max(report.elapsed_seconds(), 1e-9),
                    "encryptions/s");
  const std::string path = report.write();
  if (!path.empty()) std::printf("  report: %s\n", path.c_str());

  if (invariant_violated) {
    std::fprintf(stderr,
                 "FAIL: an encryption ran while the active MMCM was "
                 "unlocked\n");
    return 1;
  }
  if (zero_cell_faulty) {
    std::fprintf(stderr,
                 "FAIL: zero-rate cell produced faulty ciphertexts with no "
                 "injected faults\n");
    return 1;
  }
  return 0;
}
