// §7 baseline reproduction: the unprotected AES core [11] is broken by CPA,
// PCA-CPA and DTW-CPA in ~2,000 encryptions and by FFT-CPA in ~8,000
// (paper's absolute numbers; our trace axis is scaled by the factor
// recorded in EXPERIMENTS.md, so the shape to check is CPA/PCA/DTW breaking
// several times earlier than FFT).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace rftc;
  obs::RunManifest report("unprotected_baseline");
  bench::ScaleProfile profile = bench::scale_profile();
  // The unprotected core breaks quickly: finer checkpoints at the low end.
  profile.sr_checkpoints = {50, 100, 200, 400, 800, 1'600, 3'200};
  report.seed(0xC000);  // unprotected_factory campaign seed base
  report.note("profile", profile.name);
  bench::print_header("§7 — unprotected AES baseline, profile " +
                      profile.name);
  const bench::AttackSuiteResult r = bench::run_attack_suite(
      "Unprotected AES @ 48 MHz", bench::unprotected_factory(), profile);
  bench::record_suite(report, "unprotected", r);
  std::printf(
      "\nExpected (paper, unscaled): ~2,000 traces for CPA/PCA-CPA/DTW-CPA; "
      "~8,000 for FFT-CPA.\n");
  bench::finish_capture_bench(report);
  return 0;
}
