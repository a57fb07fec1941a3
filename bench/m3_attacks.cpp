// §7 text reproduction: RFTC(3, P) resists all four attacks.  The paper
// collected four million traces per configuration and none of CPA,
// PCA-CPA, DTW-CPA or FFT-CPA recovered the key; at our scaled trace axis
// the same "no success at max budget" outcome is expected for every P.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace rftc;
  obs::RunManifest report("m3_attacks");
  const bench::ScaleProfile profile = bench::scale_profile();
  report.note("profile", profile.name);
  report.seed(0x5EED0000);  // rftc_factory campaign seed base
  bench::print_header("§7 — attacks on RFTC(3, P) (paper: secure to 4M "
                      "traces), profile " + profile.name);
  for (const int p : {4, 16, 64, 256, 1024}) {
    const bench::AttackSuiteResult r =
        bench::run_attack_suite("RFTC(3, " + std::to_string(p) + ")",
                                bench::rftc_factory(3, p), profile);
    bench::record_suite(report, "rftc_3_" + std::to_string(p), r);
  }
  std::printf("\nExpected (paper): no attack succeeds for any P at M=3.\n");
  bench::finish_capture_bench(report);
  return 0;
}
