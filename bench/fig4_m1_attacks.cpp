// Fig. 4 reproduction: success rates of CPA, PCA-CPA, DTW-CPA and FFT-CPA
// against RFTC(1, P) for P in {4, 16, 64, 256, 1024}.
//
// Paper shape to reproduce (trace axis scaled, see EXPERIMENTS.md):
//  * CPA / PCA-CPA break RFTC(1, 4) but fail for P >= 16;
//  * DTW-CPA breaks P in {4, 16, 64} quickly, P = 256 late, P = 1024 never;
//  * FFT-CPA breaks P in {4, 16} and fails beyond.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace rftc;
  obs::RunManifest report("fig4_m1_attacks");
  const bench::ScaleProfile profile = bench::scale_profile();
  report.note("profile", profile.name);
  report.seed(0x5EED0000);  // rftc_factory campaign seed base
  bench::print_header("Fig. 4 — attacks on RFTC(1, P), profile " +
                      profile.name);
  for (const int p : {4, 16, 64, 256, 1024}) {
    const bench::AttackSuiteResult r =
        bench::run_attack_suite("RFTC(1, " + std::to_string(p) + ")",
                                bench::rftc_factory(1, p), profile);
    bench::record_suite(report, "rftc_1_" + std::to_string(p), r);
  }
  std::printf(
      "\nExpected ordering (paper): security increases with P; DTW-CPA is "
      "the strongest preprocessing, breaking up to P=256; P=1024 resists "
      "all four attacks.\n");
  bench::finish_capture_bench(report);
  return 0;
}
