// Fig. 5 reproduction: the four attacks against RFTC(2, P).
//
// Paper shape: with two clock outputs randomized per round, CPA, PCA-CPA
// and FFT-CPA fail for every P; DTW-CPA still breaks the small sets
// (P = 4, P = 16) and fails beyond.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace rftc;
  obs::RunManifest report("fig5_m2_attacks");
  const bench::ScaleProfile profile = bench::scale_profile();
  report.note("profile", profile.name);
  report.seed(0x5EED0000);  // rftc_factory campaign seed base
  bench::print_header("Fig. 5 — attacks on RFTC(2, P), profile " +
                      profile.name);
  for (const int p : {4, 16, 64, 256, 1024}) {
    const bench::AttackSuiteResult r =
        bench::run_attack_suite("RFTC(2, " + std::to_string(p) + ")",
                                bench::rftc_factory(2, p), profile);
    bench::record_suite(report, "rftc_2_" + std::to_string(p), r);
  }
  std::printf(
      "\nExpected ordering (paper): only DTW-CPA succeeds, and only for "
      "small P (4, 16).\n");
  bench::finish_capture_bench(report);
  return 0;
}
