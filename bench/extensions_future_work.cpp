// §8 future-work reproductions, beyond the paper's own evaluation:
//  * Sliding-Window CPA [8] against RFTC — the attack the authors propose
//    to test next.  Windowed integration absorbs small clock jitter, so it
//    should sit between plain CPA and DTW-CPA in strength.
//  * Altera/Intel IOPLL portability — §8 argues RFTC "can be implemented on
//    Altera FPGAs as well"; here the whole pipeline (planner -> ping-pong
//    controller -> attack campaign) runs under IOPLL electrical limits
//    (wider VCO band, integer-only output counters).
#include <cstdio>

#include "analysis/tvla.hpp"
#include "common.hpp"
#include "rftc/device.hpp"

namespace {

using namespace rftc;

/// Returns the first checkpoint where SW-CPA recovered the key (0 = never).
std::size_t sw_cpa_suite(const std::string& label,
                         const analysis::CampaignFactory& factory,
                         const bench::ScaleProfile& profile) {
  const aes::Block rk10 = bench::evaluation_round10_key();
  std::printf("%-18s", label.c_str());
  const trace::TraceSet set = factory(0, profile.sr_max_traces);
  analysis::AttackParams attack;
  attack.kind = analysis::AttackKind::kSwCpa;
  attack.byte_positions = profile.attack_bytes;
  attack.checkpoints = profile.sr_checkpoints;
  const analysis::AttackOutcome out = analysis::run_attack(set, rk10, attack);
  for (std::size_t i = 0; i < out.checkpoints.size(); ++i)
    std::printf(" %6zu:%d", out.checkpoints[i], out.success[i] ? 1 : 0);
  if (out.first_success() != 0) {
    std::printf("   BROKEN @ %zu\n", out.first_success());
  } else {
    std::printf("   not broken (mean rank %.1f)\n", out.mean_rank.back());
  }
  std::fflush(stdout);
  return out.first_success();
}

}  // namespace

int main() {
  obs::RunManifest report("extensions_future_work");
  const bench::ScaleProfile profile = bench::scale_profile();
  report.note("profile", profile.name);
  report.seed(77);  // planner seed; captures derive from 405
  bench::print_header("Extensions — §8 future work, profile " + profile.name);

  std::printf("\n[1] Sliding-Window CPA [8] (checkpoint:success)\n");
  report.metric(
      "swcpa.unprotected_break",
      static_cast<double>(
          sw_cpa_suite("Unprotected", bench::unprotected_factory(), profile)),
      "traces");
  report.metric(
      "swcpa.rftc_1_4_break",
      static_cast<double>(
          sw_cpa_suite("RFTC(1, 4)", bench::rftc_factory(1, 4), profile)),
      "traces");
  report.metric("swcpa.rftc_1_1024_break",
                static_cast<double>(sw_cpa_suite(
                    "RFTC(1, 1024)", bench::rftc_factory(1, 1024), profile)),
                "traces");
  report.metric("swcpa.rftc_3_1024_break",
                static_cast<double>(sw_cpa_suite(
                    "RFTC(3, 1024)", bench::rftc_factory(3, 1024), profile)),
                "traces");

  std::printf("\n[2] RFTC on an Altera/Intel IOPLL (§8 portability)\n");
  core::PlannerParams pp;
  pp.m_outputs = 3;
  pp.p_configs = 64;
  pp.limits = clk::altera_iopll_limits();
  pp.seed = 77;
  const core::FrequencyPlan plan = core::plan_frequencies(pp);
  std::printf("    planned %zu overlap-free sets, %zu distinct frequencies, "
              "%llu rejected candidates\n",
              plan.p(), plan.distinct_frequencies(),
              static_cast<unsigned long long>(plan.rejected_sets));
  core::RftcDevice dev(bench::evaluation_key(), plan, {});
  trace::PowerModelParams pm;
  trace::TraceSimulator sim(pm, 404);
  Xoshiro256StarStar rng(405);
  aes::Block fixed{};
  fixed[0] = 0x3C;
  const trace::TvlaCapture cap = trace::acquire_tvla(
      [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim,
      profile.tvla_traces / 2, fixed, rng);
  const analysis::TvlaResult tv = analysis::run_tvla(cap);
  std::printf("    IOPLL RFTC(3, 64) TVLA max|t| = %.2f (%s), ciphertexts "
              "verified: %s\n",
              tv.max_abs_t, tv.max_abs_t < 10 ? "low leakage" : "leaking",
              aes::encrypt(cap.fixed.plaintext(0), bench::evaluation_key()) ==
                      cap.fixed.ciphertext(0)
                  ? "yes"
                  : "NO");
  report.metric("iopll.tvla_max_abs_t", tv.max_abs_t, "|t|");
  report.metric("iopll.distinct_frequencies",
                static_cast<double>(plan.distinct_frequencies()));
  bench::finish_capture_bench(report);
  return 0;
}
