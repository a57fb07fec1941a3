// Table 1 reproduction: RFTC against the related-work countermeasures, all
// implemented in this repository and measured under the identical scope and
// attack pipeline.
//
// Columns: # distinct delays/completion times, security parameter
// (Eq. 1: traces survived / traces to break unprotected), CPA and DTW-CPA
// resistance, and time/power/area overheads from the FPGA model.
#include <cctype>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/clock_rand4.hpp"
#include "baselines/ippap.hpp"
#include "baselines/phase_shift.hpp"
#include "baselines/rcdd.hpp"
#include "baselines/rdi.hpp"
#include "clocking/block_ram.hpp"
#include "common.hpp"
#include "fpga/overhead.hpp"
#include "sched/fixed_clock.hpp"
#include "util/histogram.hpp"

namespace {

using namespace rftc;

struct Candidate {
  std::string name;
  std::function<std::unique_ptr<sched::Scheduler>(std::uint64_t seed)>
      make_scheduler;
  fpga::ResourceInventory resources;
  /// Paper Table 1 values for side-by-side printing ("-" = NA).
  std::string paper_delays, paper_secparam, paper_time, paper_power,
      paper_area;
};

std::size_t measure_distinct_delays(sched::Scheduler& s, std::size_t n) {
  // Quantize to 10 ps so picosecond rounding of rational periods does not
  // split completion times that coincide exactly in continuous time (e.g.
  // ClockRand's 2/24 MHz == 4/48 MHz sums).
  ExactHistogram h;
  for (std::size_t i = 0; i < n; ++i) h.add(s.next(10).completion_ps() / 10);
  return h.distinct();
}

analysis::CampaignFactory factory_for(const Candidate& c) {
  const aes::Key key = bench::evaluation_key();
  return [&c, key](std::uint64_t repeat, std::size_t n) {
    core::ScheduledAesDevice dev(key, c.make_scheduler(repeat));
    trace::PowerModelParams pm;
    trace::TraceSimulator sim(pm, 0xE000 + repeat);
    Xoshiro256StarStar rng(0xF000 + repeat);
    return trace::acquire_random(
        [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, n, rng);
  };
}

/// Smallest checkpoint at which the attack recovers the key; 0 = survived.
std::size_t break_point(const analysis::CampaignFactory& factory,
                        analysis::AttackKind kind,
                        const bench::ScaleProfile& profile) {
  analysis::AttackParams attack;
  attack.kind = kind;
  attack.byte_positions = profile.attack_bytes;
  attack.checkpoints = profile.sr_checkpoints;
  const trace::TraceSet set = factory(0, profile.sr_max_traces);
  const analysis::AttackOutcome out =
      analysis::run_attack(set, bench::evaluation_round10_key(), attack);
  return out.first_success();
}

}  // namespace

int main() {
  obs::RunManifest report("table1_comparison");
  const bench::ScaleProfile profile = bench::scale_profile();
  report.note("profile", profile.name);
  report.seed(99);  // planner seed; campaign seeds derive from 0xF000
  bench::print_header("Table 1 — RFTC vs related work, profile " +
                      profile.name);
  const std::size_t hist_n = profile.name == "full" ? 200'000 : 50'000;
  const int rftc_p = profile.name == "full" ? 1024 : 256;

  // Build the RFTC plan once (shared by scheduler factory and BRAM count).
  core::PlannerParams pp;
  pp.m_outputs = 3;
  pp.p_configs = rftc_p;
  pp.seed = 99;
  const core::FrequencyPlan plan = core::plan_frequencies(pp);
  const clk::ConfigStore store(plan.configs);

  std::vector<Candidate> candidates;
  candidates.push_back(
      {"Unprotected",
       [](std::uint64_t) {
         return std::make_unique<sched::FixedClockScheduler>(48.0);
       },
       fpga::unprotected_aes(), "1", "1", "1.00", "1.00", "1.00"});
  candidates.push_back(
      {"RDI [14]",
       [](std::uint64_t seed) {
         return std::make_unique<baselines::RdiScheduler>(48.0, 5, 800,
                                                          seed + 1);
       },
       fpga::unprotected_aes() + fpga::rdi_addition(5), "NA", ">=500", "1.64",
       "4.11", "1.81"});
  candidates.push_back(
      {"RCDD [3]",
       [](std::uint64_t seed) {
         return std::make_unique<baselines::RcddScheduler>(48.0, 2, seed + 2);
       },
       fpga::unprotected_aes() + fpga::rcdd_addition(), "NA", ">=226", "1.94",
       "NA", "1.70"});
  candidates.push_back(
      {"PhaseShift [10]",
       [](std::uint64_t seed) {
         return std::make_unique<baselines::PhaseShiftScheduler>(48.0, 8,
                                                                 seed + 3);
       },
       fpga::unprotected_aes() + fpga::phase_shift_addition(), "15", "100",
       "3.77", "NA", "NA"});
  candidates.push_back(
      {"iPPAP [19]",
       [](std::uint64_t seed) {
         return std::make_unique<baselines::IppapScheduler>(48.0, 8, 3, 12,
                                                            10, seed + 4);
       },
       fpga::unprotected_aes() + fpga::ippap_addition(), "39", "NA", "NA",
       "NA", "1.05"});
  candidates.push_back(
      {"ClockRand [9]",
       [](std::uint64_t seed) {
         return std::make_unique<baselines::ClockRand4Scheduler>(8.0,
                                                                 seed + 5);
       },
       fpga::unprotected_aes() + fpga::clock_rand4_addition(), "83", ">=6",
       "3", "1.00", "1.02"});
  candidates.push_back(
      {"RFTC(3, " + std::to_string(rftc_p) + ")",
       [&plan](std::uint64_t seed) {
         core::ControllerParams cp;
         cp.lfsr_seed_lo = seed * 2 + 1;
         cp.lfsr_seed_hi = seed;
         return std::make_unique<core::RftcController>(plan, cp);
       },
       fpga::unprotected_aes() +
           fpga::rftc_addition(2, 3, store.ramb36_count()),
       "67,584", ">=2000", "1.72", "1.48", "1.3"});

  // Reference design for overhead ratios and the security parameter.
  sched::FixedClockScheduler ref_sched(48.0);
  fpga::DesignReport ref = fpga::evaluate_design(
      "Unprotected", ref_sched, fpga::unprotected_aes(), hist_n);
  const std::size_t unprot_break =
      break_point(factory_for(candidates[0]), analysis::AttackKind::kCpa,
                  profile);

  std::printf("\n%-18s %10s %9s %6s %6s %6s %6s %6s\n", "Design", "#Delays",
              "SecParam", "CPA", "DTW", "Time", "Power", "Area");
  bench::print_rule(78);
  for (const Candidate& c : candidates) {
    const auto sched_for_hist = c.make_scheduler(7);
    const std::size_t delays = measure_distinct_delays(*sched_for_hist,
                                                       hist_n);
    const auto sched_for_power = c.make_scheduler(8);
    fpga::DesignReport rep = fpga::evaluate_design(c.name, *sched_for_power,
                                                   c.resources, hist_n);
    fpga::compute_overheads(rep, ref);

    const std::size_t cpa_break =
        break_point(factory_for(c), analysis::AttackKind::kCpa, profile);
    const std::size_t dtw_break =
        break_point(factory_for(c), analysis::AttackKind::kDtwCpa, profile);
    const std::size_t survived =
        cpa_break == 0 && dtw_break == 0
            ? profile.sr_max_traces
            : std::min(cpa_break == 0 ? profile.sr_max_traces : cpa_break,
                       dtw_break == 0 ? profile.sr_max_traces : dtw_break);
    const double sec_param =
        unprot_break ? static_cast<double>(survived) /
                           static_cast<double>(unprot_break)
                     : 0.0;

    auto fmt_break = [&](std::size_t b) {
      return b == 0 ? std::string("resist")
                    : "@" + std::to_string(b);
    };
    std::printf("%-18s %10zu %8.0f%s %6s %6s %6.2f %6.2f %6.2f\n",
                c.name.c_str(), delays, sec_param,
                (cpa_break == 0 && dtw_break == 0) ? "+" : " ",
                fmt_break(cpa_break).c_str(), fmt_break(dtw_break).c_str(),
                rep.time_overhead, rep.power_overhead, rep.area_overhead);
    std::printf("%-18s %10s %9s %6s %6s %6s %6s %6s   (paper)\n", "",
                c.paper_delays.c_str(), c.paper_secparam.c_str(), "-", "-",
                c.paper_time.c_str(), c.paper_power.c_str(),
                c.paper_area.c_str());

    // One metric block per design, keyed by a lowercased short name.
    std::string key;
    for (const char ch : c.name) {
      if (ch == ' ' || ch == '[') break;
      key += (ch == '(' || ch == ',' || ch == ')')
                 ? '_'
                 : static_cast<char>(std::tolower(ch));
    }
    while (!key.empty() && key.back() == '_') key.pop_back();
    report.metric(key + ".distinct_delays", static_cast<double>(delays));
    report.metric(key + ".sec_param", sec_param);
    report.metric(key + ".cpa_break", static_cast<double>(cpa_break),
                  "traces");
    report.metric(key + ".dtw_break", static_cast<double>(dtw_break),
                  "traces");
    report.metric(key + ".time_overhead", rep.time_overhead, "x");
    report.metric(key + ".power_overhead", rep.power_overhead, "x");
    report.metric(key + ".area_overhead", rep.area_overhead, "x");
  }
  std::printf(
      "\nSecParam = survived traces / unprotected CPA break point (%zu "
      "traces here); '+' marks designs that resisted both attacks for the "
      "full budget of %zu traces.\n",
      unprot_break, profile.sr_max_traces);
  std::printf("RFTC RAMB36 count: %u (paper: 20 at P=1024)\n",
              store.ramb36_count());
  report.metric("rftc.ramb36", static_cast<double>(store.ramb36_count()),
                "paper: 20 at P=1024");
  bench::finish_capture_bench(report);
  return 0;
}
