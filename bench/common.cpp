#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sched/fixed_clock.hpp"
#include "simd/simd.hpp"

namespace rftc::bench {

aes::Key evaluation_key() {
  // The FIPS-197 Appendix B key: well known and easy to eyeball in output.
  return {0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
          0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C};
}

aes::Block evaluation_round10_key() {
  return aes::expand_key(evaluation_key())[10];
}

ScaleProfile scale_profile() {
  const char* env = std::getenv("RFTC_SCALE");
  const bool full = env != nullptr && std::strcmp(env, "full") == 0;
  if (full) {
    return {.name = "full",
            .sr_max_traces = 100'000,
            .sr_checkpoints = {1'000, 2'000, 5'000, 10'000, 25'000, 50'000,
                               100'000},
            .sr_repeats = 10,
            .tvla_traces = 50'000,
            .histogram_encryptions = 1'000'000,
            .attack_bytes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                             14, 15}};
  }
  return {.name = "fast",
          .sr_max_traces = 48'000,
          .sr_checkpoints = {1'000, 3'000, 8'000, 16'000, 32'000, 48'000},
          .sr_repeats = 3,
          .tvla_traces = 12'000,
          .histogram_encryptions = 1'000'000,
          .attack_bytes = {0, 5, 10, 15}};
}

namespace {

/// Weyl increment used to derive independent per-shard seeds.
constexpr std::uint64_t kShardGolden = 0x9E3779B97F4A7C15ULL;

}  // namespace

trace::CaptureShardFactory rftc_shard_factory(int m, int p,
                                              std::uint64_t mix) {
  const aes::Key key = evaluation_key();
  // Pure shard factory: shard j's device and simulator seeds depend only
  // on (mix, j), so the campaign is bit-identical under any RFTC_THREADS
  // (see trace::CaptureShardFactory).  The device is shared_ptr-owned
  // because Encryptor (std::function) requires a copyable callable.
  return [key, m, p, mix](std::size_t shard) {
    const std::uint64_t salt =
        SplitMix64(mix ^ (kShardGolden * (shard + 1))).next();
    auto dev = std::make_shared<core::RftcDevice>(
        core::RftcDevice::make(key, m, p, salt | 1));
    trace::PowerModelParams pm;
    return trace::CaptureShard{
        [dev](const aes::Block& pt) { return dev->encrypt(pt); },
        trace::TraceSimulator(pm, salt ^ 0xA5A5A5A5ULL)};
  };
}

trace::CaptureShardFactory unprotected_shard_factory(std::uint64_t mix) {
  const aes::Key key = evaluation_key();
  return [key, mix](std::size_t shard) {
    const std::uint64_t salt =
        SplitMix64(mix ^ (kShardGolden * (shard + 1))).next();
    auto dev = std::make_shared<core::ScheduledAesDevice>(
        key, std::make_unique<sched::FixedClockScheduler>(48.0));
    trace::PowerModelParams pm;
    return trace::CaptureShard{
        [dev](const aes::Block& pt) { return dev->encrypt(pt); },
        trace::TraceSimulator(pm, salt)};
  };
}

std::uint64_t rftc_campaign_mix(int m, int p, std::uint64_t repeat) {
  return SplitMix64(0x5EED0000 + static_cast<std::uint64_t>(m) * 7919 +
                    static_cast<std::uint64_t>(p) * 104729 + repeat)
      .next();
}

analysis::CampaignFactory rftc_factory(int m, int p) {
  return [m, p](std::uint64_t repeat, std::size_t n) {
    const std::uint64_t mix = rftc_campaign_mix(m, p, repeat);
    return trace::acquire_random_parallel(rftc_shard_factory(m, p, mix), n,
                                          mix + 0xB0B0B0B0ULL);
  };
}

analysis::CampaignFactory unprotected_factory() {
  return [](std::uint64_t repeat, std::size_t n) {
    const std::uint64_t mix = SplitMix64(0xC000 + repeat).next();
    return trace::acquire_random_parallel(unprotected_shard_factory(mix), n,
                                          0xD000 + repeat);
  };
}

std::size_t AttackSuiteResult::resisted_count() const {
  std::size_t n = 0;
  for (const std::size_t b : break_points)
    if (b == 0) ++n;
  return n;
}

AttackSuiteResult run_attack_suite(const std::string& label,
                                   const analysis::CampaignFactory& factory,
                                   const ScaleProfile& profile) {
  using analysis::AttackKind;
  constexpr AttackKind kKinds[] = {AttackKind::kCpa, AttackKind::kPcaCpa,
                                   AttackKind::kDtwCpa, AttackKind::kFftCpa};
  const aes::Block rk10 = evaluation_round10_key();
  std::printf("\n-- %s --\n", label.c_str());
  std::printf("%-10s", "traces");
  for (const std::size_t c : profile.sr_checkpoints)
    std::printf("%10zu", c);
  std::printf("\n");
  std::fflush(stdout);

  // Every suite extends the heartbeat denominator by its own capture plan,
  // so a bench that runs several suites shows campaign-wide progress.
  obs::add_campaign_total(static_cast<double>(profile.sr_repeats) *
                          static_cast<double>(profile.sr_max_traces));

  // One campaign per repetition, shared by all four attack kinds (each
  // attack sees the same adversary budget, as in the paper's evaluation).
  std::array<analysis::AttackParams, 4> attacks;
  for (std::size_t k = 0; k < 4; ++k) {
    attacks[k].kind = kKinds[k];
    attacks[k].byte_positions = profile.attack_bytes;
  }
  analysis::SuccessRateParams sr;
  sr.checkpoints = profile.sr_checkpoints;
  sr.repeats = profile.sr_repeats;
  const std::vector<analysis::SuccessRateCurve> curves =
      analysis::estimate_success_rate(factory, rk10, attacks, sr);

  AttackSuiteResult result;
  result.traces_captured = profile.sr_repeats * profile.sr_max_traces;
  for (std::size_t k = 0; k < 4; ++k) {
    result.attack_names[k] = analysis::attack_name(kKinds[k]);
    std::printf("%-10s", result.attack_names[k].c_str());
    for (const double s : curves[k].success_rate) std::printf("%10.2f", s);
    result.break_points[k] = curves[k].traces_to_reach(0.5);
    if (result.break_points[k] != 0) {
      std::printf("   BROKEN @ %zu\n", result.break_points[k]);
    } else {
      std::printf("   not broken\n");
    }
    std::fflush(stdout);
  }
  return result;
}

void record_suite(obs::RunManifest& report, const std::string& label,
                  const AttackSuiteResult& result) {
  for (std::size_t k = 0; k < 4; ++k) {
    report.metric(label + "." + result.attack_names[k] + "_break",
                  static_cast<double>(result.break_points[k]), "traces");
  }
  report.metric(label + ".resisted",
                static_cast<double>(result.resisted_count()), "attacks");
}

void finish_capture_bench(obs::RunManifest& report) {
  const double captured = static_cast<double>(
      obs::Registry::global().counter("trace.traces_captured").value());
  report.note("simd_isa", simd::backend_name());
  report.metric("traces_captured", captured, "traces");
  report.throughput(captured / report.elapsed_seconds(), "traces/s");
  report.write();
}

void print_rule(std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

void print_header(const std::string& title) {
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

}  // namespace rftc::bench
