// Attack demo: mount the paper's CPA attack end-to-end.
//
// Captures traces from an unprotected device and an RFTC(3, 64) device,
// runs last-round CPA, and shows the recovered round-10 key bytes (then
// inverts the key schedule back to the master key) — succeeding against
// the unprotected core and failing against RFTC.
//
//   $ ./examples/attack_demo [n_traces]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "analysis/attacks.hpp"
#include "analysis/convergence.hpp"
#include "obs/checkpoints.hpp"
#include "obs/run_manifest.hpp"
#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"

namespace {

using namespace rftc;

void attack(const char* label, const trace::TraceSet& set,
            const aes::Key& true_key, const std::string& stream,
            obs::RunManifest& manifest) {
  const aes::Block rk10 = aes::expand_key(true_key)[10];
  analysis::AttackParams params;
  params.kind = analysis::AttackKind::kCpa;  // attack all 16 bytes
  params.checkpoints = obs::checkpoints_from_env(set.size());
  analysis::ConvergenceMonitor monitor;
  params.monitor = &monitor;
  const analysis::AttackOutcome outcome =
      analysis::run_attack(set, rk10, params);

  // Re-run the engine to show the recovered bytes themselves.
  const trace::TraceSet ds = set.downsampled(params.downsample);
  std::vector<int> bytes(16);
  for (int i = 0; i < 16; ++i) bytes[static_cast<std::size_t>(i)] = i;
  analysis::CpaEngine engine(ds.samples(), bytes);
  for (std::size_t i = 0; i < ds.size(); ++i)
    engine.add(ds.ciphertext(i), ds.trace(i));

  std::printf("\n[%s] %zu traces\n", label, set.size());
  std::printf("  recovered round-10 key: ");
  aes::Block recovered{};
  for (const auto& rep : engine.report()) {
    recovered[static_cast<std::size_t>(rep.byte_pos)] =
        static_cast<std::uint8_t>(rep.best_guess());
    std::printf("%02x", rep.best_guess());
  }
  std::printf("\n  true round-10 key     : ");
  for (const auto b : rk10) std::printf("%02x", b);
  std::printf("\n  mean rank of true key : %.1f\n",
              outcome.mean_rank.back());
  if (outcome.success.back()) {
    const aes::Key master = aes::invert_key_schedule_from_round10(recovered);
    std::printf("  KEY RECOVERED; master key via inverse key schedule: ");
    for (const auto b : master) std::printf("%02x", b);
    std::printf("\n");
  } else {
    std::printf("  attack FAILED (key not recovered)\n");
  }
  std::printf("  convergence (log-spaced checkpoints):\n");
  monitor.print_cpa_table();
  monitor.emit(manifest, stream + ".");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 4'000;
  const aes::Key key = {0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
                        0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C};
  trace::PowerModelParams pm;
  obs::RunManifest manifest("attack_demo");
  manifest.seed(1);  // base of the capture seeds below

  {
    core::ScheduledAesDevice dev(
        key, std::make_unique<sched::FixedClockScheduler>(48.0));
    trace::TraceSimulator sim(pm, 1);
    Xoshiro256StarStar rng(2);
    const trace::TraceSet set = trace::acquire_random(
        [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, n, rng);
    attack("Unprotected AES @ 48 MHz", set, key, "unprotected", manifest);
  }
  {
    core::RftcDevice dev = core::RftcDevice::make(key, 3, 64, 3);
    trace::TraceSimulator sim(pm, 4);
    Xoshiro256StarStar rng(5);
    const trace::TraceSet set = trace::acquire_random(
        [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, n, rng);
    attack("RFTC(3, 64)", set, key, "rftc_3_64", manifest);
  }
  manifest.metric("traces", static_cast<double>(n), "traces");
  manifest.write();
  return 0;
}
