// Shared infrastructure for the reproduction benches: the evaluation key,
// campaign factories, scale profiles and table formatting.
//
// Scale: the paper's campaigns run to 1M-4M traces on real hardware.  These
// benches default to a "fast" profile whose trace axis is ~100x smaller,
// with the oscilloscope noise calibrated so the unprotected baseline breaks
// at a proportionally smaller trace count (see EXPERIMENTS.md).  Set
// RFTC_SCALE=full for a longer run (~10x the fast profile).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "aes/aes128.hpp"
#include "analysis/attacks.hpp"
#include "analysis/success_rate.hpp"
#include "obs/run_manifest.hpp"
#include "rftc/device.hpp"
#include "trace/acquisition.hpp"

namespace rftc::bench {

/// The key under attack in every experiment.
aes::Key evaluation_key();
aes::Block evaluation_round10_key();

struct ScaleProfile {
  std::string name;
  /// Max traces per success-rate campaign.
  std::size_t sr_max_traces;
  /// Checkpoints for success-rate curves.
  std::vector<std::size_t> sr_checkpoints;
  /// Attack repetitions per point (paper: 100).
  unsigned sr_repeats;
  /// TVLA traces per population (paper: 1M total).
  std::size_t tvla_traces;
  /// Completion-time histogram encryptions (paper: 1M).
  std::size_t histogram_encryptions;
  /// Key-byte positions attacked (paper: full key; fast profile uses a
  /// representative subset to fit a single-core budget).
  std::vector<int> attack_bytes;
};

/// Reads RFTC_SCALE (fast | full) from the environment; defaults to fast.
ScaleProfile scale_profile();

/// Campaign factory for an RFTC(m, p) device (fresh device per repeat so
/// countermeasure randomness is independent).  Captures run through
/// trace::acquire_random_parallel with pure per-shard seeding, so campaigns
/// are bit-identical under any RFTC_THREADS.
analysis::CampaignFactory rftc_factory(int m, int p);
/// Campaign factory for the unprotected fixed-clock reference (same
/// parallel-capture determinism contract as rftc_factory).
analysis::CampaignFactory unprotected_factory();

/// The pure capture-shard factory underneath rftc_factory: shard j's device
/// and simulator seeds depend only on (mix, j).  Exposed so the out-of-core
/// benches can stream the same campaigns into a trace store
/// (trace::acquire_random_store / acquire_tvla_store) that the in-RAM
/// campaigns capture — same factory + same seed = byte-identical traces.
trace::CaptureShardFactory rftc_shard_factory(int m, int p,
                                              std::uint64_t mix);
/// Unprotected counterpart of rftc_shard_factory.
trace::CaptureShardFactory unprotected_shard_factory(std::uint64_t mix);

/// The campaign mix rftc_factory derives for repetition `repeat` of an
/// RFTC(m, p) suite.  `acquire_random_store(rftc_shard_factory(m, p, mix),
/// n, mix + 0xB0B0B0B0)` therefore writes a store byte-identical to the
/// TraceSet `rftc_factory(m, p)(repeat, n)` returns.
std::uint64_t rftc_campaign_mix(int m, int p, std::uint64_t repeat);

/// Outcome of one four-attack suite, for machine-readable reporting.
struct AttackSuiteResult {
  /// CPA, PCA-CPA, DTW-CPA, FFT-CPA (in that order).
  std::array<std::string, 4> attack_names;
  /// Smallest checkpoint where the majority of repeats recovered the key;
  /// 0 = resisted the full budget.
  std::array<std::size_t, 4> break_points{};
  /// Traces captured across all repeats of the suite.
  std::size_t traces_captured = 0;
  std::size_t resisted_count() const;
};

/// Runs the four attacks of the paper against one campaign factory and
/// prints the success-rate series (one row per checkpoint).
AttackSuiteResult run_attack_suite(const std::string& label,
                                   const analysis::CampaignFactory& factory,
                                   const ScaleProfile& profile);

/// Records a suite outcome into `report` as "<label>.<attack>_break"
/// metrics (unit "traces", 0 = resisted) plus a "<label>.resisted" count.
void record_suite(obs::RunManifest& report, const std::string& label,
                  const AttackSuiteResult& result);

/// Finishes a bench that captured traces: sets throughput from the global
/// "trace.traces_captured" counter and writes BENCH_<name>.json.
void finish_capture_bench(obs::RunManifest& report);

/// Markdown-ish table row helpers.
void print_rule(std::size_t width = 78);
void print_header(const std::string& title);

}  // namespace rftc::bench
