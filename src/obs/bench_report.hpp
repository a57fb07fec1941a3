// Machine-readable bench results: every bench/ binary writes a
// BENCH_<name>.json next to its human-readable output so the performance
// trajectory can be tracked across commits, plus a runs/<name>.jsonl run
// manifest (see obs/run_manifest.hpp) carrying the same provenance and any
// checkpoint streams the bench recorded.
//
// Schema (schema_version 3, gated by the CI `rftc-report diff` job):
//   {
//     "schema_version": 3,
//     "name": "<bench name>",
//     "wall_seconds": <double>,               // whole-process wall time
//     "throughput": {"value": <double>, "unit": "<string>"},
//     "phases": {"<phase>": {"seconds": <double>, "entries": N,
//                            "cycles": N, ...}, ...},
//     "provenance": {"git_sha": "...", "build_type": "...",
//                    "threads": N, "batch": N,
//                    "seed": "N"},   // quoted: 64-bit, exceeds a double
//     "metrics": {"<key>": {"value": <double>, "unit": "<string>"}, ...},
//     "notes": {"<key>": "<string>", ...}     // e.g. scale profile
//   }
//
// schema_version 3 (this PR) added the "phases" block: the PhaseTimer
// breakdown (obs/phase_timer.hpp) snapshotted at write() — self-time
// seconds per named phase (capture / store-io / cpa-kernel / tvla / dtw /
// report / ...) plus, when perf_event_open is available, the per-phase
// hardware counters (cycles, instructions, cache_misses, branch_misses).
// The counters are simply absent on the no-perf fallback path.  Phase
// seconds are mirrored into the run manifest as "phase.<name>_seconds"
// final metrics so `rftc-report diff` attributes wall-time regressions
// either way.  schema_version 2 lacked "phases"; the parser accepts both.
//
// Every report automatically carries "threads" and "batch" metrics — the
// RFTC_THREADS / RFTC_CPA_BATCH configuration the bench ran under — and the
// full Provenance block (git sha, build type, threads, batch); benches
// stamp their campaign base seed via seed().
//
// The output directory defaults to the working directory; set
// RFTC_BENCH_DIR to redirect both the report and the manifest.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/run_manifest.hpp"

namespace rftc::obs {

class BenchReport {
 public:
  /// Starts the wall clock.  `name` becomes BENCH_<name>.json.
  explicit BenchReport(std::string name);

  /// Headline rate of the bench (typically traces or encryptions per
  /// second).  Last call wins.
  void throughput(double value, std::string unit);

  /// Named result (a reproduced paper figure, a convergence point, ...).
  void metric(const std::string& key, double value, std::string unit = "");

  /// Free-form string annotation (scale profile, configuration, ...).
  void note(const std::string& key, std::string value);

  /// Stamps the campaign base seed into the provenance block.
  void seed(std::uint64_t s) { manifest_.provenance().seed = s; }

  /// Appends one convergence checkpoint to the run manifest stream
  /// `stream` (e.g. the (n, max |t|) trajectory of a TVLA run).
  void checkpoint(std::string_view stream, double n,
                  std::vector<std::pair<std::string, double>> values);

  /// The run manifest written alongside the report (monitors append
  /// checkpoint records here directly).
  RunManifest& manifest() { return manifest_; }

  double elapsed_seconds() const;

  std::string to_json() const;

  /// Writes BENCH_<name>.json and runs/<name>.jsonl; returns the report
  /// path ("" on I/O failure).
  std::string write() const;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  double throughput_value_ = 0.0;
  std::string throughput_unit_ = "items/s";
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  mutable RunManifest manifest_;
};

}  // namespace rftc::obs
