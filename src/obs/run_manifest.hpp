// Run records: every bench/example/attack run keeps one RunManifest, which
// holds the run's provenance, its metrics (each stored once), notes and the
// checkpoint stream a convergence monitor recorded while the run was in
// flight.  write() emits the same record as two artifacts under
// artifact_dir():
//
// 1. BENCH_<name>.json, the per-run summary (schema_version 3, gated by the
//    CI `rftc-report diff` job):
//   {
//     "schema_version": 3,
//     "name": "<run name>",
//     "wall_seconds": <double>,               // since construction
//     "throughput": {"value": <double>, "unit": "<string>"},
//     "phases": {"<phase>": {"seconds": <double>, "entries": N,
//                            "cycles": N, ...}, ...},
//     "provenance": {"git_sha": "...", "build_type": "...",
//                    "threads": N, "batch": N,
//                    "seed": "N"},   // quoted: 64-bit, exceeds a double
//     "metrics": {"<key>": {"value": <double>, "unit": "<string>"}, ...},
//     "notes": {"<key>": "<string>", ...}     // e.g. scale profile
//   }
//    "phases" is the PhaseTimer breakdown (obs/phase_timer.hpp): self-time
//    seconds per named phase plus, when perf_event_open is available, the
//    per-phase hardware counters (absent on the no-perf fallback path).
//    schema_version 2 lacked "phases"; the parser accepts both.
//
// 2. runs/<name>.jsonl, the run manifest (one JSON object per line):
//   {"kind":"header","manifest_version":1,"name":...,"provenance":{...}}
//   {"kind":"checkpoint","stream":"<label>","n":<traces>,"values":{...}}
//   ...
//   {"kind":"final","wall_seconds":...,"metrics":{"<key>":{"value":..,
//    "unit":".."}, ...}}
//    The header is always first, the final record always last, and
//    checkpoint records keep insertion order (monitors append in
//    trace-count order per stream).  The final metrics are "throughput",
//    every metric() in call order, then "phase.<name>_seconds" per phase
//    (the "_seconds" suffix keys them as timing-class for rftc-report
//    diff) — the same values the BENCH document carries.
//
// Every record automatically carries "threads" and "batch" metrics — the
// RFTC_THREADS / RFTC_CPA_BATCH configuration the run used — and the full
// Provenance block; runs stamp their campaign base seed via seed().
// `rftc-report` consumes both artifacts; `rftc-report diff` compares two of
// them metric-by-metric and checkpoint-by-checkpoint.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/phase_timer.hpp"
#include "util/env.hpp"

namespace rftc::obs {

/// Current manifest schema version (the "manifest_version" header field).
inline constexpr int kManifestVersion = 1;

/// Directory that receives every observability artifact (BENCH_*.json,
/// runs/*.jsonl, trace/metric sinks, heartbeat.jsonl): $RFTC_BENCH_DIR,
/// or "." when unset.
std::string artifact_dir();

/// Routes a sink path spec the way every artifact writer does: an absolute
/// path is returned unchanged; a relative one lands under artifact_dir()
/// (whose directories are created best-effort).  Keeps all four artifact
/// kinds — bench reports, run manifests, trace/metric sinks and the
/// heartbeat file — in one place under RFTC_BENCH_DIR.
std::string resolve_artifact_path(const std::string& path_spec);

/// Where this run came from: the configuration knobs that must match for
/// two artifacts to be comparable, stamped into every bench report and
/// manifest header.
struct Provenance {
  /// Git commit of the build ("unknown" outside a checkout); captured at
  /// CMake configure time.
  std::string git_sha;
  /// CMAKE_BUILD_TYPE of the binary.
  std::string build_type;
  /// Worker count (RFTC_THREADS or hardware concurrency).
  std::size_t threads = 1;
  /// CPA tile size (RFTC_CPA_BATCH or the engine default).
  std::size_t batch = env::kCpaBatchDefault;
  /// Campaign base seed; 0 until the run stamps one via seed().
  std::uint64_t seed = 0;

  /// Reads the environment/build stamps once per call.
  static Provenance collect();

  /// JSON object, e.g. {"git_sha":"abc123",...,"seed":7}.
  std::string to_json() const;
};

/// One checkpoint record of a manifest stream: named values at `n` traces.
struct CheckpointRecord {
  std::string stream;
  double n = 0.0;
  std::vector<std::pair<std::string, double>> values;
};

class RunManifest {
 public:
  /// Starts the wall clock and arms the RFTC_OBS_* sinks.  `name` becomes
  /// BENCH_<name>.json and runs/<name>.jsonl under artifact_dir().
  explicit RunManifest(std::string name,
                       Provenance provenance = Provenance::collect());

  const std::string& name() const { return name_; }
  Provenance& provenance() { return provenance_; }
  const Provenance& provenance() const { return provenance_; }

  /// Stamps the campaign base seed into the provenance block.
  void seed(std::uint64_t s) { provenance_.seed = s; }

  /// Headline rate of the run (typically traces or encryptions per
  /// second).  Last call wins.
  void throughput(double value, std::string unit);

  /// Named result (a reproduced paper figure, a convergence point, ...).
  void metric(const std::string& key, double value, std::string unit = "");

  /// Free-form string annotation (scale profile, configuration, ...).
  void note(const std::string& key, std::string value);

  /// Appends one checkpoint record to stream `stream` (kept in insertion
  /// order), e.g. the (n, max |t|) trajectory of a TVLA run.
  void checkpoint(std::string_view stream, double n,
                  std::vector<std::pair<std::string, double>> values);

  /// Seconds since construction.
  double elapsed_seconds() const;

  /// The BENCH_<name>.json document, phases snapshotted now.
  std::string to_json() const;

  /// The runs/<name>.jsonl records, header first and final record last.
  std::vector<std::string> lines() const;

  /// Manifest path: <artifact_dir()>/runs/<name>.jsonl.
  std::string path() const;

  /// Writes BENCH_<name>.json and runs/<name>.jsonl from one snapshot of
  /// the clock and the phase timer; returns the BENCH path ("" when either
  /// file cannot be written).
  std::string write() const;

 private:
  using Metric = std::pair<std::string, std::pair<double, std::string>>;
  using Phases = std::vector<std::pair<std::string, PhaseStat>>;

  std::string to_json(double wall, const Phases& phases) const;
  std::vector<std::string> lines(double wall, const Phases& phases) const;

  std::string name_;
  Provenance provenance_;
  std::chrono::steady_clock::time_point start_;
  double throughput_value_ = 0.0;
  std::string throughput_unit_ = "items/s";
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<CheckpointRecord> records_;
};

}  // namespace rftc::obs
