// Run manifests: one schema-versioned JSONL artifact per bench/example/
// attack run, carrying (1) provenance — everything needed to reproduce or
// compare the run — and (2) the checkpoint stream a convergence monitor
// recorded while the run was in flight.
//
// File layout (`$RFTC_BENCH_DIR/runs/<name>.jsonl`, one JSON object per
// line):
//   {"kind":"header","manifest_version":1,"name":...,"provenance":{...}}
//   {"kind":"checkpoint","stream":"<label>","n":<traces>,"values":{...}}
//   ...
//   {"kind":"final","wall_seconds":...,"metrics":{"<key>":{"value":..,
//    "unit":".."}, ...}}
//
// The header is always first, the final record always last, and checkpoint
// records keep insertion order (monitors append in trace-count order per
// stream).  `rftc-report` consumes these files; `rftc-report diff` compares
// two of them checkpoint-by-checkpoint.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
  /// CPA accumulation engine ("streaming"|"batched", from RFTC_CPA_MODE).
  std::string cpa_mode;
  /// Worker count (RFTC_THREADS or hardware concurrency).
  std::size_t threads = 1;
  /// CPA tile size (RFTC_CPA_BATCH or the engine default).
  std::size_t batch = env::kCpaBatchDefault;
  /// Campaign base seed; 0 until the run stamps one via set_seed().
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
  /// `name` becomes runs/<name>.jsonl under artifact_dir().
  explicit RunManifest(std::string name,
                       Provenance provenance = Provenance::collect());

  const std::string& name() const { return name_; }
  Provenance& provenance() { return provenance_; }
  const Provenance& provenance() const { return provenance_; }

  /// Appends one checkpoint record (kept in insertion order).
  void checkpoint(CheckpointRecord record);
  void checkpoint(std::string_view stream, double n,
                  std::vector<std::pair<std::string, double>> values);
  const std::vector<CheckpointRecord>& checkpoints() const { return records_; }

  /// Final-record metric (same shape as BenchReport metrics).
  void final_metric(const std::string& key, double value,
                    std::string unit = "");
  void wall_seconds(double s) { wall_seconds_ = s; }

  /// Serialized records, header first and final record last.
  std::vector<std::string> lines() const;

  /// Target path: <artifact_dir()>/runs/<name>.jsonl.
  std::string path() const;

  /// Creates the runs/ directory if needed and writes every record;
  /// returns the path ("" on I/O failure).
  std::string write() const;

 private:
  std::string name_;
  Provenance provenance_;
  std::vector<CheckpointRecord> records_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> finals_;
  double wall_seconds_ = 0.0;
};

}  // namespace rftc::obs
