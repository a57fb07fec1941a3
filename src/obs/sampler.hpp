// Live campaign telemetry: a background heartbeat sampler that snapshots
// the process' observable state into an append-only heartbeat.jsonl while a
// long campaign is still in flight — the health/progress channel the
// planned distributed campaign engine consumes, and what `rftc-report
// watch`/`tail` render.
//
// Enable with RFTC_OBS_HEARTBEAT=<path>[:interval_ms] (default interval
// 1000 ms; a relative <path> lands under RFTC_BENCH_DIR like every other
// artifact).  Each tick appends ONE self-contained JSON object per line and
// fsyncs it, so a SIGKILLed worker leaves every prior line readable:
//
//   {"heartbeat_schema":1,"seq":3,"elapsed_seconds":2.1,"interval_ms":1000,
//    "progress":{"captured":24000,"attacked":8000,"total":168000,
//                "fraction":0.14,"throughput_per_s":11430.1,
//                "eta_seconds":12.6},
//    "rss":{"current_bytes":..., "peak_bytes":...},
//    "tracer":{"recorded":1201,"dropped":0},
//    "checkpoint":{"stream":"tvla","n":1000,"values":{"max_abs_t":3.2,...}},
//    "metrics":{"counters":{...},"gauges":{...},"histograms":{...}}}
//
// Progress sources: "captured" is the trace.traces_captured counter,
// "attacked" the analysis.traces_attacked counter, "total" the
// campaign.total_traces gauge a bench declares via set_campaign_total().
// "checkpoint" is the latest ConvergenceMonitor observation (published via
// publish_checkpoint()) and is omitted before the first one.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rftc::obs {

/// Schema version of a heartbeat line (the "heartbeat_schema" field).
inline constexpr int kHeartbeatSchema = 1;

/// Declares (or extends) the planned capture size of the running campaign,
/// i.e. the denominator of heartbeat progress: sets the
/// campaign.total_traces gauge.
void set_campaign_total(double traces);
void add_campaign_total(double traces);

/// Publishes the latest convergence checkpoint for heartbeat snapshots
/// (called by ConvergenceMonitor observers; last write wins).
void publish_checkpoint(std::string stream, double n,
                        std::vector<std::pair<std::string, double>> values);

/// One parsed heartbeat line (the read side used by `rftc-report
/// watch`/`tail` and tests).
struct HeartbeatSnapshot {
  int schema = 0;
  std::uint64_t seq = 0;
  double elapsed_seconds = 0.0;
  double interval_ms = 0.0;
  double captured = 0.0;
  double attacked = 0.0;
  double total = 0.0;
  double fraction = 0.0;
  double throughput_per_s = 0.0;
  double eta_seconds = 0.0;
  double rss_current_bytes = 0.0;
  double rss_peak_bytes = 0.0;
  double tracer_recorded = 0.0;
  double tracer_dropped = 0.0;
  bool has_checkpoint = false;
  std::string checkpoint_stream;
  double checkpoint_n = 0.0;
  std::vector<std::pair<std::string, double>> checkpoint_values;
};

/// Parses one heartbeat JSON line; false on malformed input, a schema
/// this build does not understand, or a "seq" that is not an exact
/// unsigned integer.
bool parse_heartbeat_line(std::string_view line, HeartbeatSnapshot& out);

/// Async-signal-safe copy of the most recent heartbeat line any tick built
/// (seqlock-published into a static buffer, so the post-mortem writer can
/// embed the last snapshot without touching the sampler mutex).  Copies at
/// most cap-1 bytes plus a NUL into `buf`; returns the length, 0 when no
/// tick has completed yet or a concurrent tick kept tearing the read.
std::size_t last_heartbeat_line(char* buf, std::size_t cap);

/// Fixed-width column header matching format_heartbeat_row().
std::string heartbeat_header_row();

/// Renders one snapshot as a fixed-width table row; `prev` (may be null)
/// supplies the convergence delta shown next to the checkpoint.
std::string format_heartbeat_row(const HeartbeatSnapshot& cur,
                                 const HeartbeatSnapshot* prev);

/// The background sampler.  configure() + start() are wired from
/// RFTC_OBS_HEARTBEAT by obs::init_from_env(); tick_now() also works
/// without start() for deterministic tests and the overhead bench.
class HeartbeatSampler {
 public:
  static HeartbeatSampler& global();

  static constexpr std::chrono::milliseconds kDefaultInterval{1000};

  /// Parses "<path>[:interval_ms]".  A trailing ":<digits>" suffix is the
  /// interval (0 selects the default); anything else is part of the path.
  /// False when the path component is empty.
  static bool parse_spec(std::string_view spec, std::string& path,
                         std::chrono::milliseconds& interval);

  /// Sets the sink (resolved against artifact_dir() when relative) and
  /// interval; closes any previously open sink.  Not allowed while
  /// running().
  bool configure(std::string path,
                 std::chrono::milliseconds interval = kDefaultInterval);

  bool configured() const;
  /// The resolved sink path ("" before configure()).
  std::string path() const;
  std::chrono::milliseconds interval() const;

  /// Launches the sampling thread (first tick after one interval).  False
  /// when unconfigured, already running, or the sink cannot be opened.
  bool start();

  /// Final tick, join, close.  Idempotent.
  void stop();

  bool running() const;

  /// Appends one snapshot line now (opens the sink on first use) and
  /// fsyncs it.  False when unconfigured or on I/O error.
  bool tick_now();

  /// Snapshot lines written so far.
  std::uint64_t ticks() const;

 private:
  HeartbeatSampler() = default;
};

}  // namespace rftc::obs
