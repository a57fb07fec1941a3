// Live campaign telemetry (docs/OBSERVABILITY.md "Live telemetry"): the
// heartbeat sampler's spec parsing, snapshot round-trip and crash-tolerant
// sink, per-phase attribution (PhaseTimer/PhaseScope self-time), the
// perf_event_open counters (both the hardware path and the portable
// fallback), schema_version 3 bench reports, and the RFTC_BENCH_DIR
// routing shared by every artifact kind.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/perf_counters.hpp"
#include "obs/phase_timer.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_manifest.hpp"
#include "obs/sampler.hpp"
#include "scratch.hpp"

namespace rftc::obs {
namespace {

std::vector<HeartbeatSnapshot> read_heartbeats(const std::string& path) {
  std::vector<HeartbeatSnapshot> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    HeartbeatSnapshot snap;
    if (parse_heartbeat_line(line, snap)) out.push_back(std::move(snap));
  }
  return out;
}

class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

// ------------------------------------------------------------ parse_spec --

TEST(HeartbeatSpec, PathOnlyGetsDefaultInterval) {
  std::string path;
  std::chrono::milliseconds interval{};
  ASSERT_TRUE(HeartbeatSampler::parse_spec("hb.jsonl", path, interval));
  EXPECT_EQ(path, "hb.jsonl");
  EXPECT_EQ(interval, HeartbeatSampler::kDefaultInterval);
}

TEST(HeartbeatSpec, TrailingDigitsAreTheIntervalMs) {
  std::string path;
  std::chrono::milliseconds interval{};
  ASSERT_TRUE(HeartbeatSampler::parse_spec("hb.jsonl:250", path, interval));
  EXPECT_EQ(path, "hb.jsonl");
  EXPECT_EQ(interval.count(), 250);
}

TEST(HeartbeatSpec, ZeroIntervalSelectsTheDefault) {
  std::string path;
  std::chrono::milliseconds interval{};
  ASSERT_TRUE(HeartbeatSampler::parse_spec("hb.jsonl:0", path, interval));
  EXPECT_EQ(path, "hb.jsonl");
  EXPECT_EQ(interval, HeartbeatSampler::kDefaultInterval);
}

TEST(HeartbeatSpec, NonNumericSuffixBelongsToThePath) {
  std::string path;
  std::chrono::milliseconds interval{};
  ASSERT_TRUE(
      HeartbeatSampler::parse_spec("dir:with/colons.jsonl", path, interval));
  EXPECT_EQ(path, "dir:with/colons.jsonl");
  EXPECT_EQ(interval, HeartbeatSampler::kDefaultInterval);
  // An absurdly long digit run (>9 digits) is not a plausible interval.
  ASSERT_TRUE(
      HeartbeatSampler::parse_spec("hb:9999999999", path, interval));
  EXPECT_EQ(path, "hb:9999999999");
  EXPECT_EQ(interval, HeartbeatSampler::kDefaultInterval);
}

TEST(HeartbeatSpec, EmptyPathIsRejected) {
  std::string path;
  std::chrono::milliseconds interval{};
  EXPECT_FALSE(HeartbeatSampler::parse_spec("", path, interval));
  EXPECT_FALSE(HeartbeatSampler::parse_spec(":250", path, interval));
}

// ------------------------------------------------------- snapshot ticks --

TEST(HeartbeatSampler, TickRoundTripsThroughParser) {
  Registry::global().reset_values();
  Registry::global().counter("trace.traces_captured").inc(50);
  Registry::global().counter("analysis.traces_attacked").inc(10);
  set_campaign_total(100.0);
  publish_checkpoint("tvla", 1000.0, {{"max_abs_t", 3.5}});

  const std::string sink = test::scratch_path("roundtrip.jsonl");
  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  ASSERT_TRUE(sampler.configure(sink));
  EXPECT_TRUE(sampler.configured());
  EXPECT_EQ(sampler.path(), sink);
  ASSERT_TRUE(sampler.tick_now());
  Registry::global().counter("trace.traces_captured").inc(25);
  ASSERT_TRUE(sampler.tick_now());
  EXPECT_EQ(sampler.ticks(), 2u);

  const std::vector<HeartbeatSnapshot> snaps = read_heartbeats(sink);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].schema, kHeartbeatSchema);
  EXPECT_EQ(snaps[0].seq, 1u);
  EXPECT_EQ(snaps[1].seq, 2u);
  EXPECT_GE(snaps[1].elapsed_seconds, snaps[0].elapsed_seconds);
  EXPECT_DOUBLE_EQ(snaps[0].captured, 50.0);
  EXPECT_DOUBLE_EQ(snaps[0].attacked, 10.0);
  EXPECT_DOUBLE_EQ(snaps[0].total, 100.0);
  EXPECT_DOUBLE_EQ(snaps[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ(snaps[1].captured, 75.0);
  EXPECT_DOUBLE_EQ(snaps[1].fraction, 0.75);
  // current (statm) and peak (getrusage) come from different kernel
  // accounting, so only sanity-check both are populated, not ordered.
  EXPECT_GT(snaps[0].rss_current_bytes, 0.0);
  EXPECT_GT(snaps[0].rss_peak_bytes, 0.0);
  ASSERT_TRUE(snaps[0].has_checkpoint);
  EXPECT_EQ(snaps[0].checkpoint_stream, "tvla");
  EXPECT_DOUBLE_EQ(snaps[0].checkpoint_n, 1000.0);
  ASSERT_FALSE(snaps[0].checkpoint_values.empty());
  EXPECT_EQ(snaps[0].checkpoint_values.front().first, "max_abs_t");
  EXPECT_DOUBLE_EQ(snaps[0].checkpoint_values.front().second, 3.5);

  // Every line is itself a complete JSON object (fsync'd whole), so a
  // SIGKILL between ticks loses at most the un-ticked tail.
  std::ifstream in(sink);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(json::parse(line).is_object());
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::filesystem::remove(sink);
}

TEST(HeartbeatSampler, BackgroundThreadTicksAndStopTakesAFinalOne) {
  Registry::global().reset_values();
  const std::string sink = test::scratch_path("thread.jsonl");
  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  ASSERT_TRUE(sampler.configure(sink, std::chrono::milliseconds(10)));
  ASSERT_TRUE(sampler.start());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.start());  // already running
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  sampler.stop();  // idempotent

  const std::vector<HeartbeatSnapshot> snaps = read_heartbeats(sink);
  ASSERT_GE(snaps.size(), 2u);  // several interval ticks plus the final one
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].seq, snaps[i - 1].seq + 1);
    EXPECT_GE(snaps[i].elapsed_seconds, snaps[i - 1].elapsed_seconds);
  }
  EXPECT_EQ(snaps.back().seq, sampler.ticks());
  std::filesystem::remove(sink);
}

// ---------------------------------------------------------- eta sentinel --

TEST(HeartbeatEta, AbsurdEtaClampsToUnknownSentinel) {
  // Regression: a near-zero throughput against a huge remaining total used
  // to emit astronomic (or, once the division underflowed, non-finite)
  // eta_seconds, which json::number renders as null — breaking every
  // strict-JSON consumer of the stream.  Anything past the ~30-year cap is
  // the -1 "unknown" sentinel instead.
  Registry::global().reset_values();
  Registry::global().counter("trace.traces_captured").inc(1);
  set_campaign_total(1e18);
  const std::string sink = test::scratch_path("eta_absurd.jsonl");
  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  ASSERT_TRUE(sampler.configure(sink));
  ASSERT_TRUE(sampler.tick_now());
  const std::vector<HeartbeatSnapshot> snaps = read_heartbeats(sink);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_DOUBLE_EQ(snaps[0].eta_seconds, -1.0);
  // The table renderer shows "-" for the sentinel, never a raw -1.0s.
  const std::string row = format_heartbeat_row(snaps[0], nullptr);
  EXPECT_EQ(row.find("-1.0"), std::string::npos) << row;
  // The emitted line stays one complete strict-JSON object.
  std::ifstream in(sink);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(json::parse(line).is_object()) << line;
  std::filesystem::remove(sink);
}

TEST(HeartbeatEta, ZeroThroughputIsUnknownNotInfinite) {
  Registry::global().reset_values();
  set_campaign_total(500.0);  // a total, but nothing captured yet
  const std::string sink = test::scratch_path("eta_stalled.jsonl");
  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  ASSERT_TRUE(sampler.configure(sink));
  ASSERT_TRUE(sampler.tick_now());
  const std::vector<HeartbeatSnapshot> snaps = read_heartbeats(sink);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_DOUBLE_EQ(snaps[0].eta_seconds, -1.0);
  std::filesystem::remove(sink);
}

TEST(HeartbeatEta, CompletedCampaignReportsZeroEta) {
  Registry::global().reset_values();
  Registry::global().counter("trace.traces_captured").inc(150);
  set_campaign_total(100.0);  // over-capture must not go negative
  const std::string sink = test::scratch_path("eta_done.jsonl");
  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  ASSERT_TRUE(sampler.configure(sink));
  ASSERT_TRUE(sampler.tick_now());
  const std::vector<HeartbeatSnapshot> snaps = read_heartbeats(sink);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_DOUBLE_EQ(snaps[0].eta_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snaps[0].fraction, 1.0);
  std::filesystem::remove(sink);
}

TEST(HeartbeatSampler, UnconfiguredTickFails) {
  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  // Configure to a fresh path, then simulate an unopenable sink: a path
  // under a file (not a directory) cannot be created.
  const std::string file = test::scratch_path("not_a_dir");
  { std::ofstream out(file); }
  ASSERT_TRUE(sampler.configure(file + "/sub/hb.jsonl"));
  EXPECT_FALSE(sampler.tick_now());
  // The failed open clears the sink instead of retrying every tick.
  EXPECT_FALSE(sampler.configured());
  EXPECT_FALSE(sampler.start());
  std::filesystem::remove(file);
}

// -------------------------------------------------------- render helpers --

TEST(HeartbeatRender, RowsCarryProgressAndConvergenceDelta) {
  HeartbeatSnapshot prev;
  prev.seq = 1;
  prev.has_checkpoint = true;
  prev.checkpoint_stream = "tvla";
  prev.checkpoint_values = {{"max_abs_t", 3.0}};
  HeartbeatSnapshot cur = prev;
  cur.seq = 2;
  cur.elapsed_seconds = 4.5;
  cur.captured = 500.0;
  cur.total = 1000.0;
  cur.fraction = 0.5;
  cur.throughput_per_s = 111.0;
  cur.eta_seconds = 4.5;
  cur.checkpoint_values = {{"max_abs_t", 3.5}};

  const std::string header = heartbeat_header_row();
  EXPECT_NE(header.find("seq"), std::string::npos);
  EXPECT_NE(header.find("captured/total"), std::string::npos);

  const std::string row = format_heartbeat_row(cur, &prev);
  EXPECT_NE(row.find("500/1000"), std::string::npos);
  EXPECT_NE(row.find("50.0%"), std::string::npos);
  EXPECT_NE(row.find("tvla@"), std::string::npos);
  EXPECT_NE(row.find("max_abs_t=3.5"), std::string::npos);
  EXPECT_NE(row.find("(+0.5)"), std::string::npos);

  // Without a total the row degrades to "captured/?" and no percentage.
  cur.total = 0.0;
  const std::string open_ended = format_heartbeat_row(cur, nullptr);
  EXPECT_NE(open_ended.find("500/?"), std::string::npos);
  EXPECT_EQ(open_ended.find('%'), std::string::npos);
}

TEST(HeartbeatRender, ParserRejectsGarbageAndWrongSchema) {
  HeartbeatSnapshot snap;
  EXPECT_FALSE(parse_heartbeat_line("", snap));
  EXPECT_FALSE(parse_heartbeat_line("{\"seq\": 1", snap));
  EXPECT_FALSE(parse_heartbeat_line("[1,2,3]", snap));
  EXPECT_FALSE(
      parse_heartbeat_line("{\"heartbeat_schema\": 999, \"seq\": 1}", snap));
  EXPECT_TRUE(parse_heartbeat_line(
      "{\"heartbeat_schema\": 1, \"seq\": 7}", snap));
  EXPECT_EQ(snap.seq, 7u);
}

// ------------------------------------------------------------ PhaseTimer --

TEST(PhaseTimer, NestedScopesBillSelfTimeOnly) {
  PhaseTimer::global().reset();
  const auto t0 = std::chrono::steady_clock::now();
  {
    PhaseScope outer(kPhaseCapture);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      PhaseScope inner(kPhaseStoreIo);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto snap = PhaseTimer::global().snapshot();
  ASSERT_EQ(snap.size(), 2u);  // name-sorted: capture, store-io
  EXPECT_EQ(snap[0].first, kPhaseCapture);
  EXPECT_EQ(snap[1].first, kPhaseStoreIo);
  const PhaseStat& outer = snap[0].second;
  const PhaseStat& inner = snap[1].second;
  EXPECT_EQ(outer.entries, 1u);
  EXPECT_EQ(inner.entries, 1u);
  // Self-time: the outer phase excludes the inner scope's 20 ms.
  EXPECT_GE(inner.seconds, 0.015);
  EXPECT_GE(outer.seconds, 0.030);
  EXPECT_LT(outer.seconds, wall - inner.seconds + 0.005);
  // The phases partition the wall time of the instrumented region.
  EXPECT_LE(PhaseTimer::global().total_seconds(), wall + 0.005);
  EXPECT_GE(PhaseTimer::global().total_seconds(), 0.9 * (wall - 0.005));
  PhaseTimer::global().reset();
  EXPECT_TRUE(PhaseTimer::global().snapshot().empty());
}

TEST(PhaseTimer, ReenteringAPhaseAccumulates) {
  PhaseTimer::global().reset();
  for (int i = 0; i < 3; ++i) {
    PhaseScope scope(kPhaseTvla);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto snap = PhaseTimer::global().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].second.entries, 3u);
  EXPECT_GE(snap[0].second.seconds, 0.004);
  PhaseTimer::global().reset();
}

// ---------------------------------------------------------- PerfCounters --

TEST(PerfCounters, ReadMatchesAvailability) {
  PerfCounters& pc = PerfCounters::global();
  const PerfSample a = pc.read();
  EXPECT_EQ(a.valid, pc.available());
  if (!pc.available()) {
    // Portable fallback: reads are cleanly invalid, never garbage.
    EXPECT_FALSE(PerfSample::delta(a, a).valid);
    return;
  }
  // Burn some cycles so the counters move.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const PerfSample b = pc.read();
  ASSERT_TRUE(b.valid);
  const PerfSample d = PerfSample::delta(a, b);
  ASSERT_TRUE(d.valid);
  // cycles and instructions strictly advance across a busy loop.
  EXPECT_GT(d.values[0], 0u);
  EXPECT_GT(d.values[1], 0u);
}

TEST(PerfCounters, DeltaInvalidatesOnInvalidEndpoints) {
  PerfSample invalid;  // default: valid == false
  PerfSample valid;
  valid.valid = true;
  EXPECT_FALSE(PerfSample::delta(invalid, valid).valid);
  EXPECT_FALSE(PerfSample::delta(valid, invalid).valid);
}

// ------------------------------------------- schema 3 + artifact routing --

TEST(BenchReportSchema3, PhasesBlockRoundTripsThroughParser) {
  PhaseTimer::global().reset();
  {
    PhaseScope scope(kPhaseCpaKernel);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  RunManifest report("hb_schema3");
  report.metric("answer", 42.0, "");
  const std::string body = report.to_json();
  const json::Value doc = json::parse(body);
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("schema_version"), nullptr);
  EXPECT_EQ(doc.find("schema_version")->num, 3.0);
  const json::Value* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_object());
  const json::Value* kernel = phases->find(kPhaseCpaKernel);
  ASSERT_NE(kernel, nullptr);
  EXPECT_GE(kernel->find("seconds")->num, 0.004);
  EXPECT_EQ(kernel->find("entries")->num, 1.0);
  // Counter keys appear iff the hardware path is live.
  EXPECT_EQ(kernel->find("cycles") != nullptr,
            PerfCounters::global().available());

  // And the diff side sees the flattened phase metric.
  const Artifact art = parse_artifact(body);
  ASSERT_TRUE(art.metrics.count("phase.cpa-kernel_seconds"));
  EXPECT_EQ(art.metrics.at("phase.cpa-kernel_seconds").unit, "s");
  PhaseTimer::global().reset();
}

TEST(ArtifactRouting, AllFourArtifactKindsLandUnderBenchDir) {
  const std::string dir = test::scratch_path("routing_dir");
  EnvGuard guard("RFTC_BENCH_DIR", dir);

  // 1+2: bench report JSON and the runs/ manifest.
  RunManifest report("hb_routing");
  report.metric("answer", 1.0, "");
  EXPECT_EQ(report.write(), dir + "/BENCH_hb_routing.json");
  EXPECT_TRUE(std::filesystem::exists(dir + "/BENCH_hb_routing.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/runs/hb_routing.jsonl"));

  // 3: a trace-sink artifact written through the shared router.
  EXPECT_EQ(write_artifact("trace.json", "[]\n"), dir + "/trace.json");
  EXPECT_TRUE(std::filesystem::exists(dir + "/trace.json"));
  // Nested relative paths create their parents.
  EXPECT_EQ(write_artifact("sub/metrics.json", "{}\n"),
            dir + "/sub/metrics.json");
  EXPECT_TRUE(std::filesystem::exists(dir + "/sub/metrics.json"));
  // Absolute paths bypass the routing.
  const std::string abs = test::scratch_path("absolute.json");
  EXPECT_EQ(write_artifact(abs, "{}\n"), abs);
  std::filesystem::remove(abs);

  // 4: the heartbeat sink.
  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  ASSERT_TRUE(sampler.configure("heartbeat.jsonl"));
  EXPECT_EQ(sampler.path(), dir + "/heartbeat.jsonl");
  ASSERT_TRUE(sampler.tick_now());
  EXPECT_TRUE(std::filesystem::exists(dir + "/heartbeat.jsonl"));
  EXPECT_EQ(read_heartbeats(dir + "/heartbeat.jsonl").size(), 1u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rftc::obs
