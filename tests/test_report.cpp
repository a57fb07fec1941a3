// Run manifests and artifact diffing (docs/OBSERVABILITY.md): JSONL record
// layout, RFTC_BENCH_DIR routing, and the rftc-report drift comparator's
// tolerance classes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/report_diff.hpp"
#include "obs/run_manifest.hpp"
#include "scratch.hpp"

namespace rftc::obs {
namespace {

class BenchDirGuard {
 public:
  explicit BenchDirGuard(const std::string& dir) {
    const char* old = std::getenv("RFTC_BENCH_DIR");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv("RFTC_BENCH_DIR", dir.c_str(), 1);
  }
  ~BenchDirGuard() {
    if (had_) {
      ::setenv("RFTC_BENCH_DIR", saved_.c_str(), 1);
    } else {
      ::unsetenv("RFTC_BENCH_DIR");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

RunManifest sample_manifest() {
  Provenance prov;
  prov.git_sha = "abc123";
  prov.build_type = "Release";
  prov.threads = 4;
  prov.batch = 64;
  prov.seed = 0xDEADBEEFDEADBEEFULL;  // needs full 64-bit round-trip
  RunManifest m("sample", prov);
  m.checkpoint("tvla", 100, {{"max_abs_t", 2.5}, {"leaking_samples", 0}});
  m.checkpoint("tvla", 1000, {{"max_abs_t", 4.0}, {"leaking_samples", 2}});
  m.metric("max_abs_t", 4.0, "|t|");
  m.metric("wall_hint_seconds", 12.0, "s");
  return m;
}

std::string joined(const RunManifest& m) {
  std::string out;
  for (const std::string& line : m.lines()) out += line + "\n";
  return out;
}

TEST(RunManifest, LinesAreHeaderCheckpointsFinal) {
  const RunManifest m = sample_manifest();
  const std::vector<std::string> lines = m.lines();
  ASSERT_EQ(lines.size(), 4u);  // header + 2 checkpoints + final
  EXPECT_NE(lines.front().find("\"kind\": \"header\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"manifest_version\": 1"), std::string::npos);
  EXPECT_NE(lines.front().find("\"seed\": \"16045690984833335023\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\": \"checkpoint\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"kind\": \"final\""), std::string::npos);
}

TEST(RunManifest, ParsesBackIntoAnArtifact) {
  const Artifact art = parse_artifact(joined(sample_manifest()));
  EXPECT_EQ(art.name, "sample");
  EXPECT_EQ(art.format, "manifest");
  EXPECT_EQ(art.provenance.at("git_sha"), "abc123");
  EXPECT_EQ(art.provenance.at("seed"), "16045690984833335023");
  ASSERT_TRUE(art.metrics.count("max_abs_t"));
  EXPECT_DOUBLE_EQ(art.metrics.at("max_abs_t").value, 4.0);
  ASSERT_TRUE(art.checkpoints.count("tvla@1000"));
  EXPECT_DOUBLE_EQ(art.checkpoints.at("tvla@1000").at("max_abs_t"), 4.0);
}

TEST(RunManifest, WritesUnderRftcBenchDir) {
  const std::string dir = test::scratch_path("manifest");
  BenchDirGuard guard(dir);
  const RunManifest m = sample_manifest();
  EXPECT_EQ(m.path(), dir + "/runs/sample.jsonl");
  EXPECT_EQ(m.write(), dir + "/BENCH_sample.json");
  EXPECT_TRUE(std::filesystem::exists(m.path()));
  std::filesystem::remove_all(dir);
}

TEST(BenchReport, WritesReportAndManifestUnderRftcBenchDir) {
  const std::string dir = test::scratch_path("bench");
  BenchDirGuard guard(dir);
  RunManifest report("routing");
  report.seed(7);
  report.metric("answer", 42.0, "");
  EXPECT_EQ(report.write(), dir + "/BENCH_routing.json");
  EXPECT_TRUE(std::filesystem::exists(dir + "/BENCH_routing.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/runs/routing.jsonl"));

  std::ifstream in(dir + "/BENCH_routing.json");
  std::ostringstream ss;
  ss << in.rdbuf();
  const Artifact art = parse_artifact(ss.str());
  EXPECT_EQ(art.format, "bench");
  EXPECT_EQ(art.provenance.at("seed"), "7");
  EXPECT_DOUBLE_EQ(art.metrics.at("answer").value, 42.0);
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------------- diff

TEST(ReportDiff, IdenticalArtifactsHaveZeroDrift) {
  const Artifact art = parse_artifact(joined(sample_manifest()));
  const DiffResult res = diff_artifacts(art, art);
  EXPECT_FALSE(res.regression);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_GT(res.compared, 0u);
}

TEST(ReportDiff, PerturbedValueMetricRegresses) {
  const Artifact baseline = parse_artifact(joined(sample_manifest()));
  Artifact candidate = baseline;
  candidate.metrics["max_abs_t"].value = 4.0 * 1.10;  // 10% > default 5%
  const DiffResult res = diff_artifacts(candidate, baseline);
  EXPECT_TRUE(res.regression);
  ASSERT_FALSE(res.failures.empty());
  EXPECT_NE(res.failures.front().find("max_abs_t"), std::string::npos);

  DiffOptions loose;
  loose.tolerance = 0.25;
  EXPECT_FALSE(diff_artifacts(candidate, baseline, loose).regression);

  DiffOptions per_metric;
  per_metric.per_metric["max_abs_t"] = 0.25;
  EXPECT_FALSE(diff_artifacts(candidate, baseline, per_metric).regression);
}

TEST(ReportDiff, PerturbedCheckpointRegresses) {
  const Artifact baseline = parse_artifact(joined(sample_manifest()));
  Artifact candidate = baseline;
  candidate.checkpoints["tvla@1000"]["max_abs_t"] = 5.0;
  const DiffResult res = diff_artifacts(candidate, baseline);
  EXPECT_TRUE(res.regression);
}

TEST(ReportDiff, TimingMetricsOnlyBoundTheRatio) {
  const Artifact baseline = parse_artifact(joined(sample_manifest()));
  Artifact candidate = baseline;
  // wall_hint_seconds carries unit "s": 2x slower stays under the default
  // 3x timing factor even though 100% drift dwarfs the 5% value tolerance.
  candidate.metrics["wall_hint_seconds"].value = 24.0;
  candidate.metrics["wall_seconds"].value =
      baseline.metrics.at("wall_seconds").value * 2.0;
  EXPECT_FALSE(diff_artifacts(candidate, baseline).regression);

  candidate.metrics["wall_hint_seconds"].value = 48.0;  // 4x: regression
  EXPECT_TRUE(diff_artifacts(candidate, baseline).regression);

  DiffOptions generous;
  generous.timing_factor = 10.0;
  EXPECT_FALSE(diff_artifacts(candidate, baseline, generous).regression);
}

TEST(ReportDiff, MissingMetricFailsUnlessAllowed) {
  const Artifact baseline = parse_artifact(joined(sample_manifest()));
  Artifact candidate = baseline;
  candidate.metrics.erase("max_abs_t");
  EXPECT_TRUE(diff_artifacts(candidate, baseline).regression);

  DiffOptions allow;
  allow.fail_on_missing = false;
  EXPECT_FALSE(diff_artifacts(candidate, baseline, allow).regression);

  // A NEW metric in the candidate is informational, never a failure.
  Artifact extra = baseline;
  extra.metrics["brand_new"] = {1.0, ""};
  const DiffResult res = diff_artifacts(extra, baseline);
  EXPECT_FALSE(res.regression);
}

TEST(ReportDiff, IgnoredKeysNeverFail) {
  const Artifact baseline = parse_artifact(joined(sample_manifest()));
  Artifact candidate = baseline;
  candidate.metrics["threads"] = {64.0, "threads"};
  candidate.metrics["batch"] = {1.0, "traces"};
  EXPECT_FALSE(diff_artifacts(candidate, baseline).regression);

  DiffOptions opts;
  opts.ignore.push_back("max_abs_t");
  candidate.metrics["max_abs_t"].value = 100.0;
  EXPECT_FALSE(diff_artifacts(candidate, baseline, opts).regression);
}

TEST(ReportDiff, BenchJsonRoundTrips) {
  RunManifest report("bench_diff");
  report.seed(3);
  report.metric("figure", 1.25, "x");
  report.metric("elapsed", 2.0, "s");
  report.throughput(1000.0, "traces/s");
  const Artifact a = parse_artifact(report.to_json());
  EXPECT_EQ(a.format, "bench");
  EXPECT_EQ(a.name, "bench_diff");
  EXPECT_DOUBLE_EQ(a.metrics.at("figure").value, 1.25);
  // Self-diff of a bench document: zero drift.
  const DiffResult self = diff_artifacts(a, a);
  EXPECT_FALSE(self.regression);

  Artifact b = a;
  b.metrics["figure"].value = 2.0;
  EXPECT_TRUE(diff_artifacts(b, a).regression);
  // Timing keys ("elapsed" unit s, throughput rate) tolerate big swings.
  Artifact c = a;
  c.metrics["elapsed"].value = 5.0;
  c.metrics["throughput"].value = 2500.0;
  EXPECT_FALSE(diff_artifacts(c, a).regression);
}

TEST(ReportDiff, TimingUnitClassifier) {
  EXPECT_TRUE(is_timing_unit("anything", "s"));
  EXPECT_TRUE(is_timing_unit("anything", "ms"));
  EXPECT_TRUE(is_timing_unit("anything", "us"));
  EXPECT_TRUE(is_timing_unit("anything", "ns"));
  EXPECT_TRUE(is_timing_unit("throughput", "traces/s"));
  EXPECT_TRUE(is_timing_unit("wall_seconds", ""));
  EXPECT_TRUE(is_timing_unit("serial_seconds", "s"));
  // Hardware counters (schema 3 per-phase cycles etc.) are machine-scaled.
  EXPECT_TRUE(is_timing_unit("phase.cpa-kernel.cycles", "events"));
  EXPECT_FALSE(is_timing_unit("max_abs_t", "|t|"));
  EXPECT_FALSE(is_timing_unit("speedup_vs_serial", "x"));
}

TEST(ReportDiff, Schema3PhasesFlattenIntoMetrics) {
  const std::string doc = R"({
  "schema_version": 3,
  "name": "phased",
  "wall_seconds": 10.0,
  "throughput": {"value": 100.0, "unit": "traces/s"},
  "phases": {
    "capture": {"seconds": 6.0, "entries": 3},
    "cpa-kernel": {"seconds": 3.5, "entries": 7,
                   "cycles": 123456, "instructions": 654321}
  },
  "metrics": {"answer": {"value": 42.0, "unit": ""}},
  "notes": {}
})";
  const Artifact art = parse_artifact(doc);
  ASSERT_TRUE(art.metrics.count("phase.capture_seconds"));
  EXPECT_DOUBLE_EQ(art.metrics.at("phase.capture_seconds").value, 6.0);
  EXPECT_EQ(art.metrics.at("phase.capture_seconds").unit, "s");
  ASSERT_TRUE(art.metrics.count("phase.cpa-kernel.cycles"));
  EXPECT_DOUBLE_EQ(art.metrics.at("phase.cpa-kernel.cycles").value, 123456.0);
  EXPECT_EQ(art.metrics.at("phase.cpa-kernel.cycles").unit, "events");
  // "entries" is bookkeeping, not a gated metric.
  EXPECT_FALSE(art.metrics.count("phase.capture.entries"));

  // Phase seconds and counters diff as timing class: a big swing passes...
  Artifact faster = art;
  faster.metrics["phase.capture_seconds"].value = 4.0;
  faster.metrics["phase.cpa-kernel.cycles"].value = 200000.0;
  EXPECT_FALSE(diff_artifacts(faster, art).regression);
  // ...but beyond the timing factor it regresses.
  Artifact slow = art;
  slow.metrics["phase.capture_seconds"].value = 60.0;
  EXPECT_TRUE(diff_artifacts(slow, art).regression);

  // A baseline written before schema 3 (no phases) must keep passing: the
  // candidate-only phase keys are informational notes, not failures.
  const std::string old_doc = R"({
  "schema_version": 2,
  "name": "phased",
  "wall_seconds": 10.0,
  "throughput": {"value": 100.0, "unit": "traces/s"},
  "metrics": {"answer": {"value": 42.0, "unit": ""}},
  "notes": {}
})";
  const Artifact old_art = parse_artifact(old_doc);
  const DiffResult res = diff_artifacts(art, old_art);
  EXPECT_FALSE(res.regression);
  EXPECT_FALSE(res.notes.empty());
}


TEST(ReportDiff, CountMetricsMustMatchExactly) {
  // Seeded event tallies (unit "count") form their own comparator class:
  // any difference is a regression, no matter how small relative drift is.
  Artifact baseline = parse_artifact(joined(sample_manifest()));
  baseline.metrics["fallbacks"] = {1000.0, "count"};
  Artifact candidate = baseline;
  EXPECT_FALSE(diff_artifacts(candidate, baseline).regression);

  // +1 on 1000 events is 0.1% drift — far inside the 5% value tolerance,
  // but counts are exact.
  candidate.metrics["fallbacks"].value = 1001.0;
  const DiffResult res = diff_artifacts(candidate, baseline);
  EXPECT_TRUE(res.regression);
  ASSERT_FALSE(res.failures.empty());
  EXPECT_NE(res.failures.front().find("fallbacks"), std::string::npos);
  EXPECT_NE(res.failures.front().find("must match exactly"),
            std::string::npos);

  // The global value tolerance never relaxes a count...
  DiffOptions loose;
  loose.tolerance = 0.50;
  EXPECT_TRUE(diff_artifacts(candidate, baseline, loose).regression);

  // ...but an explicit per-metric override does (the escape hatch
  // rftc-report exposes as --metric-tol).
  DiffOptions per_metric;
  per_metric.per_metric["fallbacks"] = 0.01;
  EXPECT_FALSE(diff_artifacts(candidate, baseline, per_metric).regression);
}

TEST(ReportDiff, ExactUnitClassifier) {
  EXPECT_TRUE(is_exact_unit("count"));
  EXPECT_FALSE(is_exact_unit("bits"));
  EXPECT_FALSE(is_exact_unit("s"));
  EXPECT_FALSE(is_exact_unit(""));
}

}  // namespace
}  // namespace rftc::obs

