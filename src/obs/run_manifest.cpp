#include "obs/run_manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "util/env.hpp"

#ifndef RFTC_GIT_SHA
#define RFTC_GIT_SHA "unknown"
#endif
#ifndef RFTC_BUILD_TYPE
#define RFTC_BUILD_TYPE "unknown"
#endif

namespace rftc::obs {

std::string artifact_dir() {
  const char* dir = std::getenv("RFTC_BENCH_DIR");
  return dir != nullptr && dir[0] != '\0' ? std::string(dir)
                                          : std::string(".");
}

std::string resolve_artifact_path(const std::string& path_spec) {
  const std::filesystem::path p(path_spec);
  const std::filesystem::path resolved =
      p.is_absolute() ? p : std::filesystem::path(artifact_dir()) / p;
  std::error_code ec;
  if (resolved.has_parent_path())
    std::filesystem::create_directories(resolved.parent_path(),
                                        ec);  // best effort; open reports
  return resolved.string();
}

Provenance Provenance::collect() {
  Provenance p;
  p.git_sha = RFTC_GIT_SHA;
  p.build_type = RFTC_BUILD_TYPE;
  // The thread default mirrors par::thread_count(), re-read from the
  // environment rather than asking rftc::par: rftc_util links against
  // rftc_obs, so obs calling into util would be a dependency cycle.  The
  // tile size shares its reader with CpaEngine::default_batch_size().
  const std::size_t hw = std::thread::hardware_concurrency();
  p.threads = env::read_count("RFTC_THREADS", hw > 0 ? hw : 1);
  p.batch = env::cpa_batch();
  return p;
}

std::string Provenance::to_json() const {
  std::string out = "{";
  out += "\"git_sha\": " + json::quote(git_sha);
  out += ", \"build_type\": " + json::quote(build_type);
  out += ", \"threads\": " + json::number(static_cast<double>(threads));
  out += ", \"batch\": " + json::number(static_cast<double>(batch));
  // Quoted: 64-bit seeds do not survive a round-trip through a JSON
  // number (double), and provenance is compared as text anyway.
  out += ", \"seed\": " + json::quote(std::to_string(seed));
  out += "}";
  return out;
}

RunManifest::RunManifest(std::string name, Provenance provenance)
    : name_(std::move(name)),
      provenance_(std::move(provenance)),
      start_(std::chrono::steady_clock::now()) {
  // Benches are the primary profiling targets: make sure the RFTC_OBS_*
  // sinks are armed even if no instrumented code ran yet.
  init_from_env();
  // Every record carries the parallelism configuration it ran under, so
  // artifacts from different machines/settings stay comparable.
  metric("threads", static_cast<double>(provenance_.threads), "threads");
  metric("batch", static_cast<double>(provenance_.batch), "traces");
  // When live telemetry is on, record where the heartbeat went so a reader
  // of the report can find the in-flight record of the same run.
  const HeartbeatSampler& sampler = HeartbeatSampler::global();
  if (sampler.configured()) note("heartbeat", sampler.path());
}

void RunManifest::throughput(double value, std::string unit) {
  throughput_value_ = value;
  throughput_unit_ = std::move(unit);
}

void RunManifest::metric(const std::string& key, double value,
                         std::string unit) {
  metrics_.emplace_back(key, std::make_pair(value, std::move(unit)));
}

void RunManifest::note(const std::string& key, std::string value) {
  notes_.emplace_back(key, std::move(value));
}

void RunManifest::checkpoint(
    std::string_view stream, double n,
    std::vector<std::pair<std::string, double>> values) {
  records_.push_back({std::string(stream), n, std::move(values)});
}

double RunManifest::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

namespace {

/// {"value": v, "unit": "u"}
std::string metric_json(double value, const std::string& unit) {
  return "{\"value\": " + json::number(value) +
         ", \"unit\": " + json::quote(unit) + "}";
}

}  // namespace

std::string RunManifest::to_json() const {
  return to_json(elapsed_seconds(), PhaseTimer::global().snapshot());
}

std::string RunManifest::to_json(double wall, const Phases& phases) const {
  std::string out = "{\n";
  out += "  \"schema_version\": 3,\n";
  out += "  \"name\": " + json::quote(name_) + ",\n";
  out += "  \"wall_seconds\": " + json::number(wall) + ",\n";
  out += "  \"throughput\": " +
         metric_json(throughput_value_, throughput_unit_) + ",\n";
  out += "  \"phases\": {";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& [pname, stat] = phases[i];
    if (i > 0) out += ',';
    out += "\n    " + json::quote(pname) +
           ": {\"seconds\": " + json::number(stat.seconds) +
           ", \"entries\": " + std::to_string(stat.entries);
    if (stat.has_events) {
      for (int e = 0; e < kPerfEventCount; ++e)
        out += ", " + json::quote(kPerfEventNames[e]) + ": " +
               std::to_string(stat.events[static_cast<std::size_t>(e)]);
    }
    out += "}";
  }
  out += phases.empty() ? "},\n" : "\n  },\n";
  out += "  \"provenance\": " + provenance_.to_json() + ",\n";
  out += "  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    " + json::quote(metrics_[i].first) + ": " +
           metric_json(metrics_[i].second.first, metrics_[i].second.second);
  }
  out += metrics_.empty() ? "},\n" : "\n  },\n";
  out += "  \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    " + json::quote(notes_[i].first) + ": " +
           json::quote(notes_[i].second);
  }
  out += notes_.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::vector<std::string> RunManifest::lines() const {
  return lines(elapsed_seconds(), PhaseTimer::global().snapshot());
}

std::vector<std::string> RunManifest::lines(double wall,
                                            const Phases& phases) const {
  std::vector<std::string> out;
  out.reserve(records_.size() + 2);
  out.push_back("{\"kind\": \"header\", \"manifest_version\": " +
                std::to_string(kManifestVersion) +
                ", \"name\": " + json::quote(name_) +
                ", \"provenance\": " + provenance_.to_json() + "}");
  for (const CheckpointRecord& r : records_) {
    std::string line = "{\"kind\": \"checkpoint\", \"stream\": " +
                       json::quote(r.stream) +
                       ", \"n\": " + json::number(r.n) + ", \"values\": {";
    for (std::size_t i = 0; i < r.values.size(); ++i) {
      if (i > 0) line += ", ";
      line += json::quote(r.values[i].first) + ": " +
              json::number(r.values[i].second);
    }
    line += "}}";
    out.push_back(std::move(line));
  }
  std::string fin = "{\"kind\": \"final\", \"wall_seconds\": " +
                    json::number(wall) + ", \"metrics\": {\"throughput\": " +
                    metric_json(throughput_value_, throughput_unit_);
  for (const auto& [key, m] : metrics_)
    fin += ", " + json::quote(key) + ": " + metric_json(m.first, m.second);
  for (const auto& [pname, stat] : phases)
    fin += ", " + json::quote("phase." + pname + "_seconds") + ": " +
           metric_json(stat.seconds, "s");
  fin += "}}";
  out.push_back(std::move(fin));
  return out;
}

std::string RunManifest::path() const {
  return artifact_dir() + "/runs/" + name_ + ".jsonl";
}

std::string RunManifest::write() const {
  const double wall = elapsed_seconds();
  const Phases phases = PhaseTimer::global().snapshot();
  const std::string report =
      write_artifact("BENCH_" + name_ + ".json", to_json(wall, phases));
  if (report.empty()) return "";
  std::printf("\n[bench-report] wrote %s\n", report.c_str());
  std::string records;
  for (const std::string& line : lines(wall, phases)) records += line + '\n';
  const std::string manifest =
      write_artifact("runs/" + name_ + ".jsonl", records);
  if (manifest.empty()) return "";
  std::printf("[bench-report] wrote %s\n", manifest.c_str());
  return report;
}

}  // namespace rftc::obs
