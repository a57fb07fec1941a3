#include "obs/run_manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "obs/json.hpp"
#include "obs/log.hpp"
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
  // Knob defaults mirror par::thread_count() / CpaEngine::default_mode();
  // re-read from the environment because obs sits below rftc_util in the
  // link order (see BenchReport).  The tile size shares its reader with
  // CpaEngine::default_batch_size().
  const char* mode = std::getenv("RFTC_CPA_MODE");
  p.cpa_mode = mode != nullptr && std::string_view(mode) == "streaming"
                   ? "streaming"
                   : "batched";
  const std::size_t hw = std::thread::hardware_concurrency();
  p.threads = env::read_count("RFTC_THREADS", hw > 0 ? hw : 1);
  p.batch = env::cpa_batch();
  return p;
}

std::string Provenance::to_json() const {
  std::string out = "{";
  out += "\"git_sha\": " + json::quote(git_sha);
  out += ", \"build_type\": " + json::quote(build_type);
  out += ", \"cpa_mode\": " + json::quote(cpa_mode);
  out += ", \"threads\": " + json::number(static_cast<double>(threads));
  out += ", \"batch\": " + json::number(static_cast<double>(batch));
  // Quoted: 64-bit seeds do not survive a round-trip through a JSON
  // number (double), and provenance is compared as text anyway.
  out += ", \"seed\": " + json::quote(std::to_string(seed));
  out += "}";
  return out;
}

RunManifest::RunManifest(std::string name, Provenance provenance)
    : name_(std::move(name)), provenance_(std::move(provenance)) {}

void RunManifest::checkpoint(CheckpointRecord record) {
  records_.push_back(std::move(record));
}

void RunManifest::checkpoint(
    std::string_view stream, double n,
    std::vector<std::pair<std::string, double>> values) {
  records_.push_back(
      {std::string(stream), n, std::move(values)});
}

void RunManifest::final_metric(const std::string& key, double value,
                               std::string unit) {
  finals_.emplace_back(key, std::make_pair(value, std::move(unit)));
}

std::vector<std::string> RunManifest::lines() const {
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
                    json::number(wall_seconds_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < finals_.size(); ++i) {
    if (i > 0) fin += ", ";
    fin += json::quote(finals_[i].first) +
           ": {\"value\": " + json::number(finals_[i].second.first) +
           ", \"unit\": " + json::quote(finals_[i].second.second) + "}";
  }
  fin += "}}";
  out.push_back(std::move(fin));
  return out;
}

std::string RunManifest::path() const {
  return artifact_dir() + "/runs/" + name_ + ".jsonl";
}

std::string RunManifest::write() const {
  const std::string p = path();
  std::error_code ec;
  std::filesystem::create_directories(artifact_dir() + "/runs", ec);
  std::FILE* f = std::fopen(p.c_str(), "w");
  if (f == nullptr) {
    log::error("obs", "RunManifest: cannot write manifest",
               {log::kv("path", p)});
    return "";
  }
  for (const std::string& line : lines()) {
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
  return p;
}

}  // namespace rftc::obs
