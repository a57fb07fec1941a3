#include "obs/obs.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "obs/log.hpp"
#include "obs/postmortem.hpp"
#include "obs/run_manifest.hpp"
#include "obs/sampler.hpp"

namespace rftc::obs {

namespace {

struct SinkConfig {
  std::string trace_path;
  std::string metrics_dest;
  bool heartbeat = false;
  bool any() const {
    return !trace_path.empty() || !metrics_dest.empty() || heartbeat;
  }
};

SinkConfig& sinks() {
  static SinkConfig* c = new SinkConfig;
  return *c;
}

std::once_flag g_init_once;

void init_impl() {
  log::init_from_env();  // RFTC_LOG / RFTC_LOG_FILE
  install_postmortem_from_env();
  SinkConfig& c = sinks();
  if (const char* p = std::getenv("RFTC_OBS_TRACE")) c.trace_path = p;
  if (const char* p = std::getenv("RFTC_OBS_METRICS")) c.metrics_dest = p;
  if (!c.trace_path.empty()) Tracer::global().set_enabled(true);
  if (const char* spec = std::getenv("RFTC_OBS_HEARTBEAT")) {
    std::string path;
    std::chrono::milliseconds interval{};
    HeartbeatSampler& sampler = HeartbeatSampler::global();
    if (HeartbeatSampler::parse_spec(spec, path, interval) &&
        sampler.configure(path, interval) && sampler.start()) {
      c.heartbeat = true;
    } else {
      log::warn("obs",
                "invalid RFTC_OBS_HEARTBEAT spec (want <path>[:interval_ms])",
                {log::kv("spec", std::string_view(spec))});
    }
  }
  if (c.any()) std::atexit([] { flush(); });
}

}  // namespace

void init_from_env() { std::call_once(g_init_once, init_impl); }

bool trace_enabled() {
  init_from_env();
  return Tracer::global().enabled();
}

std::string write_artifact(const std::string& path_spec,
                           const std::string& content) {
  const std::string path = resolve_artifact_path(path_spec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log::error("obs", "cannot open artifact for writing",
               {log::kv("path", path)});
    return "";
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

void flush() {
  init_from_env();
  const SinkConfig& c = sinks();
  // Losing flight-recorder events must be visible: surface the drop count
  // as a gauge (exported with the metrics below).  The tracer itself warns
  // once, at record time, when the first drop happens.
  Registry::global()
      .gauge("obs.trace.dropped_events")
      .set(static_cast<double>(Tracer::global().dropped()));
  if (c.heartbeat) {
    // One last snapshot so the heartbeat's final line reflects the state
    // the other sinks are about to export.
    HeartbeatSampler& sampler = HeartbeatSampler::global();
    if (sampler.running())
      sampler.stop();  // stops the thread and writes the final tick
    else
      sampler.tick_now();
  }
  if (!c.trace_path.empty())
    write_artifact(c.trace_path, Tracer::global().chrome_json());
  if (!c.metrics_dest.empty()) {
    if (c.metrics_dest == "stderr") {
      Registry::global().write_text(stderr);
    } else if (c.metrics_dest == "stdout") {
      Registry::global().write_text(stdout);
    } else {
      write_artifact(c.metrics_dest, Registry::global().to_json() + "\n");
    }
  }
}

}  // namespace rftc::obs
