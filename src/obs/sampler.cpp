#include "obs/sampler.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/run_manifest.hpp"
#include "obs/trace_event.hpp"

namespace rftc::obs {

void set_campaign_total(double traces) {
  Registry::global().gauge("campaign.total_traces").set(traces);
}

void add_campaign_total(double traces) {
  Gauge& g = Registry::global().gauge("campaign.total_traces");
  g.set(g.value() + traces);
}

namespace {

struct CheckpointState {
  std::mutex mu;
  bool has = false;
  std::string stream;
  double n = 0.0;
  std::vector<std::pair<std::string, double>> values;
};

CheckpointState& checkpoint_state() {
  static CheckpointState* s = new CheckpointState;
  return *s;
}

struct SamplerState {
  std::mutex mu;  // guards everything below plus the sink file
  std::string path;
  std::chrono::milliseconds interval = HeartbeatSampler::kDefaultInterval;
  std::FILE* file = nullptr;
  std::uint64_t seq = 0;
  std::chrono::steady_clock::time_point start_time{};
  double prev_elapsed = 0.0;
  double prev_captured = 0.0;
  std::thread worker;
  std::condition_variable cv;
  bool running = false;
  bool stop_requested = false;
};

SamplerState& state() {
  static SamplerState* s = new SamplerState;
  return *s;
}

// Seqlock publication of the latest heartbeat line for the crash path:
// odd version = writer mid-copy, even = stable.  Static storage only, so
// a signal handler can read it with loads, memcpy and a fence.
constexpr std::size_t kLastLineCap = 16384;
char g_last_line[kLastLineCap];
std::atomic<std::uint32_t> g_last_line_version{0};
std::atomic<std::size_t> g_last_line_len{0};

void publish_last_line(const std::string& line) {
  const std::uint32_t v = g_last_line_version.load(std::memory_order_relaxed);
  g_last_line_version.store(v + 1, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_release);
  const std::size_t n = std::min(line.size(), kLastLineCap - 1);
  std::memcpy(g_last_line, line.data(), n);
  g_last_line[n] = '\0';
  g_last_line_len.store(n, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  g_last_line_version.store(v + 2, std::memory_order_release);
}

/// One snapshot line (without the trailing newline).  Caller holds s.mu.
std::string build_line(SamplerState& s, double elapsed) {
  Registry& reg = Registry::global();
  const double captured =
      static_cast<double>(reg.counter("trace.traces_captured").value());
  const double attacked =
      static_cast<double>(reg.counter("analysis.traces_attacked").value());
  const double total = reg.gauge("campaign.total_traces").value();

  // Throughput over the last inter-tick window (whole-run average on the
  // first tick), which is what a live dashboard wants: current pace, not
  // the mean over a run whose early phases were different.
  double throughput = 0.0;
  const double dt = elapsed - s.prev_elapsed;
  if (s.seq > 0 && dt > 0.0)
    throughput = (captured - s.prev_captured) / dt;
  else if (elapsed > 0.0)
    throughput = captured / elapsed;
  const double fraction =
      total > 0.0 ? std::min(1.0, captured / total) : 0.0;
  // ETA sentinel discipline: -1 means "unknown".  A near-zero throughput
  // against a huge remaining total divides to absurd or non-finite values
  // (inf/nan would even break strict-JSON consumers via json::number's
  // null), so anything beyond ~30 years is reported as unknown rather than
  // as a number no dashboard can render.  0 keeps its meaning of "done".
  constexpr double kEtaUnknown = -1.0;
  constexpr double kEtaCapSeconds = 1e9;
  double eta = kEtaUnknown;
  if (total > 0.0 && captured >= total) {
    eta = 0.0;
  } else if (throughput > 0.0 && total > captured) {
    eta = (total - captured) / throughput;
    if (!std::isfinite(eta) || eta > kEtaCapSeconds) eta = kEtaUnknown;
  }

  const Tracer& tracer = Tracer::global();

  std::string out = "{\"heartbeat_schema\":";
  out += std::to_string(kHeartbeatSchema);
  out += ",\"seq\":" + std::to_string(s.seq + 1);
  out += ",\"elapsed_seconds\":" + json::number(elapsed);
  out += ",\"interval_ms\":" +
         json::number(static_cast<double>(s.interval.count()));
  out += ",\"progress\":{\"captured\":" + json::number(captured);
  out += ",\"attacked\":" + json::number(attacked);
  out += ",\"total\":" + json::number(total);
  out += ",\"fraction\":" + json::number(fraction);
  out += ",\"throughput_per_s\":" + json::number(throughput);
  out += ",\"eta_seconds\":" + json::number(eta) + "}";
  out += ",\"rss\":{\"current_bytes\":" +
         json::number(static_cast<double>(current_rss_bytes()));
  out += ",\"peak_bytes\":" +
         json::number(static_cast<double>(peak_rss_bytes())) + "}";
  out += ",\"tracer\":{\"recorded\":" +
         json::number(static_cast<double>(tracer.recorded()));
  out += ",\"dropped\":" +
         json::number(static_cast<double>(tracer.dropped())) + "}";
  {
    CheckpointState& cp = checkpoint_state();
    std::lock_guard<std::mutex> lock(cp.mu);
    if (cp.has) {
      out += ",\"checkpoint\":{\"stream\":" + json::quote(cp.stream);
      out += ",\"n\":" + json::number(cp.n);
      out += ",\"values\":{";
      for (std::size_t i = 0; i < cp.values.size(); ++i) {
        if (i > 0) out += ',';
        out += json::quote(cp.values[i].first) + ':' +
               json::number(cp.values[i].second);
      }
      out += "}}";
    }
  }
  out += ",\"metrics\":" + reg.to_json();
  out += "}";

  s.prev_elapsed = elapsed;
  s.prev_captured = captured;
  return out;
}

/// Appends one snapshot and fsyncs it.  Caller holds s.mu.
bool tick_locked(SamplerState& s) {
  if (s.path.empty()) return false;
  if (s.file == nullptr) {
    s.file = std::fopen(s.path.c_str(), "a");
    if (s.file == nullptr) {
      log::error("obs", "cannot open heartbeat sink",
                 {log::kv("path", s.path)});
      s.path.clear();  // do not retry every tick
      return false;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    s.start_time)
          .count();
  const std::string line = build_line(s, elapsed);
  publish_last_line(line);
  if (std::fwrite(line.data(), 1, line.size(), s.file) != line.size() ||
      std::fputc('\n', s.file) == EOF)
    return false;
  // Crash tolerance: every completed tick must survive a SIGKILL, so the
  // line is flushed to the fd and the fd synced before we return.
  std::fflush(s.file);
  ::fsync(::fileno(s.file));
  ++s.seq;
  return true;
}

}  // namespace

void publish_checkpoint(std::string stream, double n,
                        std::vector<std::pair<std::string, double>> values) {
  CheckpointState& cp = checkpoint_state();
  std::lock_guard<std::mutex> lock(cp.mu);
  cp.has = true;
  cp.stream = std::move(stream);
  cp.n = n;
  cp.values = std::move(values);
}

HeartbeatSampler& HeartbeatSampler::global() {
  static HeartbeatSampler* s = new HeartbeatSampler;
  return *s;
}

bool HeartbeatSampler::parse_spec(std::string_view spec, std::string& path,
                                  std::chrono::milliseconds& interval) {
  interval = kDefaultInterval;
  std::string_view p = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string_view::npos && colon + 1 < spec.size()) {
    const std::string_view suffix = spec.substr(colon + 1);
    bool digits = true;
    for (const char c : suffix) digits = digits && c >= '0' && c <= '9';
    if (digits && suffix.size() <= 9) {
      std::uint64_t ms = 0;
      for (const char c : suffix) ms = ms * 10 + static_cast<std::uint64_t>(c - '0');
      if (ms > 0) interval = std::chrono::milliseconds(ms);
      p = spec.substr(0, colon);
    }
  }
  if (p.empty()) return false;
  path = std::string(p);
  return true;
}

bool HeartbeatSampler::configure(std::string path,
                                 std::chrono::milliseconds interval) {
  SamplerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.running || path.empty()) return false;
  if (s.file != nullptr) {
    std::fclose(s.file);
    s.file = nullptr;
  }
  s.path = resolve_artifact_path(path);
  s.interval = interval.count() > 0 ? interval : kDefaultInterval;
  s.seq = 0;
  s.prev_elapsed = 0.0;
  s.prev_captured = 0.0;
  s.start_time = std::chrono::steady_clock::now();
  return true;
}

bool HeartbeatSampler::configured() const {
  SamplerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return !s.path.empty();
}

std::string HeartbeatSampler::path() const {
  SamplerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.path;
}

std::chrono::milliseconds HeartbeatSampler::interval() const {
  SamplerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.interval;
}

bool HeartbeatSampler::start() {
  SamplerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.running || s.path.empty()) return false;
  s.stop_requested = false;
  s.running = true;
  s.worker = std::thread([&s] {
    std::unique_lock<std::mutex> lock(s.mu);
    while (!s.stop_requested) {
      if (s.cv.wait_for(lock, s.interval,
                        [&s] { return s.stop_requested; }))
        break;
      tick_locked(s);
    }
  });
  return true;
}

void HeartbeatSampler::stop() {
  SamplerState& s = state();
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.running) return;
    s.stop_requested = true;
    worker = std::move(s.worker);
  }
  s.cv.notify_all();
  if (worker.joinable()) worker.join();
  std::lock_guard<std::mutex> lock(s.mu);
  s.running = false;
  // Final snapshot so the file's last line reflects the end-of-run state.
  tick_locked(s);
  if (s.file != nullptr) {
    std::fclose(s.file);
    s.file = nullptr;
  }
}

bool HeartbeatSampler::running() const {
  SamplerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.running;
}

bool HeartbeatSampler::tick_now() {
  SamplerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return tick_locked(s);
}

std::uint64_t HeartbeatSampler::ticks() const {
  SamplerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.seq;
}

// ------------------------------------------------------------- read side --

namespace {

double num_or(const json::Value* v, double fallback = 0.0) {
  return v != nullptr && v->is_number() ? v->num : fallback;
}

}  // namespace

std::size_t last_heartbeat_line(char* buf, std::size_t cap) {
  if (buf == nullptr || cap == 0) return 0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint32_t v1 =
        g_last_line_version.load(std::memory_order_acquire);
    if (v1 == 0) return 0;         // no tick yet
    if ((v1 & 1u) != 0) continue;  // writer mid-copy
    const std::size_t len =
        std::min(g_last_line_len.load(std::memory_order_relaxed), cap - 1);
    std::memcpy(buf, g_last_line, len);
    buf[len] = '\0';
    std::atomic_thread_fence(std::memory_order_acquire);
    if (g_last_line_version.load(std::memory_order_relaxed) == v1) return len;
  }
  return 0;
}

bool parse_heartbeat_line(std::string_view line, HeartbeatSnapshot& out) {
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  if (!doc.is_object()) return false;
  const json::Value* schema = doc.find("heartbeat_schema");
  if (schema == nullptr ||
      json::as_uint(*schema) != static_cast<std::uint64_t>(kHeartbeatSchema))
    return false;
  std::uint64_t seq = 0;
  if (const json::Value* v = doc.find("seq")) {
    const auto checked = json::as_uint(*v);
    if (!checked) return false;
    seq = *checked;
  }
  out = HeartbeatSnapshot{};
  out.schema = kHeartbeatSchema;
  out.seq = seq;
  out.elapsed_seconds = num_or(doc.find("elapsed_seconds"));
  out.interval_ms = num_or(doc.find("interval_ms"));
  if (const json::Value* p = doc.find("progress"); p && p->is_object()) {
    out.captured = num_or(p->find("captured"));
    out.attacked = num_or(p->find("attacked"));
    out.total = num_or(p->find("total"));
    out.fraction = num_or(p->find("fraction"));
    out.throughput_per_s = num_or(p->find("throughput_per_s"));
    out.eta_seconds = num_or(p->find("eta_seconds"));
  }
  if (const json::Value* r = doc.find("rss"); r && r->is_object()) {
    out.rss_current_bytes = num_or(r->find("current_bytes"));
    out.rss_peak_bytes = num_or(r->find("peak_bytes"));
  }
  if (const json::Value* t = doc.find("tracer"); t && t->is_object()) {
    out.tracer_recorded = num_or(t->find("recorded"));
    out.tracer_dropped = num_or(t->find("dropped"));
  }
  if (const json::Value* cp = doc.find("checkpoint"); cp && cp->is_object()) {
    out.has_checkpoint = true;
    if (const json::Value* st = cp->find("stream"); st && st->is_string())
      out.checkpoint_stream = st->str;
    out.checkpoint_n = num_or(cp->find("n"));
    if (const json::Value* values = cp->find("values");
        values && values->is_object())
      for (const auto& [k, v] : values->object)
        if (v.is_number()) out.checkpoint_values.emplace_back(k, v.num);
  }
  return true;
}

std::string heartbeat_header_row() {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%6s %9s %22s %6s %11s %9s %9s %5s  %s",
                "seq", "elapsed", "captured/total", "pct", "rate", "eta",
                "rss", "drop", "checkpoint");
  return buf;
}

std::string format_heartbeat_row(const HeartbeatSnapshot& cur,
                                 const HeartbeatSnapshot* prev) {
  char progress[32];
  if (cur.total > 0.0)
    std::snprintf(progress, sizeof progress, "%.0f/%.0f", cur.captured,
                  cur.total);
  else
    std::snprintf(progress, sizeof progress, "%.0f/?", cur.captured);
  char pct[16];
  if (cur.total > 0.0)
    std::snprintf(pct, sizeof pct, "%5.1f%%", 100.0 * cur.fraction);
  else
    std::snprintf(pct, sizeof pct, "%6s", "-");
  char eta[16];
  if (cur.eta_seconds > 0.0)
    std::snprintf(eta, sizeof eta, "%8.1fs", cur.eta_seconds);
  else
    std::snprintf(eta, sizeof eta, "%9s", "-");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%6llu %8.1fs %22s %6s %9.1f/s %9s %7.1fM %5.0f",
                static_cast<unsigned long long>(cur.seq),
                cur.elapsed_seconds, progress, pct, cur.throughput_per_s, eta,
                cur.rss_current_bytes / (1024.0 * 1024.0),
                cur.tracer_dropped);
  std::string out = buf;
  if (cur.has_checkpoint) {
    char cp[128];
    std::snprintf(cp, sizeof cp, "  %s@%.0f", cur.checkpoint_stream.c_str(),
                  cur.checkpoint_n);
    out += cp;
    if (!cur.checkpoint_values.empty()) {
      const auto& [key, value] = cur.checkpoint_values.front();
      char kv[96];
      std::snprintf(kv, sizeof kv, " %s=%.4g", key.c_str(), value);
      out += kv;
      // Convergence delta vs the previous snapshot's matching value — the
      // "is |t| still climbing?" signal watch mode exists for.
      if (prev != nullptr && prev->has_checkpoint &&
          prev->checkpoint_stream == cur.checkpoint_stream) {
        for (const auto& [pk, pv] : prev->checkpoint_values) {
          if (pk == key) {
            std::snprintf(kv, sizeof kv, " (%+.3g)", value - pv);
            out += kv;
            break;
          }
        }
      }
    }
  }
  return out;
}

}  // namespace rftc::obs
