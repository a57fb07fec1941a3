#include "obs/log.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/json.hpp"
#include "obs/run_manifest.hpp"
#include "obs/thread_ring.hpp"
#include "obs/trace_event.hpp"

namespace rftc::obs::log {

namespace {

/// The flight recorder.  Threads past the table's fixed slot count still
/// reach the sinks, they just leave no flight-recorder trail.
using LogRings = RingTable<Record, kLogRingRecords>;

std::atomic<std::uint64_t> g_seq{0};

/// Fast-reject floor: the minimum of the default level and every override.
/// A record below this passes no subsystem's floor, so emit() bails on one
/// relaxed load.
std::atomic<int> g_min_level{static_cast<int>(Level::kInfo)};
std::atomic<bool> g_stderr_on{true};

struct Config {
  std::mutex mu;  // guards spec + the sink file
  LevelSpec spec;
  std::FILE* file = nullptr;
  std::string file_path;
};

Config& config() {
  static Config* c = new Config;  // leaked: usable from atexit handlers
  return *c;
}

void publish_min_level(const LevelSpec& spec) {
  int lo = static_cast<int>(spec.default_level);
  for (const auto& [_, level] : spec.overrides)
    lo = std::min(lo, static_cast<int>(level));
  g_min_level.store(lo, std::memory_order_relaxed);
}

std::once_flag g_env_once;

/// Opens/closes the sink file.  Shared by set_file_sink() and init_impl();
/// must NOT call init_from_env() — init_impl() runs inside the call_once,
/// and re-entering it there deadlocks.
bool set_file_sink_impl(const std::string& path_spec) {
  Config& c = config();
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.file != nullptr) {
    std::fclose(c.file);
    c.file = nullptr;
    c.file_path.clear();
  }
  if (path_spec.empty()) return true;
  const std::string path = resolve_artifact_path(path_spec);
  c.file = std::fopen(path.c_str(), "a");
  if (c.file == nullptr) {
    std::fprintf(stderr, "rftc::obs::log: cannot open log sink %s\n",
                 path.c_str());
    return false;
  }
  c.file_path = path;
  return true;
}

void init_impl() {
  if (const char* spec = std::getenv("RFTC_LOG")) {
    Config& c = config();
    std::lock_guard<std::mutex> lock(c.mu);
    c.spec = parse_spec(spec);
    publish_min_level(c.spec);
  }
  if (const char* path = std::getenv("RFTC_LOG_FILE")) {
    if (path[0] != '\0') set_file_sink_impl(path);
  }
}

/// Renders message + args into `out` (cap bytes incl. NUL); bounded,
/// always NUL-terminated.
void render_text(char* out, std::size_t cap, std::string_view message,
                 std::initializer_list<Arg> args) {
  std::size_t n = std::min(message.size(), cap - 1);
  std::memcpy(out, message.data(), n);
  out[n] = '\0';
  for (const Arg& a : args) {
    if (a.key == nullptr || n + 1 >= cap) break;
    int wrote;
    if (a.is_string) {
      wrote = std::snprintf(out + n, cap - n, " %s=%.*s", a.key,
                            static_cast<int>(a.str.size()), a.str.data());
    } else {
      wrote = std::snprintf(out + n, cap - n, " %s=%.6g", a.key, a.num);
    }
    if (wrote < 0) break;
    n = std::min(n + static_cast<std::size_t>(wrote), cap - 1);
  }
}

/// One JSONL sink line (no trailing newline).
std::string render_json(const Record& rec, std::string_view message,
                        std::initializer_list<Arg> args) {
  std::string out = "{\"ts_ns\":" + std::to_string(rec.ts_ns);
  out += ",\"tid\":" + std::to_string(rec.tid);
  out += ",\"level\":\"";
  out += level_name(rec.level);
  out += "\",\"subsystem\":" + json::quote(rec.subsystem);
  out += ",\"msg\":" + json::quote(message);
  bool any = false;
  for (const Arg& a : args) {
    if (a.key == nullptr) continue;
    out += any ? "," : ",\"args\":{";
    any = true;
    out += json::quote(a.key);
    out += ':';
    out += a.is_string ? json::quote(a.str) : json::number(a.num);
  }
  if (any) out += '}';
  out += '}';
  return out;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kTrace: return "trace";
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: return "off";
  }
  return "?";
}

bool parse_level(std::string_view text, Level& out) {
  for (const Level l : {Level::kTrace, Level::kDebug, Level::kInfo,
                        Level::kWarn, Level::kError, Level::kOff}) {
    if (text == level_name(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

Level LevelSpec::for_subsystem(std::string_view subsystem) const {
  Level level = default_level;
  // Overrides keep spec order, so scanning all of them makes a duplicated
  // key behave as "last one wins".
  for (const auto& [name, l] : overrides)
    if (name == subsystem) level = l;
  return level;
}

LevelSpec parse_spec(std::string_view spec) {
  LevelSpec out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view element =
        spec.substr(pos, (comma == std::string_view::npos ? spec.size()
                                                          : comma) -
                             pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (element.empty()) continue;
    const std::size_t eq = element.find('=');
    Level level;
    if (eq == std::string_view::npos) {
      // Bare element: the default level.  A malformed one is skipped.
      if (parse_level(element, level)) out.default_level = level;
    } else {
      const std::string_view key = element.substr(0, eq);
      // Any subsystem name is accepted — an override for a subsystem that
      // never logs is harmless — but the key must be non-empty and the
      // level must parse.
      if (!key.empty() && parse_level(element.substr(eq + 1), level))
        out.overrides.emplace_back(std::string(key), level);
    }
  }
  return out;
}

void init_from_env() { std::call_once(g_env_once, init_impl); }

void configure(LevelSpec spec) {
  init_from_env();  // settle the env pass first so this call wins
  Config& c = config();
  std::lock_guard<std::mutex> lock(c.mu);
  c.spec = std::move(spec);
  publish_min_level(c.spec);
}

LevelSpec current_spec() {
  init_from_env();
  Config& c = config();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.spec;
}

bool set_file_sink(const std::string& path_spec) {
  init_from_env();
  return set_file_sink_impl(path_spec);
}

std::string file_sink_path() {
  Config& c = config();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.file_path;
}

void set_stderr_sink(bool on) {
  g_stderr_on.store(on, std::memory_order_relaxed);
}

bool enabled(std::string_view subsystem, Level level) {
  init_from_env();
  if (static_cast<int>(level) < g_min_level.load(std::memory_order_relaxed))
    return false;
  Config& c = config();
  std::lock_guard<std::mutex> lock(c.mu);
  return level >= c.spec.for_subsystem(subsystem);
}

void emit(Level level, const char* subsystem, std::string_view message,
          std::initializer_list<Arg> args) {
  if (subsystem == nullptr || level == Level::kOff) return;
  if (!enabled(subsystem, level)) return;

  Record rec;
  rec.seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  rec.ts_ns = Tracer::global().now_ns();
  rec.tid = thread_id();
  rec.level = level;
  std::snprintf(rec.subsystem, sizeof rec.subsystem, "%s", subsystem);
  render_text(rec.text, sizeof rec.text, message, args);

  // Flight recorder first: even if a sink write crashes, the record is in
  // the ring the postmortem dump reads.
  if (LogRings::Ring* ring = LogRings::local()) ring->push(rec);

  Config& c = config();
  std::lock_guard<std::mutex> lock(c.mu);
  if (g_stderr_on.load(std::memory_order_relaxed)) {
    char line[kRecordTextCap + 64];
    std::snprintf(line, sizeof line, "[%9.3fs] %c %-6s %s\n",
                  static_cast<double>(rec.ts_ns) / 1e9,
                  "TDIWE?"[static_cast<int>(level)], subsystem, rec.text);
    std::fputs(line, stderr);
  }
  if (c.file != nullptr) {
    const std::string json_line = render_json(rec, message, args);
    std::fwrite(json_line.data(), 1, json_line.size(), c.file);
    std::fputc('\n', c.file);
    std::fflush(c.file);
  }
}

std::size_t flight_recorder_tail_unsafe(Record* out, std::size_t max) {
  if (out == nullptr || max == 0) return 0;
  std::size_t count = 0;
  // Only a ring's own most recent `max` can make the global tail.
  LogRings::for_each([&](const LogRings::Ring& ring) {
    ring.for_recent(max, [&](const Record& rec) {
      if (rec.seq == 0) return;
      // Keep `out` ascending by seq, holding the largest `max` seen.
      if (count == max) {
        if (rec.seq <= out[0].seq) return;
        std::memmove(out, out + 1, (max - 1) * sizeof(Record));
        --count;
      }
      std::size_t pos = count;
      while (pos > 0 && out[pos - 1].seq > rec.seq) --pos;
      std::memmove(out + pos + 1, out + pos, (count - pos) * sizeof(Record));
      std::memcpy(out + pos, &rec, sizeof(Record));
      ++count;
    });
  });
  return count;
}

std::vector<Record> flight_recorder_tail(std::size_t max) {
  std::vector<Record> out(max);
  out.resize(flight_recorder_tail_unsafe(out.data(), max));
  return out;
}

std::uint64_t records_emitted() {
  return g_seq.load(std::memory_order_relaxed);
}

}  // namespace rftc::obs::log
