// rftc::obs::log — structured, leveled logging for the whole pipeline, plus
// the crash-surviving flight recorder the post-mortem bundle reads.
//
// One emit() produces up to three things:
//   1. a flight-recorder record: a fixed-size POD appended to the calling
//      thread's ring of kLogRingRecords records (obs/thread_ring.hpp, the
//      primitive the event tracer uses too).  Rings are never freed and
//      are registered in a lock-free table, so a crash handler can walk
//      them with nothing but atomic loads (obs/postmortem.hpp does exactly
//      that).  Cheap enough to leave on in release builds.
//   2. a stderr pretty line:  [   12.345s] W clk    message key=value
//   3. a JSONL record on the file sink (RFTC_LOG_FILE), one self-contained
//      JSON object per line:
//        {"ts_ns":123,"tid":1,"level":"warn","subsystem":"clk",
//         "msg":"...","args":{"mmcm":1}}
//
// Environment (read once, lazily, on the first emit or via init_from_env):
//   RFTC_LOG=<level>[,<subsystem>=<level>...]
//       Per-subsystem severity floors, e.g. RFTC_LOG=info,clk=debug,
//       fault=trace.  Levels: trace|debug|info|warn|error|off.  Unknown
//       subsystem names are accepted (an override for a subsystem that
//       never logs is harmless); malformed elements are ignored; duplicate
//       keys — last one wins.  Default when unset: info.
//   RFTC_LOG_FILE=<path>
//       JSONL sink; a relative path lands under RFTC_BENCH_DIR like every
//       other artifact.
//
// Hot-path contract: a disabled emit() costs one relaxed atomic load and a
// compare against the process-wide minimum level (plus a per-subsystem
// lookup only when that floor passes).  Subsystem names and argument keys
// must be string literals or otherwise outlive the call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rftc::obs::log {

enum class Level : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// "trace".."error"/"off".
const char* level_name(Level level);
/// Parses one level token; false (out untouched) on anything else.
bool parse_level(std::string_view text, Level& out);

/// Parsed RFTC_LOG specification.
struct LevelSpec {
  Level default_level = Level::kInfo;
  /// Subsystem overrides in spec order; lookups take the LAST match, so a
  /// duplicated key behaves as "last one wins".
  std::vector<std::pair<std::string, Level>> overrides;

  /// Severity floor for one subsystem (the override when present, the
  /// default otherwise).
  Level for_subsystem(std::string_view subsystem) const;
};

/// Parses "info,clk=debug,fault=trace".  Robust by design: an empty spec
/// yields the defaults, malformed elements (unknown level names, empty
/// subsystem keys) are skipped, and duplicate subsystem keys keep the last
/// occurrence.  Never throws.
LevelSpec parse_spec(std::string_view spec);

/// One key-value argument.  Keys are static strings; string values are
/// copied into the formatted record before emit() returns.
struct Arg {
  const char* key = nullptr;
  bool is_string = false;
  double num = 0.0;
  std::string_view str{};
};
inline Arg kv(const char* key, double value) {
  return {key, false, value, {}};
}
inline Arg kv(const char* key, std::string_view value) {
  return {key, true, 0.0, value};
}

/// Is a record at `level` for `subsystem` currently emitted?  First call
/// performs the environment initialisation.
bool enabled(std::string_view subsystem, Level level);

/// Emits one record (no-op when the subsystem's floor filters it out).
void emit(Level level, const char* subsystem, std::string_view message,
          std::initializer_list<Arg> args = {});

inline void trace(const char* subsystem, std::string_view message,
                  std::initializer_list<Arg> args = {}) {
  emit(Level::kTrace, subsystem, message, args);
}
inline void debug(const char* subsystem, std::string_view message,
                  std::initializer_list<Arg> args = {}) {
  emit(Level::kDebug, subsystem, message, args);
}
inline void info(const char* subsystem, std::string_view message,
                 std::initializer_list<Arg> args = {}) {
  emit(Level::kInfo, subsystem, message, args);
}
inline void warn(const char* subsystem, std::string_view message,
                 std::initializer_list<Arg> args = {}) {
  emit(Level::kWarn, subsystem, message, args);
}
inline void error(const char* subsystem, std::string_view message,
                  std::initializer_list<Arg> args = {}) {
  emit(Level::kError, subsystem, message, args);
}

/// Reads RFTC_LOG / RFTC_LOG_FILE once.  Idempotent,
/// thread-safe, called lazily by enabled()/emit().
void init_from_env();

/// Replaces the level configuration (tests; overrides the environment).
void configure(LevelSpec spec);
/// Current configuration (copy).
LevelSpec current_spec();

/// Opens the JSONL file sink ("" closes it); a relative path lands under
/// RFTC_BENCH_DIR.  Returns false when the file cannot be opened.
bool set_file_sink(const std::string& path_spec);
/// Resolved file-sink path ("" when closed).
std::string file_sink_path();
/// Toggles the stderr pretty sink (on by default).
void set_stderr_sink(bool on);

// ------------------------------------------------------ flight recorder --

inline constexpr std::size_t kSubsystemCap = 16;
/// Records each thread's flight-recorder ring holds.
inline constexpr std::size_t kLogRingRecords = 256;
inline constexpr std::size_t kRecordTextCap = 168;

/// One fixed-size flight-recorder record.  POD on purpose: the crash
/// handler copies these with no allocation, and a record torn by a
/// concurrent writer is still NUL-terminated garbage, never out of bounds.
struct Record {
  std::uint64_t seq = 0;  // process-global, 1-based; 0 marks an empty slot
  std::uint64_t ts_ns = 0;  // tracer timeline (ns since process start)
  std::uint32_t tid = 0;
  Level level = Level::kInfo;
  char subsystem[kSubsystemCap] = {};
  char text[kRecordTextCap] = {};  // message plus rendered key=value args
};

/// Async-signal-safe: copies the `max` most recent records (by sequence
/// number) across every thread ring into `out`, oldest first, using only
/// atomic loads and fixed-size copies.  Returns the count copied.
std::size_t flight_recorder_tail_unsafe(Record* out, std::size_t max);

/// Convenience wrapper for tests and tooling (allocates; not a crash path).
std::vector<Record> flight_recorder_tail(std::size_t max = 64);

/// Records appended to any ring so far (monotonic; test aid).
std::uint64_t records_emitted();

}  // namespace rftc::obs::log
