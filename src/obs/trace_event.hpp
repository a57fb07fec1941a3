// Structured event tracing: scoped spans and instant events recorded into
// lock-free per-thread rings (obs/thread_ring.hpp, kTraceRingEvents events
// each), exported as Chrome `trace_event` JSON (loadable in
// chrome://tracing or https://ui.perfetto.dev).
//
// Hot-path contract: when tracing is disabled a Span costs one predictable
// branch; when enabled, recording an event is one steady_clock read plus a
// handful of stores into the calling thread's own ring (no locks, no
// allocation after the ring is created).  Rings keep the *most recent*
// events — older events are overwritten and counted as dropped, matching
// chrome://tracing's flight-recorder semantics.  A thread past the ring
// table's kMaxThreadRings slots records nothing; its events count as
// dropped too.
//
// Event `name`/`cat` and argument keys must be string literals (or otherwise
// outlive the tracer): only the pointer is stored.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef RFTC_OBS_ENABLED
#define RFTC_OBS_ENABLED 1
#endif

namespace rftc::obs {

/// Events each thread's trace ring holds.
inline constexpr std::size_t kTraceRingEvents = 1 << 16;

/// One numeric span/event argument.  Keys are static strings.
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  /// Chrome phase: 'X' complete (ts + dur), 'i' instant.
  char phase = 'X';
  std::uint32_t tid = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  TraceArg args[3];
  int n_args = 0;
};

class Tracer {
 public:
  static Tracer& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Nanoseconds since the tracer's epoch (process start, steady clock).
  std::uint64_t now_ns() const;

  /// Appends to the calling thread's ring.  `ev.tid` is filled in with
  /// obs::thread_id().
  void record(TraceEvent ev);

  /// Records an instant event if tracing is enabled.
  void instant(const char* cat, const char* name, TraceArg a = {},
               TraceArg b = {}, TraceArg c = {});

  /// All buffered events from every thread, merged and sorted by timestamp.
  std::vector<TraceEvent> snapshot() const;

  /// Total record() calls / events overwritten in some ring or recorded by
  /// a thread that got no ring.  Monotonic
  /// process-lifetime tallies (NOT reset by clear()), read lock-free so the
  /// crash-path post-mortem writer and heartbeat sampler can sample them.
  std::uint64_t recorded() const {
    return recorded_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_total_.load(std::memory_order_relaxed);
  }

  /// Chrome trace_event "JSON Array Format".
  std::string chrome_json() const;

  /// Discards all buffered events (rings stay allocated).
  void clear();

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> recorded_total_{0};
  std::atomic<std::uint64_t> dropped_total_{0};
  std::uint64_t epoch_ns_ = 0;
};

/// RAII scoped span: records one complete ('X') event covering its lifetime.
/// Construction is a no-op when tracing is disabled.
class Span {
 public:
  Span(const char* cat, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric argument (up to 3; extras are dropped).
  void arg(const char* key, double value);

  bool active() const { return active_; }

 private:
  const char* cat_;
  const char* name_;
  std::uint64_t start_ = 0;
  TraceArg args_[3];
  int n_args_ = 0;
  bool active_ = false;
};

/// No-op stand-in used when the layer is compiled out.
struct NullSpan {
  void arg(const char*, double) {}
  bool active() const { return false; }
};

}  // namespace rftc::obs

#if RFTC_OBS_ENABLED
/// Declares a scoped span variable `var`.
#define RFTC_OBS_SPAN(var, cat, name) ::rftc::obs::Span var((cat), (name))
/// Records an instant event (args are optional TraceArg initialisers).
#define RFTC_OBS_INSTANT(...) ::rftc::obs::Tracer::global().instant(__VA_ARGS__)
#else
#define RFTC_OBS_SPAN(var, cat, name) \
  ::rftc::obs::NullSpan var;          \
  (void)var
#define RFTC_OBS_INSTANT(...) \
  do {                        \
  } while (false)
#endif
