// Per-phase timing attribution: PhaseScope is an RAII scope that charges
// its *self time* (time not spent inside a nested PhaseScope) to a named
// phase in the process-global PhaseTimer, alongside hardware perf-counter
// deltas when PerfCounters are available.  RunManifest snapshots the timer
// into the schema_version 3 "phases" block, so `rftc-report diff` can
// attribute a wall-time regression to the phase that caused it.
//
// Attribution contract: scopes are placed on the *coordinator* path only
// (around whole capture drivers, transform tiles, engine feeds, checkpoint
// evaluations, store I/O) — never inside parallel workers — so the sum of
// phase times approximates wall time with no double counting.  Entering a
// nested scope pauses the parent: store-io inside a capture scope bills to
// store-io, not both.
//
// Cost: two steady_clock reads plus (when available) one perf-counter read
// per boundary, and one mutex-guarded map update per scope exit — placed at
// tile granularity or coarser, this is noise.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/perf_counters.hpp"

namespace rftc::obs {

// Canonical phase names (the JSON keys of the report "phases" block).
inline constexpr const char* kPhaseCapture = "capture";
inline constexpr const char* kPhaseStoreIo = "store-io";
inline constexpr const char* kPhaseCpaKernel = "cpa-kernel";
inline constexpr const char* kPhaseTvla = "tvla";
inline constexpr const char* kPhaseDtw = "dtw";
inline constexpr const char* kPhasePca = "pca";
inline constexpr const char* kPhaseFft = "fft";
inline constexpr const char* kPhaseSw = "sw";
inline constexpr const char* kPhaseReport = "report";

/// Accumulated cost of one phase.
struct PhaseStat {
  double seconds = 0.0;
  /// Closed scopes that contributed.
  std::uint64_t entries = 0;
  /// Summed perf-counter deltas (kPerfEventNames order); meaningful only
  /// when has_events is true (perf available for at least one scope).
  std::array<std::uint64_t, kPerfEventCount> events{};
  bool has_events = false;
};

/// Process-global phase accumulator.  Thread-safe.
class PhaseTimer {
 public:
  static PhaseTimer& global();

  /// Rolls one closed scope into `phase`.
  void add(std::string_view phase, double seconds, const PerfSample& delta);

  /// Name-sorted snapshot of every phase seen so far.
  std::vector<std::pair<std::string, PhaseStat>> snapshot() const;

  /// Sum of seconds over all phases.
  double total_seconds() const;

  /// Drops all accumulated state (tests / per-run isolation).
  void reset();

 private:
  PhaseTimer() = default;
};

/// Innermost open PhaseScope name on the calling thread, nullptr outside
/// any scope.  Async-signal-safe: one thread_local pointer read, so the
/// post-mortem writer can name the phase that was active when a signal
/// arrived.
const char* current_phase();

/// Copies the calling thread's open scope stack into `out`, outermost
/// first (the innermost `max` scopes when deeper than `max`); returns the
/// count.  Async-signal-safe: walks the thread_local scope chain only.
int current_phase_stack(const char** out, int max);

/// Name of the phase most recently entered by ANY thread (nullptr before
/// the first scope).  Best-effort, racy by design — the crash-reporting
/// fallback when the crashing thread itself has no open scope.
const char* process_phase();

/// RAII self-time scope; see the attribution contract above.  `phase` must
/// outlive the scope (pass the kPhase* constants or another string
/// literal).
class PhaseScope {
 public:
  explicit PhaseScope(const char* phase);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  friend const char* current_phase();
  friend int current_phase_stack(const char** out, int max);

  const char* phase_;
  PhaseScope* parent_;
  /// Start of the current self-interval (ns since steady epoch).
  std::uint64_t interval_start_ns_;
  /// Self time accumulated across pause/resume, in ns.
  double self_ns_ = 0.0;
  PerfSample interval_start_perf_;
  std::array<std::uint64_t, kPerfEventCount> self_events_{};
  bool has_events_ = false;
};

}  // namespace rftc::obs
