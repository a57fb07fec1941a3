// rftc::obs metrics — low-overhead counters, gauges and streaming
// histograms, collectable into a process-global Registry.
//
// Design goals, in order:
//  1. Hot-path cost when observability is *off* must be a handful of relaxed
//     atomic operations (or nothing at all when compiled out with
//     RFTC_OBS_ENABLED=0), so the simulator's "fast as the hardware allows"
//     north star is not taxed by its own telemetry.
//  2. Metrics are usable both standalone (e.g. ControllerStats owns its
//     per-instance counters) and registered by name in the global Registry
//     for process-wide export (RFTC_OBS_METRICS=stderr|<file>).
//  3. Histograms are streaming: fixed memory, no per-sample allocation, and
//     p50/p95/p99 quantile estimates with a bounded relative error
//     (logarithmic buckets with 16 linear sub-buckets per octave, ~3%).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace rftc::obs {

/// Monotonically increasing event count.  Thread-safe, relaxed ordering.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar.  Thread-safe, relaxed ordering.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Streaming histogram over non-negative samples (negative samples are
/// clamped into the sign bucket and only affect min/mean).  Buckets are
/// logarithmic — 16 linear sub-buckets per power of two spanning 2^-32 ..
/// 2^32 — so one instance covers picosecond durations through trace counts
/// with a worst-case quantile error of one sub-bucket (~3% of the value).
class Histogram {
 public:
  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  double mean() const;

  /// Quantile estimate for q in [0, 1]; 0 when empty.
  double quantile(double q) const;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0, min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;
  };
  Snapshot snapshot() const;

  void reset();

  static constexpr int kSubBuckets = 16;
  static constexpr int kMinExp = -32;
  static constexpr int kMaxExp = 32;
  /// Bucket 0 holds v <= 0; buckets 1..N the geometric range (clamped).
  static constexpr int kBucketCount =
      (kMaxExp - kMinExp) * kSubBuckets + 1;

 private:
  static int bucket_for(double v);
  /// Midpoint of a bucket's value range (used as the quantile estimate).
  static double bucket_mid(int bucket);

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Process-global, name-keyed metric registry.  Registration takes a mutex;
/// returned references are stable for the process lifetime, so hot paths
/// should cache them (function-local static) and then pay only the metric's
/// own atomic cost.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string to_json() const;
  /// Human-readable table (RFTC_OBS_METRICS=stderr).
  void write_text(std::FILE* out) const;

  /// Crash-path walk: visits every registered metric WITHOUT taking the
  /// registry mutex, passing exactly one non-null pointer per call.
  /// Best-effort by design — safe whenever no registration races the walk
  /// (metric references are stable and the maps only grow), which is the
  /// contract the async-signal post-mortem writer relies on.  Everyone
  /// else should use to_json()/write_text().
  void visit_unlocked(void (*fn)(void* ctx, const char* name,
                                 const Counter* counter, const Gauge* gauge,
                                 const Histogram* histogram),
                      void* ctx) const;

  /// Zeroes every registered metric (references stay valid).  For tests and
  /// for benches that want per-phase deltas.
  void reset_values();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace rftc::obs
