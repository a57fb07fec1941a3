// The per-thread ring primitive under both the event tracer
// (obs/trace_event.hpp) and the log flight recorder (obs/log.hpp), plus the
// one per-thread id both stamp into what they record.
//
// A ThreadRing is a fixed-capacity slot array written only by its owning
// thread, plus a release-stored count of pushes: a reader that acquires
// `written` sees every slot stored before it.  Rings keep the most recent
// `Capacity` pushes; older slots are overwritten.  RingTable registers each
// thread's ring in a fixed lock-free table on the thread's first push and
// never frees it, so a crash handler can walk every ring — even one whose
// thread has exited — with atomic loads and fixed-size copies only.  A
// thread past the table's kMaxThreadRings slots gets no ring; callers
// decide how to account for what it would have recorded.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace rftc::obs {

/// Process-wide id of the calling thread: 1-based, in order of first call.
/// Trace events and log records carry the same id for the same thread.
inline std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Rings each RingTable can register.  Fixed so readers need no lock.
inline constexpr int kMaxThreadRings = 256;

template <class T, std::size_t Capacity>
struct ThreadRing {
  T slots[Capacity]{};
  std::atomic<std::uint64_t> written{0};

  /// Owner thread only.  Stores `v` over the oldest slot; returns true when
  /// that slot still held a live value (an overwrite).
  bool push(const T& v) {
    const std::uint64_t w = written.load(std::memory_order_relaxed);
    slots[w % Capacity] = v;
    written.store(w + 1, std::memory_order_release);
    return w >= Capacity;
  }

  /// Calls fn(slot) on the min(max, held) most recent pushes, oldest first.
  /// Atomic loads and slot reads only: signal-safe when `fn` is.
  template <class Fn>
  void for_recent(std::uint64_t max, Fn&& fn) const {
    const std::uint64_t w = written.load(std::memory_order_acquire);
    const std::uint64_t n =
        std::min({w, static_cast<std::uint64_t>(Capacity), max});
    for (std::uint64_t k = w - n; k < w; ++k) fn(slots[k % Capacity]);
  }
};

/// The fixed table of every thread's ThreadRing<T, Capacity>.  All state is
/// static: one table per element type and capacity.
template <class T, std::size_t Capacity>
class RingTable {
 public:
  using Ring = ThreadRing<T, Capacity>;

  /// The calling thread's ring, allocated and registered on the first call;
  /// nullptr for every thread past kMaxThreadRings.
  static Ring* local() {
    thread_local Ring* const ring = claim();
    return ring;
  }

  /// Calls fn(ring) on every registered ring, in registration order.
  /// Atomic loads only: signal-safe when `fn` is.
  template <class Fn>
  static void for_each(Fn&& fn) {
    const int n = std::min(count_.load(std::memory_order_acquire),
                           kMaxThreadRings);
    for (int i = 0; i < n; ++i)
      if (Ring* ring = rings_[i].load(std::memory_order_acquire)) fn(*ring);
  }

 private:
  static Ring* claim() {
    if (count_.load(std::memory_order_relaxed) >= kMaxThreadRings)
      return nullptr;
    const int idx = count_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kMaxThreadRings) return nullptr;
    Ring* ring = new Ring;  // never freed: readers may outlive the thread
    rings_[idx].store(ring, std::memory_order_release);
    return ring;
  }

  static inline std::atomic<Ring*> rings_[kMaxThreadRings]{};
  static inline std::atomic<int> count_{0};
};

}  // namespace rftc::obs
