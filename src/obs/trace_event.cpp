#include "obs/trace_event.hpp"

#include <algorithm>
#include <chrono>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/thread_ring.hpp"

namespace rftc::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using TraceRings = RingTable<TraceEvent, kTraceRingEvents>;

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_now_ns()) {}

Tracer& Tracer::global() {
  static Tracer* t = new Tracer;  // leaked: usable from atexit handlers
  return *t;
}

std::uint64_t Tracer::now_ns() const { return steady_now_ns() - epoch_ns_; }

void Tracer::record(TraceEvent ev) {
  ev.tid = thread_id();
  recorded_total_.fetch_add(1, std::memory_order_relaxed);
  TraceRings::Ring* ring = TraceRings::local();
  // Overwriting a live slot, or having no ring at all, is a drop.  Warn
  // exactly once per process so lost events are visible even to runs that
  // never export the obs.trace.dropped_events gauge.
  const bool dropped = ring == nullptr || ring->push(ev);
  if (dropped && dropped_total_.fetch_add(1, std::memory_order_relaxed) == 0)
    log::warn("obs", "trace events dropped (ring or ring table full)",
              {log::kv("ring_capacity", static_cast<double>(kTraceRingEvents)),
               log::kv("max_rings", static_cast<double>(kMaxThreadRings))});
}

void Tracer::instant(const char* cat, const char* name, TraceArg a,
                     TraceArg b, TraceArg c) {
  // trace_enabled() (not enabled()) so the first instant in a process still
  // arms the RFTC_OBS_* env sinks.
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'i';
  ev.ts_ns = now_ns();
  for (const TraceArg& arg : {a, b, c})
    if (arg.key != nullptr) ev.args[ev.n_args++] = arg;
  record(ev);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  TraceRings::for_each([&](const TraceRings::Ring& ring) {
    ring.for_recent(kTraceRingEvents,
                    [&](const TraceEvent& ev) { out.push_back(ev); });
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

namespace {

void append_event_json(std::string& out, const TraceEvent& ev) {
  out += "{\"name\":";
  out += json::quote(ev.name != nullptr ? ev.name : "?");
  out += ",\"cat\":";
  out += json::quote(ev.cat != nullptr ? ev.cat : "rftc");
  out += ",\"ph\":\"";
  out += ev.phase;
  out += "\",\"pid\":1,\"tid\":";
  out += std::to_string(ev.tid);
  // Chrome timestamps are microseconds; keep ns precision as a fraction.
  out += ",\"ts\":";
  out += json::number(static_cast<double>(ev.ts_ns) / 1e3);
  if (ev.phase == 'X') {
    out += ",\"dur\":";
    out += json::number(static_cast<double>(ev.dur_ns) / 1e3);
  }
  if (ev.phase == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
  if (ev.n_args > 0) {
    out += ",\"args\":{";
    for (int i = 0; i < ev.n_args; ++i) {
      if (i > 0) out += ',';
      out += json::quote(ev.args[i].key);
      out += ':';
      out += json::number(ev.args[i].value);
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

std::string Tracer::chrome_json() const {
  const std::vector<TraceEvent> events = snapshot();
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ",\n";
    first = false;
    append_event_json(out, ev);
  }
  out += "]\n";
  return out;
}

void Tracer::clear() {
  TraceRings::for_each([](TraceRings::Ring& ring) {
    ring.written.store(0, std::memory_order_relaxed);
  });
}

Span::Span(const char* cat, const char* name) : cat_(cat), name_(name) {
  if (trace_enabled()) {
    active_ = true;
    start_ = Tracer::global().now_ns();
  }
}

void Span::arg(const char* key, double value) {
  if (!active_ || n_args_ >= 3) return;
  args_[n_args_++] = {key, value};
}

Span::~Span() {
  if (!active_) return;
  Tracer& tracer = Tracer::global();
  TraceEvent ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.phase = 'X';
  ev.ts_ns = start_;
  ev.dur_ns = tracer.now_ns() - start_;
  ev.n_args = n_args_;
  for (int i = 0; i < n_args_; ++i) ev.args[i] = args_[i];
  tracer.record(ev);
}

}  // namespace rftc::obs
