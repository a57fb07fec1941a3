// rftc::obs unit tests: metric primitives, quantile accuracy, span
// nesting, Chrome trace export round-trips, and the disabled-mode no-op
// contract the hot paths rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/thread_ring.hpp"
#include "obs/trace_event.hpp"

namespace rftc::obs {
namespace {

// ---------------------------------------------------------------------------
// Counters and gauges.
// ---------------------------------------------------------------------------

TEST(ObsCounter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ConcurrentIncrementsDoNotLoseCounts) {
  Counter c;
  constexpr int kThreads = 4, kPerThread = 50'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsGauge, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.25);
  g.set(-7.5);
  EXPECT_EQ(g.value(), -7.5);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Histogram: exact moments, approximate quantiles.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(ObsHistogram, MomentsAreExact) {
  Histogram h;
  double sum = 0;
  for (int i = 1; i <= 100; ++i) {
    h.observe(i);
    sum += i;
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), sum / 100.0);
}

TEST(ObsHistogram, QuantilesWithinBucketError) {
  // Uniform 1..10000: the log-bucketed estimate must land within one
  // sub-bucket (~2^(1/16) ≈ 4.4%) of the exact nearest-rank quantile.
  Histogram h;
  for (int i = 1; i <= 10'000; ++i) h.observe(i);
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact = q * 10'000;
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, 0.05 * exact) << "q=" << q;
  }
}

TEST(ObsHistogram, QuantilesOnWideDynamicRange) {
  // Mix picosecond-like and second-like magnitudes in one instance: 90% of
  // samples at 1e-6, 10% at 1e6.  p50 must sit at the small mode, p99 at
  // the large one.
  Histogram h;
  for (int i = 0; i < 900; ++i) h.observe(1e-6);
  for (int i = 0; i < 100; ++i) h.observe(1e6);
  EXPECT_NEAR(h.quantile(0.50), 1e-6, 0.05 * 1e-6);
  EXPECT_NEAR(h.quantile(0.99), 1e6, 0.05 * 1e6);
}

TEST(ObsHistogram, QuantileClampedToObservedRange) {
  Histogram h;
  h.observe(42.0);
  // A single sample: every quantile is that sample, not a bucket midpoint
  // that could stray outside [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);
}

TEST(ObsHistogram, NonpositiveSamplesLandInSignBucket) {
  Histogram h;
  h.observe(-5.0);
  h.observe(0.0);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  // Two of three samples are nonpositive, so the median is clamped to min.
  EXPECT_LE(h.quantile(0.5), 0.0);
}

TEST(ObsHistogram, SnapshotMatchesAccessors) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(i);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, h.count());
  EXPECT_DOUBLE_EQ(s.sum, h.sum());
  EXPECT_DOUBLE_EQ(s.min, h.min());
  EXPECT_DOUBLE_EQ(s.max, h.max());
  EXPECT_DOUBLE_EQ(s.p50, h.quantile(0.50));
  EXPECT_DOUBLE_EQ(s.p95, h.quantile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, h.quantile(0.99));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, SameNameReturnsSameInstance) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("test.obs.same_name");
  Counter& b = reg.counter("test.obs.same_name");
  EXPECT_EQ(&a, &b);
  a.inc(7);
  EXPECT_EQ(b.value(), 7u);
  a.reset();
}

TEST(ObsRegistry, ExportsParseableJson) {
  Registry& reg = Registry::global();
  reg.counter("test.obs.json_counter").inc(3);
  reg.gauge("test.obs.json_gauge").set(1.5);
  reg.histogram("test.obs.json_hist").observe(250.0);

  const json::Value doc = json::parse(reg.to_json());
  ASSERT_TRUE(doc.is_object());
  const json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* c = counters->find("test.obs.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->num, 3.0);

  const json::Value* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const json::Value* g = gauges->find("test.obs.json_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->num, 1.5);

  const json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* hist = hists->find("test.obs.json_hist");
  ASSERT_NE(hist, nullptr);
  const json::Value* p50 = hist->find("p50");
  ASSERT_NE(p50, nullptr);
  EXPECT_NEAR(p50->num, 250.0, 0.05 * 250.0);
}

// ---------------------------------------------------------------------------
// JSON helpers.
// ---------------------------------------------------------------------------

TEST(ObsJson, QuoteEscapes) {
  EXPECT_EQ(json::quote("plain"), "\"plain\"");
  EXPECT_EQ(json::quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  const json::Value v = json::parse(json::quote("tab\there"));
  EXPECT_EQ(v.str, "tab\there");
}

TEST(ObsJson, NumberRoundTrips) {
  for (const double v : {0.0, -1.5, 3.141592653589793, 1e-12, 6.02e23}) {
    const json::Value parsed = json::parse(json::number(v));
    ASSERT_TRUE(parsed.is_number());
    EXPECT_DOUBLE_EQ(parsed.num, v);
  }
  EXPECT_EQ(json::number(std::nan("")), "null");
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("'single'"), std::runtime_error);
  // RFC 8259 numbers: no leading zeros, bare fractions, bare exponents or
  // plus signs, and nothing a double cannot hold.
  for (const char* bad : {"050", ".5", "1.", "+1", "-", "1e", "1e+", "[01]",
                          "1e400", "-1e400"})
    EXPECT_THROW(json::parse(bad), std::runtime_error) << bad;
  // Raw control characters must be escaped inside strings.
  EXPECT_THROW(json::parse("\"a\tb\""), std::runtime_error);
  EXPECT_THROW(json::parse("\"a\x01\""), std::runtime_error);
}

TEST(ObsJson, ParsesNestedDocument) {
  const json::Value v =
      json::parse(R"({"a": [1, 2.5, true, null], "b": {"c": "A"}})");
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_EQ(a->array[1].num, 2.5);
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_TRUE(a->array[3].is_null());
  const json::Value* b = v.find("b");
  ASSERT_NE(b, nullptr);
  const json::Value* c = b->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->str, "A");
}

// ---------------------------------------------------------------------------
// Tracer + spans.  Fixture restores the global tracer so other tests (and
// the RFTC_OBS_* env hooks) see a clean slate.  The Span/Tracer API is
// exercised directly — it stays compiled under -DRFTC_OBS=OFF, which only
// turns the RFTC_OBS_SPAN/RFTC_OBS_INSTANT site macros into no-ops (the
// macro wiring itself is covered by the config-adaptive test at the end).
// ---------------------------------------------------------------------------

class ObsTracer : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().clear();
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }
};

TEST_F(ObsTracer, SpanRecordsCompleteEvent) {
  {
    Span span("test", "obs.outer");
    span.arg("x", 42.0);
    EXPECT_TRUE(span.active());
  }
  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "obs.outer");
  EXPECT_STREQ(events[0].cat, "test");
  EXPECT_EQ(events[0].phase, 'X');
  ASSERT_EQ(events[0].n_args, 1);
  EXPECT_STREQ(events[0].args[0].key, "x");
  EXPECT_EQ(events[0].args[0].value, 42.0);
}

TEST_F(ObsTracer, NestedSpansAreContained) {
  {
    Span outer("test", "obs.outer");
    {
      Span inner("test", "obs.inner");
    }
  }
  const auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot sorts by start time: outer starts first, inner closes first.
  const TraceEvent& outer = events[0];
  const TraceEvent& inner = events[1];
  EXPECT_STREQ(outer.name, "obs.outer");
  EXPECT_STREQ(inner.name, "obs.inner");
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
}

TEST_F(ObsTracer, InstantEventsCarryArgs) {
  Tracer::global().instant("test", "obs.tick", {"a", 1.0}, {"b", 2.0});
  const auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  ASSERT_EQ(events[0].n_args, 2);
  EXPECT_EQ(events[0].args[1].value, 2.0);
}

TEST_F(ObsTracer, ChromeJsonRoundTripsThroughParser) {
  {
    Span span("test", "obs.export");
    span.arg("key", 7.0);
    Tracer::global().instant("test", "obs.mark", {"v", 1.0});
  }
  const json::Value doc = json::parse(Tracer::global().chrome_json());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 2u);
  for (const json::Value& ev : doc.array) {
    ASSERT_TRUE(ev.is_object());
    for (const char* field : {"name", "cat", "ph", "pid", "tid", "ts"})
      EXPECT_NE(ev.find(field), nullptr) << "missing " << field;
  }
  // The instant fires inside the span, so the span (earlier ts) sorts
  // first and carries "dur" and its arg.
  const json::Value& span_ev = doc.array[0];
  EXPECT_EQ(span_ev.find("ph")->str, "X");
  ASSERT_NE(span_ev.find("dur"), nullptr);
  const json::Value* args = span_ev.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("key")->num, 7.0);
  const json::Value& inst_ev = doc.array[1];
  EXPECT_EQ(inst_ev.find("ph")->str, "i");
  ASSERT_NE(inst_ev.find("s"), nullptr);  // instant scope
}

TEST_F(ObsTracer, RingOverwritesOldestAndCountsDrops) {
  Tracer& tracer = Tracer::global();
  const std::uint64_t dropped_before = tracer.dropped();
  // A fresh thread gets a fresh ring; flood it 24 events past capacity.
  std::thread([] {
    for (std::size_t i = 0; i < kTraceRingEvents + 24; ++i)
      Tracer::global().instant("test", "obs.flood");
  }).join();
  std::size_t flood = 0;
  for (const auto& ev : tracer.snapshot())
    if (std::string_view(ev.name) == "obs.flood") ++flood;
  EXPECT_EQ(flood, kTraceRingEvents);  // only the most recent survive
  EXPECT_EQ(tracer.dropped() - dropped_before, 24u);
}

TEST_F(ObsTracer, ConcurrentThreadsStampOneIdOnEventsAndLogRecords) {
  // Threads register their trace and flight-recorder rings concurrently,
  // and each stamps the same obs::thread_id() into both.
  constexpr int kThreads = 4;
  constexpr int kEvents = 100;
  const log::LevelSpec saved = log::current_spec();
  log::configure(log::parse_spec("debug"));
  log::set_stderr_sink(false);
  std::vector<std::uint32_t> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      ids[static_cast<std::size_t>(t)] = thread_id();
      for (int i = 0; i < kEvents; ++i)
        Tracer::global().instant("test", "obs.concurrent");
      log::debug("test", "concurrent-id");
    });
  }
  for (std::thread& t : threads) t.join();
  log::set_stderr_sink(true);
  log::configure(saved);

  std::map<std::uint32_t, int> events_per_tid;
  for (const TraceEvent& ev : Tracer::global().snapshot())
    if (std::string_view(ev.name) == "obs.concurrent") ++events_per_tid[ev.tid];
  ASSERT_EQ(events_per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const std::uint32_t id : ids) EXPECT_EQ(events_per_tid[id], kEvents);
  std::set<std::uint32_t> log_tids;
  for (const log::Record& rec : log::flight_recorder_tail(64))
    if (std::string_view(rec.text) == "concurrent-id") log_tids.insert(rec.tid);
  EXPECT_EQ(log_tids, std::set<std::uint32_t>(ids.begin(), ids.end()));
}

TEST_F(ObsTracer, FlushSurfacesDropCountAsGauge) {
  // flush() must mirror the tracer's drop tally into the metric registry
  // (obs.trace.dropped_events) so an exported metrics.json reveals a ring
  // that silently overwrote events.  No RFTC_OBS_* sink env is set in the
  // test binary, so flush() writes nothing — it only updates the gauge.
  flush();
  Gauge& g = Registry::global().gauge("obs.trace.dropped_events");
  EXPECT_EQ(g.value(), static_cast<double>(Tracer::global().dropped()));

  Tracer& tracer = Tracer::global();
  std::thread([] {
    for (std::size_t i = 0; i < kTraceRingEvents + 4; ++i)
      Tracer::global().instant("test", "obs.flood_gauge");
  }).join();
  flush();
  EXPECT_EQ(g.value(), static_cast<double>(tracer.dropped()));
  EXPECT_GE(g.value(), 4.0);
}

TEST_F(ObsTracer, DisabledModeRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  const std::uint64_t recorded_before = tracer.recorded();
  {
    Span span("test", "obs.ghost");
    EXPECT_FALSE(span.active());
    span.arg("ignored", 1.0);
  }
  tracer.instant("test", "obs.ghost_instant");
  EXPECT_EQ(tracer.recorded(), recorded_before);
  EXPECT_TRUE(tracer.snapshot().empty());
}

// The instrumentation-site macros: live spans/instants when compiled in,
// strict no-ops (no event, not even an enabled-check of the real tracer's
// ring path) under -DRFTC_OBS=OFF.
#if RFTC_OBS_ENABLED
TEST_F(ObsTracer, SiteMacrosRecordWhenCompiledIn) {
  {
    RFTC_OBS_SPAN(span, "test", "obs.macro_span");
    EXPECT_TRUE(span.active());
    RFTC_OBS_INSTANT("test", "obs.macro_instant", {"v", 3.0});
  }
  const auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "obs.macro_span");
  EXPECT_STREQ(events[1].name, "obs.macro_instant");
}
#else
TEST_F(ObsTracer, SiteMacrosCompileOutToNoOps) {
  const std::uint64_t recorded_before = Tracer::global().recorded();
  {
    RFTC_OBS_SPAN(span, "test", "obs.macro_span");
    EXPECT_FALSE(span.active());
    span.arg("ignored", 1.0);
    RFTC_OBS_INSTANT("test", "obs.macro_instant", {"v", 3.0});
  }
  EXPECT_EQ(Tracer::global().recorded(), recorded_before);
  EXPECT_TRUE(Tracer::global().snapshot().empty());
}
#endif

}  // namespace
}  // namespace rftc::obs
