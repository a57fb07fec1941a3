#include "analysis/tvla.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/convergence.hpp"
#include "obs/checkpoints.hpp"
#include "obs/obs.hpp"
#include "obs/phase_timer.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace rftc::analysis {

namespace {

/// Samples per Welch-accumulation shard (a pure constant, never a function
/// of the thread count — see util/parallel.hpp).
constexpr std::size_t kSampleGrain = 32;

/// The one Welch feed: traces [t0, t1) of one population of an in-RAM set
/// (a single segment) or a store (chunk by chunk, via for_range), sharded
/// over samples.  Every shard owns a disjoint sample range and walks the
/// segment's traces in index order, so each per-sample accumulator sees
/// exactly the serial update sequence for any thread count and any chunk
/// geometry — the golden streaming test pins the resulting t_values bit
/// for bit.
template <class Source>
void feed_welch(WelchTTest& test, const Source& src, std::size_t t0,
                std::size_t t1, bool fixed) {
  static obs::Counter& traces_attacked =
      obs::Registry::global().counter("analysis.traces_attacked");
  src.for_range(t0, t1, [&](const auto& seg, std::size_t k0, std::size_t k1) {
    par::parallel_for(0, test.samples(), kSampleGrain,
                      [&](std::size_t s0, std::size_t s1) {
                        for (std::size_t k = k0; k < k1; ++k) {
                          if (fixed)
                            test.add_fixed_range(seg.trace(k), s0, s1);
                          else
                            test.add_random_range(seg.trace(k), s0, s1);
                        }
                      });
    traces_attacked.inc(k1 - k0);
  });
}

/// Checkpointed Welch campaign over the two populations of `capture` (an
/// in-RAM TvlaCapture or a StoredTvlaCapture).
template <class Capture>
TvlaResult run_tvla_impl(const Capture& capture, ConvergenceMonitor* monitor) {
  if (capture.fixed.samples() != capture.random.samples())
    throw std::invalid_argument("run_tvla: sample count mismatch");
  // The whole Welch sweep (accumulation, per-checkpoint t scans and the
  // final scan) bills to the tvla phase; chunk mapping on the streamed path
  // is lazy reads inside the feed and is attributed here too — it is the
  // cost of running TVLA out of core.
  obs::PhaseScope phase(obs::kPhaseTvla);
  RFTC_OBS_SPAN(span, "analysis", "run_tvla");
  WelchTTest test(capture.fixed.samples());
  const std::size_t n_fixed = capture.fixed.size();
  const std::size_t n_random = capture.random.size();
  TvlaResult res;

  // Both populations advance in lockstep so the t-statistic is meaningful
  // at intermediate counts.  The fixed and random accumulators are
  // independent, so accumulating a whole inter-checkpoint block at once
  // gives the same t_values as a pairwise-interleaved loop.
  const std::size_t paired = std::min(n_fixed, n_random);
  std::size_t i = 0;
  for (const std::size_t cp : tvla_checkpoints(paired)) {
    feed_welch(test, capture.fixed, i, cp, true);
    feed_welch(test, capture.random, i, cp, false);
    i = cp;
    const TStatScan scan = scan_t(test.t_values(), kTvlaThreshold);
    res.record(i, scan.max_abs_t);
    if (monitor != nullptr) monitor->observe_tvla(scan, i);
  }
  feed_welch(test, capture.fixed, i, n_fixed, true);
  feed_welch(test, capture.random, i, n_random, false);

  res.finish(test, n_fixed);
  if (monitor != nullptr) monitor->observe_tvla(res, paired);
  static obs::Gauge& last_t =
      obs::Registry::global().gauge("analysis.tvla.last_max_abs_t");
  last_t.set(res.max_abs_t);

  span.arg("traces_per_population", static_cast<double>(n_fixed));
  span.arg("max_abs_t", res.max_abs_t);
  return res;
}

}  // namespace

void TvlaResult::record(std::size_t traces_per_population, double max_abs) {
  convergence.emplace_back(traces_per_population, max_abs);
  RFTC_OBS_INSTANT("analysis", "tvla.checkpoint",
                   {"traces_per_population",
                    static_cast<double>(traces_per_population)},
                   {"max_abs_t", max_abs});
}

void TvlaResult::finish(const WelchTTest& test, std::size_t traces) {
  t_values = test.t_values();
  static_cast<TStatScan&>(*this) = scan_t(t_values, kTvlaThreshold);
  record(traces, max_abs_t);
}

std::vector<std::size_t> tvla_checkpoints(std::size_t paired) {
  std::vector<std::size_t> cps = obs::checkpoints_from_env(paired);
  std::erase_if(cps, [&](std::size_t c) { return c >= paired; });
  return cps;
}

void accumulate_tvla_range(WelchTTest& test, const trace::TraceStore& store,
                           std::size_t t0, std::size_t t1, bool fixed) {
  if (test.samples() != store.samples())
    throw std::invalid_argument("accumulate_tvla_range: sample mismatch");
  feed_welch(test, store, t0, t1, fixed);
}

TvlaResult run_tvla(const trace::TvlaCapture& capture,
                    ConvergenceMonitor* monitor) {
  return run_tvla_impl(capture, monitor);
}

TvlaResult run_tvla(const trace::StoredTvlaCapture& capture,
                    ConvergenceMonitor* monitor) {
  return run_tvla_impl(capture, monitor);
}

}  // namespace rftc::analysis
