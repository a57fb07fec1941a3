#include "clocking/clock_mux.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace rftc::clk {

Picoseconds switch_latency(Picoseconds from_ps, Picoseconds to_ps,
                           Picoseconds from_phase_ps,
                           Picoseconds to_phase_ps) {
  if (from_ps <= 0 || to_ps <= 0)
    throw std::invalid_argument("switch_latency: non-positive period");
  // Step 1: wait for the falling edge of the old clock (half period mark).
  const Picoseconds from_half = from_ps / 2;
  Picoseconds t = 0;
  Picoseconds phase = from_phase_ps % from_ps;
  if (phase < from_half) {
    t += from_half - phase;  // currently high: wait for the fall
  }  // currently low: no wait
  // Step 2: from that instant, wait for the next rising edge of the new
  // clock that is preceded by a low phase (BUFGCTRL synchronizer).
  Picoseconds to_phase = (to_phase_ps + t) % to_ps;
  const Picoseconds to_half = to_ps / 2;
  if (to_phase < to_half) {
    // New clock is high: wait for it to fall, then a full low phase.
    t += (to_half - to_phase) + (to_ps - to_half);
  } else {
    // New clock is low: wait for its rising edge.
    t += to_ps - to_phase;
  }
  return t;
}

MuxedClock::MuxedClock(std::vector<Picoseconds> source_periods,
                       bool model_overhead, Picoseconds start)
    : periods_(std::move(source_periods)),
      model_overhead_(model_overhead),
      now_(start) {
  if (periods_.empty())
    throw std::invalid_argument("MuxedClock: no sources");
  for (const Picoseconds p : periods_)
    if (p <= 0) throw std::invalid_argument("MuxedClock: bad period");
}

Picoseconds MuxedClock::advance(int sel) {
  if (sel < 0 || static_cast<std::size_t>(sel) >= periods_.size())
    throw std::out_of_range("MuxedClock::advance: bad select");
  if (!first_ && sel != sel_) {
    static obs::Counter& switches =
        obs::Registry::global().counter("clk.mux.switches");
    switches.inc();
    RFTC_OBS_INSTANT("clk", "mux.switch", {"sel", static_cast<double>(sel)});
    if (model_overhead_) {
      // All sources free-run from t=0, so each clock's phase at `now_` is
      // simply now_ mod period.
      const Picoseconds from = periods_[static_cast<std::size_t>(sel_)];
      const Picoseconds to = periods_[static_cast<std::size_t>(sel)];
      now_ += switch_latency(from, to, now_ % from, now_ % to);
    }
  }
  sel_ = sel;
  first_ = false;
  now_ += periods_[static_cast<std::size_t>(sel)];
  return now_;
}

void MuxedClock::retarget(std::vector<Picoseconds> source_periods) {
  if (source_periods.size() != periods_.size())
    throw std::invalid_argument("MuxedClock::retarget: source count changed");
  for (const Picoseconds p : source_periods)
    if (p <= 0) throw std::invalid_argument("MuxedClock::retarget: bad period");
  periods_ = std::move(source_periods);
}

}  // namespace rftc::clk
