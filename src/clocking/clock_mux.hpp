// Glitch-free clock multiplexer (BUFGMUX / BUFGCTRL) model.
//
// A BUFGMUX never emits a runt pulse: on a select change it first completes
// the low phase of the currently selected clock, keeps the output low until
// the newly selected clock is itself low, and then passes the new clock from
// its next rising edge (UG472).  RFTC uses one such mux per MMCM to pick one
// of the M outputs per AES round, plus one to pick between the N MMCMs.
//
// Two levels of abstraction are provided:
//  * `switch_latency` — edge-accurate dead time of one switch, used by the
//    ablation bench that quantifies how much real switching overhead would
//    perturb the paper's idealized completion-time arithmetic, and
//  * `MuxedClock` — a period-level iterator that yields one full period of
//    the selected clock per round (the idealization under which the paper's
//    C(R+M−1, R) completion-time count holds).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/time_types.hpp"

namespace rftc::clk {

/// Dead time of a glitch-free switch from a clock of period `from_ps` to a
/// clock of period `to_ps`, given the phase of each clock at the moment of
/// the select change (`from_phase_ps`, `to_phase_ps`, both in [0, period)).
/// Returns the delay until the first rising edge of the new clock appears at
/// the mux output.
Picoseconds switch_latency(Picoseconds from_ps, Picoseconds to_ps,
                           Picoseconds from_phase_ps,
                           Picoseconds to_phase_ps);

/// Period-level muxed clock: a set of source periods and a glitch-free
/// select.  `advance(sel)` consumes one full period of source `sel` and
/// returns the rising-edge time that ends it.  Optionally charges the
/// glitch-free switch overhead on select changes.
class MuxedClock {
 public:
  MuxedClock(std::vector<Picoseconds> source_periods, bool model_overhead,
             Picoseconds start = 0);

  /// Clock one consumer cycle from source `sel`; returns the edge time.
  Picoseconds advance(int sel);

  Picoseconds now() const { return now_; }
  int selected() const { return sel_; }
  const std::vector<Picoseconds>& source_periods() const { return periods_; }
  /// Replace the source periods (MMCM was reconfigured behind this mux).
  void retarget(std::vector<Picoseconds> source_periods);

 private:
  std::vector<Picoseconds> periods_;
  bool model_overhead_;
  Picoseconds now_;
  int sel_ = 0;
  bool first_ = true;
};

}  // namespace rftc::clk
