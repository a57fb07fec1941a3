// Dynamic Time Warping — the "elastic alignment" preprocessing of van
// Woudenberg et al. [22] that DTW-CPA attacks use to undo random-delay
// countermeasures.
//
// A Sakoe–Chiba band bounds the warping window, turning the O(n^2) DP of
// the paper's background section into O(n·w) per trace — the standard
// engineering choice for attack campaigns on long traces; with the window
// at n the implementation degenerates to the full DP.  DTW-CPA calls
// dtw_align_into.  Both the slope-constrained (P=1) and the unconstrained
// aligner keep O(band) work per row: rolling DP rows plus one banded
// step matrix for the backtrack.  All DP scratch (rolling rows, step
// matrix, backtrack accumulators) lives in per-thread reusable workspaces,
// so steady-state calls allocate nothing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rftc::analysis {

struct DtwParams {
  /// Sakoe–Chiba band half-width in samples.  0 selects the unconstrained
  /// full O(n^2) DP.
  std::size_t band = 16;
  /// Enforce the Sakoe–Chiba P=1 slope constraint: the alignment path
  /// may locally stretch or compress time by at most 2x.  Unconstrained
  /// warping on smooth band-limited traces "aligns" the amplitude noise
  /// itself and launders the leakage out of the traces; every practical
  /// elastic-alignment implementation constrains the slope for exactly
  /// this reason.  It also bounds how much frequency randomization the
  /// alignment can undo (a 12 MHz round cannot be matched to a 48 MHz
  /// reference), which is the mechanism behind the paper's observation
  /// that DTW fails once the frequency spread is large (§8).
  bool slope_constrained = true;
};

/// Warp `trace` onto the time base of `reference`: returns a vector of
/// reference length where each entry is the mean of the trace samples the
/// optimal DTW path matches to that reference sample.
std::vector<float> dtw_align(std::span<const double> reference,
                             std::span<const float> trace,
                             const DtwParams& params = {});

/// Allocation-free dtw_align: writes the warped trace into `out` (resized
/// to reference length; capacity is reused across calls).  Campaign loops
/// call this once per trace with a long-lived `out`, and the DP scratch is
/// per-thread and reused, so the hot loop does no per-call heap work.
void dtw_align_into(std::span<const double> reference,
                    std::span<const float> trace, const DtwParams& params,
                    std::vector<float>& out);

}  // namespace rftc::analysis
