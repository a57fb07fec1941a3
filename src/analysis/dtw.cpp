#include "analysis/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace rftc::analysis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Band description for row i (1-based): columns [lo(i), hi(i)] inclusive.
//
// Membership is the symmetric scaled Sakoe–Chiba condition
//   |i*m - j*n| <= w * max(n, m)
// in exact integer arithmetic.  The condition is invariant under swapping
// the inputs (n <-> m with i <-> j), so the band admits the same cells in
// either orientation — the earlier floor-truncated "center = i*m/n,
// j in [center-w, center+w]" geometry admitted cells in one orientation it
// excluded in the other and broke that symmetry.  For n == m it reduces to
// the classic |i - j| <= w band, cell for cell.
struct Band {
  std::size_t n, m, w;
  /// Half-width in the cross-multiplied (j*n) units.
  std::size_t W() const { return w * std::max(n, m); }
  std::size_t lo(std::size_t i) const {
    const std::size_t im = i * m, width = W();
    if (im <= width) return 1;
    // Smallest j with j*n >= i*m - W.
    return std::max<std::size_t>(1, (im - width + n - 1) / n);
  }
  std::size_t hi(std::size_t i) const {
    // Largest j <= m with j*n <= i*m + W.
    return std::min(m, (i * m + W()) / n);
  }
  /// Upper bound on hi(i) - lo(i) + 1 over all rows (move-matrix stride).
  std::size_t width() const {
    return std::min<std::size_t>(m, 2 * W() / n + 2);
  }
};

// One step code per cell of the banded step matrix.  dtw_align_banded
// stores Move codes; dtw_align_p1 stores its step pattern (0 = (1,1),
// 1 = (1,2), 2 = (2,1)).  Both leave unreached cells at kNoStep.
enum Move : std::uint8_t { kDiag = 0, kUp = 1, kLeft = 2 };
constexpr std::uint8_t kNoStep = 255;

std::size_t effective_band(std::size_t n, std::size_t m,
                           const DtwParams& params) {
  return params.band == 0
             ? std::max(n, m)
             : std::max(params.band, (n > m ? n - m : m - n));
}

// Per-thread reusable DP scratch.  rftc::par worker threads each own one
// instance; assign()/resize() keep the underlying capacity, so steady-state
// calls do no heap work (the per-call-allocation fix of the campaign hot
// loop).  DTW never calls itself reentrantly, so a single workspace per
// thread suffices.
struct Workspace {
  std::vector<double> prev, cur;       // rolling DP rows
  std::vector<double> prev2;           // P=1 row i-2
  std::vector<double> cost, cost_prev; // P=1 cost(i, .) and cost(i-1, .)
  std::vector<std::uint8_t> moves;     // banded step matrix
  std::vector<std::size_t> row_lo;     // per-row band start (backtrack)
  std::size_t bw = 0;                  // step-matrix stride
  std::vector<double> sum;             // backtrack accumulators
  std::vector<std::uint32_t> cnt;

  // Banded step matrix: row i (1-based) keeps columns
  // [row_lo[i], row_lo[i] + bw) at moves[(i - 1) * bw + (j - row_lo[i])].
  void reset_steps(std::size_t n, std::size_t stride) {
    bw = stride;
    moves.assign(n * bw, kNoStep);
    row_lo.assign(n + 1, 0);
  }
  /// Row i's slice of the step matrix, indexed by j - lo.
  std::uint8_t* step_row(std::size_t i, std::size_t lo) {
    row_lo[i] = lo;
    return moves.data() + (i - 1) * bw;
  }
  /// Step code of cell (i, j); kNoStep outside row i's window.
  std::uint8_t step(std::size_t i, std::size_t j) const {
    const std::size_t lo = row_lo[i];
    return j >= lo && j < lo + bw ? moves[(i - 1) * bw + (j - lo)] : kNoStep;
  }

  void reset_matches(std::size_t n) {
    sum.assign(n, 0.0);
    cnt.assign(n, 0);
  }
  /// Match trace sample j (1-based) to reference sample i (1-based).
  void match(std::size_t i, std::size_t j, std::span<const float> trace) {
    sum[i - 1] += static_cast<double>(trace[j - 1]);
    ++cnt[i - 1];
  }
  /// Each output sample is the mean of the trace samples matched to it,
  /// or the reference sample itself when the path matched none.
  void write_means(std::span<const double> reference,
                   std::vector<float>& out) const {
    out.resize(reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k)
      out[k] = cnt[k] ? static_cast<float>(sum[k] / cnt[k])
                      : static_cast<float>(reference[k]);
  }
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// One link of the P=1 select chain: `v` takes over `best` (and its step
/// code `how`) only when strictly smaller.  The step code merges through a
/// mask, so the chain compiles without data-dependent branches; GCC turned
/// a ternary on `how` into a jump that made BM_DtwAlignInto, which cycles
/// through distinct traces, about twice as slow.
inline void take_if_less(double v, unsigned code, double& best,
                         unsigned& how) {
  const unsigned take = 0u - static_cast<unsigned>(v < best);
  how ^= (how ^ code) & take;
  best = v < best ? v : best;
}

/// Slope-constrained alignment (Sakoe–Chiba P = 1 step pattern): the path
/// is built from steps (1,1), (1,2) and (2,1), so each reference sample
/// matches between half and two trace samples.
///
/// D(i, j) is the smallest of these candidates, a tie going to the earlier
/// one:
///   D(i-1, j-1) + c(i, j)                (1,1)
///   (D(i-1, j-2) + c(i, j-1)) + c(i, j)  (1,2)
///   (D(i-2, j-1) + c(i-1, j)) + c(i, j)  (2,1)
/// A row reads rows i-1 and i-2 only, never its own left neighbour, so the
/// DP keeps three rolling rows and two rolling cost rows, and each band
/// cell is one branch-free select chain.  Cells outside the band read as
/// +inf, and so does every row-0 cell except the anchor D(0, 0) = 0.
void dtw_align_p1(std::span<const double> reference,
                  std::span<const float> trace, const DtwParams& params,
                  std::vector<float>& out) {
  const std::size_t n = reference.size(), m = trace.size();
  Band band{n, m, effective_band(n, m, params)};

  // Row buffers hold column j at index j + 1, so index 0 is column -1: the
  // (1,2) predecessor of column 1, which must read +inf.
  Workspace& ws = workspace();
  ws.prev2.assign(m + 2, kInf);
  ws.prev.assign(m + 2, kInf);
  ws.cur.assign(m + 2, kInf);
  ws.cost.assign(m + 1, 0.0);
  ws.cost_prev.assign(m + 1, 0.0);
  ws.reset_steps(n, band.width());
  double* r2 = ws.prev2.data();     // row i-2 (starts as row -1: all +inf)
  double* r1 = ws.prev.data();      // row i-1 (starts as row 0)
  double* r0 = ws.cur.data();       // row i
  double* c0 = ws.cost.data();      // c(i, .)
  double* c1 = ws.cost_prev.data(); // c(i-1, .)
  r1[1] = 0.0;                      // D(0, 0)
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = band.lo(i), hi = band.hi(i);
    // This buffer last held row i-3.  Row i+1 reads it over columns
    // [lo(i+1)-2, hi(i+1)-1] and row i+2 over [lo(i+2)-1, hi(i+2)-1]; both
    // lie in [lo-2, hi(i+2)], so clearing that window leaves no stale cell
    // where a later row reads.
    std::fill(r0 + (lo - 1), r0 + band.hi(i + 2) + 2, kInf);
    // c(i, .) covers every column read: lo-1 by this row's (1,2) step and
    // up to hi(i+1) by the next row's (2,1) step.
    const double ri = reference[i - 1];
    for (std::size_t j = lo > 1 ? lo - 1 : 1, end = band.hi(i + 1); j <= end;
         ++j) {
      const double d = ri - static_cast<double>(trace[j - 1]);
      c0[j] = d * d;
    }
    std::uint8_t* steps = ws.step_row(i, lo);
    for (std::size_t j = lo; j <= hi; ++j) {
      // +inf predecessors give +inf sums, which never pass the strict <.
      const double c = c0[j];
      const double diag = r1[j] + c;                   // D(i-1, j-1)
      const double right = r1[j - 1] + c0[j - 1] + c;  // D(i-1, j-2)
      const double down = r2[j] + c1[j] + c;           // D(i-2, j-1)
      double best = kInf;
      unsigned how = kNoStep;
      take_if_less(diag, 0, best, how);
      take_if_less(right, 1, best, how);
      take_if_less(down, 2, best, how);
      r0[j + 1] = best;
      steps[j - lo] = static_cast<std::uint8_t>(how);
    }
    double* const recycled = r2;
    r2 = r1;
    r1 = r0;
    r0 = recycled;
    std::swap(c0, c1);
  }

  if (r1[m + 1] == kInf) {
    // End point unreachable under the slope constraint (extreme stretch):
    // return the trace unwarped (resampled if lengths differ) — the
    // alignment honestly failed, as it does on hardware.
    out.resize(n);
    for (std::size_t k = 0; k < n; ++k)
      out[k] = trace[std::min(m - 1, k * m / n)];
    return;
  }
  // Backtrack, accumulating matched trace samples per reference index.
  ws.reset_matches(n);
  std::size_t i = n, j = m;
  while (i >= 1 && j >= 1) {
    ws.match(i, j, trace);
    if (i == 1 && j == 1) break;
    switch (ws.step(i, j)) {
      case 0:
        --i;
        --j;
        break;
      case 1:
        ws.match(i, j - 1, trace);
        --i;
        j -= 2;
        break;
      case 2:
        ws.match(i - 1, j, trace);
        i -= 2;
        --j;
        break;
      default:
        // Should not happen on a reachable path; bail out diagonally.
        if (i > 1) --i;
        if (j > 1) --j;
        break;
    }
  }
  ws.write_means(reference, out);
}

void dtw_align_banded(std::span<const double> reference,
                      std::span<const float> trace, const DtwParams& params,
                      std::vector<float>& out) {
  const std::size_t n = reference.size(), m = trace.size();
  Band band{n, m, effective_band(n, m, params)};

  // Banded DP with a banded step matrix for backtracking.
  Workspace& ws = workspace();
  ws.prev.assign(m + 1, kInf);
  ws.cur.assign(m + 1, kInf);
  ws.reset_steps(n, band.width());
  double* prev = ws.prev.data();
  double* cur = ws.cur.data();
  prev[0] = 0.0;

  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = band.lo(i), hi = band.hi(i);
    // Clearing only the band window keeps the row reset O(band) instead of
    // O(m).  The window must reach the NEXT row's band end: row i+1 reads
    // this buffer (as prev) up to hi(i+1), and with rolling buffers any
    // cell past our own hi would otherwise hold a stale value from row i-2.
    const std::size_t clear_hi = i < n ? std::max(hi, band.hi(i + 1)) : hi;
    std::fill(cur + (lo - 1), cur + clear_hi + 1, kInf);
    std::uint8_t* steps = ws.step_row(i, lo);
    const double ri = reference[i - 1];
    for (std::size_t j = lo; j <= hi; ++j) {
      const double d = ri - static_cast<double>(trace[j - 1]);
      const double cost = d * d;
      double best = kInf;
      std::uint8_t mv = kNoStep;
      const bool start = (i == 1 && j == 1);
      if (start) {
        best = 0.0;
        mv = kDiag;  // anchors to (0,0)
      } else {
        if (prev[j - 1] < best) { best = prev[j - 1]; mv = kDiag; }
        if (prev[j] < best) { best = prev[j]; mv = kUp; }
        if (cur[j - 1] < best) { best = cur[j - 1]; mv = kLeft; }
      }
      if (mv == kNoStep) continue;
      cur[j] = cost + best;
      steps[j - lo] = mv;
    }
    std::swap(prev, cur);
  }

  // Backtrack from (n, m); if (n, m) fell outside the band the alignment is
  // degenerate — fall back to the band's last reachable column.
  std::size_t i = n, j = m;
  if (!(band.lo(n) <= m && m <= band.hi(n)) || prev[m] == kInf) j = band.hi(n);

  ws.reset_matches(n);
  while (true) {
    ws.match(i, j, trace);
    if (i == 1 && j == 1) break;
    switch (ws.step(i, j)) {
      case kDiag:
        if (i > 1) --i;
        if (j > 1) --j;
        break;
      case kUp:
        if (i > 1) --i; else --j;
        break;
      case kLeft:
        if (j > 1) --j; else --i;
        break;
      default:
        // Escape hatch for out-of-band states: walk the diagonal.
        if (i > 1) --i;
        if (j > 1) --j;
        break;
    }
  }
  ws.write_means(reference, out);
}

}  // namespace

void dtw_align_into(std::span<const double> reference,
                    std::span<const float> trace, const DtwParams& params,
                    std::vector<float>& out) {
  const std::size_t n = reference.size(), m = trace.size();
  if (n == 0 || m == 0) throw std::invalid_argument("dtw_align: empty");
  // Tally every alignment so heartbeat readers can see DTW progress (the
  // banded DP dominates the dtw phase; one counter bump per call is noise).
  static obs::Counter& alignments =
      obs::Registry::global().counter("analysis.dtw.alignments");
  alignments.inc();
  if (params.slope_constrained)
    dtw_align_p1(reference, trace, params, out);
  else
    dtw_align_banded(reference, trace, params, out);
}

std::vector<float> dtw_align(std::span<const double> reference,
                             std::span<const float> trace,
                             const DtwParams& params) {
  std::vector<float> out;
  dtw_align_into(reference, trace, params, out);
  return out;
}

}  // namespace rftc::analysis
