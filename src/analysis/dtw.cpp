#include "analysis/dtw.hpp"

#include <algorithm>
#include <cmath>
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
// the inputs (n <-> m with i <-> j), so dtw_distance(a, b) == dtw_distance
// (b, a) for any band — the earlier floor-truncated "center = i*m/n,
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

enum Move : std::uint8_t { kDiag = 0, kUp = 1, kLeft = 2, kNone = 3 };

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
  std::vector<std::uint8_t> moves;     // banded align move matrix
  std::vector<std::size_t> row_lo;     // per-row band start (backtrack)
  std::vector<double> dense;           // P=1 dense DP values
  std::vector<std::uint8_t> step;      // P=1 step provenance
  std::vector<double> sum;             // backtrack accumulators
  std::vector<std::uint32_t> cnt;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwParams& params) {
  const std::size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) throw std::invalid_argument("dtw_distance: empty");
  Band band{n, m, effective_band(n, m, params)};

  // prev[0] = D(0, 0) = 0 anchors the path start: cell (1, 1) reads it as
  // its diagonal predecessor inside the sweep, so no post-sweep patching of
  // row 1 is needed (the band always contains (1, 1) because
  // w >= |n - m| implies |m - n| <= w * max(n, m)).
  Workspace& ws = workspace();
  ws.prev.assign(m + 1, kInf);
  ws.cur.assign(m + 1, kInf);
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
    const double ai = a[i - 1];
    for (std::size_t j = lo; j <= hi; ++j) {
      const double best = std::min({prev[j - 1], prev[j], cur[j - 1]});
      if (best == kInf) continue;
      const double d = ai - b[j - 1];
      cur[j] = d * d + best;
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

namespace {

/// Slope-constrained alignment (Sakoe–Chiba P = 1 step pattern): the path
/// is built from steps (1,1), (1,2) and (2,1), so each reference sample
/// matches between half and two trace samples.
void dtw_align_p1(std::span<const double> reference,
                  std::span<const float> trace, const DtwParams& params,
                  std::vector<float>& out) {
  const std::size_t n = reference.size(), m = trace.size();
  Band band{n, m, effective_band(n, m, params)};

  auto cost = [&](std::size_t i, std::size_t j) {
    const double d = reference[i - 1] - static_cast<double>(trace[j - 1]);
    return d * d;
  };
  auto in_band = [&](std::size_t i, std::size_t j) {
    return j >= band.lo(i) && j <= band.hi(i);
  };

  // Full (n+1) x (m+1) DP with step provenance.  Traces here are the
  // downsampled attack representations (a few hundred samples), so the
  // dense matrix is cheap and the code stays simple.
  const double inf = kInf;
  Workspace& ws = workspace();
  ws.dense.assign((n + 1) * (m + 1), inf);
  ws.step.assign((n + 1) * (m + 1), 255);
  std::vector<double>& d = ws.dense;
  std::vector<std::uint8_t>& step = ws.step;
  auto at = [&](std::size_t i, std::size_t j) -> double& {
    return d[i * (m + 1) + j];
  };
  at(0, 0) = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = band.lo(i); j <= band.hi(i); ++j) {
      if (!in_band(i, j)) continue;
      const double c = cost(i, j);
      double best = inf;
      std::uint8_t how = 255;
      if (at(i - 1, j - 1) < inf && at(i - 1, j - 1) + c < best) {
        best = at(i - 1, j - 1) + c;
        how = 0;  // (1,1)
      }
      if (j >= 2 && at(i - 1, j - 2) < inf) {
        const double v = at(i - 1, j - 2) + cost(i, j - 1) + c;
        if (v < best) {
          best = v;
          how = 1;  // (1,2): one ref sample consumes two trace samples
        }
      }
      if (i >= 2 && at(i - 2, j - 1) < inf) {
        const double v = at(i - 2, j - 1) + cost(i - 1, j) + c;
        if (v < best) {
          best = v;
          how = 2;  // (2,1): two ref samples share one trace sample
        }
      }
      if (how != 255) {
        at(i, j) = best;
        step[i * (m + 1) + j] = how;
      }
    }
  }

  // Backtrack, accumulating matched trace samples per reference index.
  ws.sum.assign(n, 0.0);
  ws.cnt.assign(n, 0);
  std::vector<double>& sum = ws.sum;
  std::vector<std::uint32_t>& cnt = ws.cnt;
  std::size_t i = n, j = m;
  out.resize(n);
  if (at(n, m) >= inf) {
    // End point unreachable under the slope constraint (extreme stretch):
    // return the trace unwarped (resampled if lengths differ) — the
    // alignment honestly failed, as it does on hardware.
    for (std::size_t k = 0; k < n; ++k)
      out[k] = trace[std::min(m - 1, k * m / n)];
    return;
  }
  while (i >= 1 && j >= 1) {
    sum[i - 1] += static_cast<double>(trace[j - 1]);
    ++cnt[i - 1];
    const std::uint8_t how = step[i * (m + 1) + j];
    if (i == 1 && j == 1) break;
    switch (how) {
      case 0:
        --i;
        --j;
        break;
      case 1:
        sum[i - 1] += static_cast<double>(trace[j - 2]);
        ++cnt[i - 1];
        --i;
        j -= 2;
        break;
      case 2:
        sum[i - 1 - 1] += static_cast<double>(trace[j - 1]);
        ++cnt[i - 1 - 1];
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

  for (std::size_t k = 0; k < n; ++k)
    out[k] = cnt[k] ? static_cast<float>(sum[k] / cnt[k])
                    : static_cast<float>(reference[k]);
}

void dtw_align_banded(std::span<const double> reference,
                      std::span<const float> trace, const DtwParams& params,
                      std::vector<float>& out) {
  const std::size_t n = reference.size(), m = trace.size();
  Band band{n, m, effective_band(n, m, params)};
  const std::size_t bw = band.width();

  // Banded DP with full move matrix for backtracking.
  Workspace& ws = workspace();
  ws.prev.assign(m + 1, kInf);
  ws.cur.assign(m + 1, kInf);
  ws.moves.assign(n * bw, kNone);
  ws.row_lo.assign(n + 1, 0);
  double* prev = ws.prev.data();
  double* cur = ws.cur.data();
  std::vector<std::uint8_t>& moves = ws.moves;
  std::vector<std::size_t>& row_lo = ws.row_lo;
  prev[0] = 0.0;

  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = band.lo(i), hi = band.hi(i);
    // Same stale-cell guard as dtw_distance: clear through the next row's
    // band end so the rolling prev reads only written-or-cleared cells.
    const std::size_t clear_hi = i < n ? std::max(hi, band.hi(i + 1)) : hi;
    std::fill(cur + (lo - 1), cur + clear_hi + 1, kInf);
    row_lo[i] = lo;
    const double ri = reference[i - 1];
    for (std::size_t j = lo; j <= hi; ++j) {
      const double d = ri - static_cast<double>(trace[j - 1]);
      const double cost = d * d;
      double best = kInf;
      Move mv = kNone;
      const bool start = (i == 1 && j == 1);
      if (start) {
        best = 0.0;
        mv = kDiag;  // anchors to (0,0)
      } else {
        if (prev[j - 1] < best) { best = prev[j - 1]; mv = kDiag; }
        if (prev[j] < best) { best = prev[j]; mv = kUp; }
        if (cur[j - 1] < best) { best = cur[j - 1]; mv = kLeft; }
      }
      if (mv == kNone) continue;
      cur[j] = cost + best;
      moves[(i - 1) * bw + (j - lo)] = mv;
    }
    std::swap(prev, cur);
  }

  // Backtrack from (n, m); if (n, m) fell outside the band the alignment is
  // degenerate — fall back to the band's last reachable column.
  std::size_t i = n, j = m;
  if (!(band.lo(n) <= m && m <= band.hi(n)) || prev[m] == kInf) j = band.hi(n);

  ws.sum.assign(n, 0.0);
  ws.cnt.assign(n, 0);
  std::vector<double>& sum = ws.sum;
  std::vector<std::uint32_t>& cnt = ws.cnt;
  while (true) {
    sum[i - 1] += static_cast<double>(trace[j - 1]);
    ++cnt[i - 1];
    if (i == 1 && j == 1) break;
    const std::size_t lo = row_lo[i];
    Move mv = kNone;
    if (j >= lo && j <= lo + bw - 1)
      mv = static_cast<Move>(moves[(i - 1) * bw + (j - lo)]);
    switch (mv) {
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
      case kNone:
      default:
        // Escape hatch for out-of-band states: walk the diagonal.
        if (i > 1) --i;
        if (j > 1) --j;
        if (i == 1 && j == 1) break;
        break;
    }
  }

  out.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    out[k] = cnt[k] ? static_cast<float>(sum[k] / cnt[k])
                    : static_cast<float>(reference[k]);
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
