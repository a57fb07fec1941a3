// Dense P=1 DTW oracle: the full (n+1) x (m+1) slope-constrained DP that
// the rolling, banded analysis::dtw_align (slope_constrained = true) must
// reproduce bit for bit.  Every cell of a dense value matrix and a dense
// step matrix is allocated, the cost of a cell is recomputed by each
// candidate that needs it, and the compare chain branches on the data.
// It is slow by design and small enough to check by eye.
//
// The production aligner keeps the candidate order (diag, (1,2), (2,1)),
// the strict `<` and the association `(D + cost) + c`, so its warped
// output equals dtw_align_p1_oracle()'s exactly; test_pbt_dtw compares the
// two with memcmp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "analysis/dtw.hpp"

namespace rftc::analysis::oracle {

/// The symmetric scaled Sakoe–Chiba band of dtw.cpp, row i (1-based):
/// columns [lo(i), hi(i)] with |i*m - j*n| <= w * max(n, m).
struct DenseBand {
  std::size_t n, m, w;
  std::size_t W() const { return w * std::max(n, m); }
  std::size_t lo(std::size_t i) const {
    const std::size_t im = i * m, width = W();
    if (im <= width) return 1;
    return std::max<std::size_t>(1, (im - width + n - 1) / n);
  }
  std::size_t hi(std::size_t i) const {
    return std::min(m, (i * m + W()) / n);
  }
};

inline std::size_t dense_effective_band(std::size_t n, std::size_t m,
                                        const DtwParams& params) {
  return params.band == 0
             ? std::max(n, m)
             : std::max(params.band, (n > m ? n - m : m - n));
}

/// Slope-constrained alignment (Sakoe–Chiba P = 1 step pattern): the path
/// is built from steps (1,1), (1,2) and (2,1), so each reference sample
/// matches between half and two trace samples.
inline void dtw_align_p1_oracle(std::span<const double> reference,
                                std::span<const float> trace,
                                const DtwParams& params,
                                std::vector<float>& out) {
  const std::size_t n = reference.size(), m = trace.size();
  DenseBand band{n, m, dense_effective_band(n, m, params)};

  auto cost = [&](std::size_t i, std::size_t j) {
    const double d = reference[i - 1] - static_cast<double>(trace[j - 1]);
    return d * d;
  };
  auto in_band = [&](std::size_t i, std::size_t j) {
    return j >= band.lo(i) && j <= band.hi(i);
  };

  // Full (n+1) x (m+1) DP with step provenance.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> d((n + 1) * (m + 1), inf);
  std::vector<std::uint8_t> step((n + 1) * (m + 1), 255);
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
  std::vector<double> sum(n, 0.0);
  std::vector<std::uint32_t> cnt(n, 0);
  std::size_t i = n, j = m;
  out.resize(n);
  if (at(n, m) >= inf) {
    // End point unreachable under the slope constraint (extreme stretch):
    // return the trace unwarped (resampled if lengths differ).
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

}  // namespace rftc::analysis::oracle
