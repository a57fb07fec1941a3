// DTW property: bit-identity of the rolling, banded P=1 aligner with the
// dense oracle of tests/dtw_oracle.hpp, quantified over random quantized
// reference/trace pairs and band widths (including the unreachable-end
// fallback and bands below the length gap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dtw.hpp"
#include "dtw_oracle.hpp"
#include "pbt/generators.hpp"
#include "pbt/pbt.hpp"

namespace rftc {
namespace {

using analysis::DtwParams;
using analysis::dtw_align_into;
using pbt::Config;
using pbt::Rng;

struct AlignCase {
  std::vector<double> ref;
  std::vector<float> trace;
  std::size_t band = 0;
};

/// Values on a 1/64 grid with a per-case level count (down to a single
/// level), so equal costs and equal candidate sums — the ties the strict <
/// and the candidate order decide — are common.
std::vector<double> quantized(Rng& rng, std::size_t len, std::int64_t levels) {
  std::vector<double> v(len);
  for (double& x : v)
    x = static_cast<double>(pbt::gen::int_in(rng, -levels, levels)) / 64.0;
  return v;
}

AlignCase gen_align_case(Rng& rng) {
  AlignCase c;
  std::size_t n = pbt::gen::size_in(rng, 1, 160);
  std::size_t m = pbt::gen::size_in(rng, 1, 160);
  if (rng.uniform(8) == 0) {
    // m > 2n: the P=1 path cannot reach (n, m) and the aligner must take
    // its unwarped fallback.
    n = pbt::gen::size_in(rng, 1, 79);
    m = pbt::gen::size_in(rng, 2 * n + 1, 160);
  }
  const std::int64_t levels =
      static_cast<std::int64_t>(pbt::gen::size_in(rng, 0, 128));
  c.ref = quantized(rng, n, levels);
  const std::vector<double> t = quantized(rng, m, levels);
  c.trace.assign(t.begin(), t.end());
  const std::size_t gap = n > m ? n - m : m - n;
  switch (rng.uniform(5)) {
    case 0:
      c.band = 0;  // unconstrained: the band covers the whole matrix
      break;
    case 1:
      // Below |n - m|: the effective band widens to the length gap.
      c.band = gap > 1 ? pbt::gen::size_in(rng, 1, gap - 1) : 1;
      break;
    case 2:
      // Narrow: optimal paths run along the band edges, where the cost
      // rows must reach past the current row's window.
      c.band = pbt::gen::size_in(rng, 1, 3);
      break;
    default:
      c.band = pbt::gen::size_in(rng, 1, 48);
      break;
  }
  return c;
}

std::string show_align_case(const AlignCase& c) {
  std::ostringstream os;
  os << "n=" << c.ref.size() << " m=" << c.trace.size() << " band=" << c.band
     << " ref=[";
  for (const double x : c.ref) os << x << " ";
  os << "] trace=[";
  for (const float x : c.trace) os << x << " ";
  os << "]";
  return os.str();
}

std::vector<AlignCase> shrink_align_case(const AlignCase& c) {
  std::vector<AlignCase> out;
  for (auto& cand : pbt::shrink_vector<double>(c.ref)) {
    if (cand.empty()) continue;
    AlignCase s = c;
    s.ref = std::move(cand);
    out.push_back(std::move(s));
  }
  for (auto& cand : pbt::shrink_vector<float>(c.trace)) {
    if (cand.empty()) continue;
    AlignCase s = c;
    s.trace = std::move(cand);
    out.push_back(std::move(s));
  }
  for (const std::uint64_t band : pbt::shrink_uint(c.band, 0)) {
    AlignCase s = c;
    s.band = static_cast<std::size_t>(band);
    out.push_back(std::move(s));
  }
  return out;
}

TEST(PbtDtw, AlignMatchesDenseOracleBitForBit) {
  // Every case runs on this thread, so the aligner's per-thread workspace
  // and the output buffer are reused across all shapes, as in a campaign.
  const Config cfg = Config::from_env(0xD7B003, 2000);
  std::vector<float> got, want;
  const bool ok = pbt::check<AlignCase>(
      "dtw_align_p1_matches_dense_oracle", gen_align_case,
      [&](const AlignCase& c) -> std::optional<std::string> {
        const DtwParams params{.band = c.band, .slope_constrained = true};
        dtw_align_into(c.ref, c.trace, params, got);
        analysis::oracle::dtw_align_p1_oracle(c.ref, c.trace, params, want);
        if (got.size() != want.size() ||
            std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(float)) != 0) {
          std::ostringstream os;
          for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k)
            if (std::memcmp(&got[k], &want[k], sizeof(float)) != 0) {
              os << "first differing sample " << k << ": " << got[k]
                 << " != oracle " << want[k] << "; ";
              break;
            }
          os << "sizes " << got.size() << " vs " << want.size();
          return os.str();
        }
        return std::nullopt;
      },
      cfg, shrink_align_case, show_align_case);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace rftc
