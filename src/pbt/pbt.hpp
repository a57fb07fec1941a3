// rftc::pbt — a small seedable property-testing framework.
//
// The security argument of the reproduction rests on invariants ("the cipher
// is never clocked from an unlocked MMCM", "statistics are identical no
// matter how traces are chunked or sharded") that example-based tests probe
// only at hand-picked points.  This layer runs each invariant against a
// stream of generated inputs and, on failure, greedily shrinks the
// counterexample and prints a one-line reproducer:
//
//   [rftc::pbt] property 'cpa_merge_associative' FALSIFIED at case 37/200
//   [rftc::pbt]   counterexample (after 12 shrink steps): traces=3 ...
//   [rftc::pbt]   reproduce: RFTC_PBT_SEED=0x3f2a9d11c0ffee25 RFTC_PBT_CASES=1
//
// Replay contract: case i of a run with base seed B draws from an RNG seeded
// with splitmix64(B + i), so re-running with RFTC_PBT_SEED=B+i and
// RFTC_PBT_CASES=1 regenerates exactly the failing input as case 0.  The
// printed seed is that B+i.
//
// Knobs: RFTC_PBT_CASES overrides every property's case count (nightly CI
// turns it up), RFTC_PBT_SEED overrides the base seed (decimal or 0x-hex).
// Each property also has compiled-in defaults so a bare ctest run stays
// fast and deterministic.
//
// Deliberately tiny: properties are plain callables returning an error
// string (std::nullopt = pass), generators are callables T(Rng&), shrinkers
// are optional callables returning smaller candidates.  Everything integrates
// with gtest through a bool return — EXPECT_TRUE(pbt::check(...)).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rftc::pbt {

/// Per-case generator RNG.  Xoshiro seeded through SplitMix64, the same
/// seeding discipline the acquisition layer uses.
using Rng = Xoshiro256StarStar;

struct Config {
  std::size_t cases = 200;
  std::uint64_t seed = 0x5EEDBA5E;
  /// Bound on shrink candidate evaluations after a failure (a safety net so
  /// a pathological shrinker cannot hang a test).
  std::size_t max_shrink_attempts = 1000;

  /// Compiled-in defaults overridden by RFTC_PBT_CASES / RFTC_PBT_SEED.
  static Config from_env(std::uint64_t default_seed,
                         std::size_t default_cases = 200);
};

/// splitmix64(base + index): the seed actually fed to case `index`'s Rng.
std::uint64_t case_seed(std::uint64_t base, std::size_t index);

namespace detail {

void print_falsified(const std::string& name, std::size_t case_index,
                     std::size_t cases, std::uint64_t repro_seed,
                     const std::string& message,
                     const std::string& counterexample,
                     std::size_t shrink_steps);

}  // namespace detail

/// Runs `property` against `cfg.cases` generated inputs.  Returns true when
/// every case passes.  On the first failure, greedily shrinks the input
/// (first improving candidate wins, repeat until no candidate fails or the
/// attempt budget runs out), prints the reproducer line to stderr, and
/// returns false.
///
///   gen:      T(Rng&)                              — input generator
///   property: std::optional<std::string>(const T&) — nullopt = pass
///   shrink:   std::vector<T>(const T&)             — smaller candidates
///                                                    (optional)
///   show:     std::string(const T&)                — printer (optional)
template <typename T>
bool check(const std::string& name,
           const std::function<T(Rng&)>& gen,
           const std::function<std::optional<std::string>(const T&)>& property,
           const Config& cfg = {},
           const std::function<std::vector<T>(const T&)>& shrink = {},
           const std::function<std::string(const T&)>& show = {}) {
  for (std::size_t i = 0; i < cfg.cases; ++i) {
    Rng rng(case_seed(cfg.seed, i));
    T input = gen(rng);
    std::optional<std::string> failure = property(input);
    if (!failure) continue;

    // Greedy shrink: walk toward a minimal failing input, re-checking the
    // property on every candidate so the reported counterexample still
    // falsifies it.
    std::size_t attempts = 0;
    std::size_t steps = 0;
    if (shrink) {
      bool improved = true;
      while (improved && attempts < cfg.max_shrink_attempts) {
        improved = false;
        for (T& candidate : shrink(input)) {
          if (++attempts > cfg.max_shrink_attempts) break;
          if (auto msg = property(candidate)) {
            input = std::move(candidate);
            failure = std::move(msg);
            ++steps;
            improved = true;
            break;
          }
        }
      }
    }

    std::string rendered;
    if (show) {
      rendered = show(input);
    } else {
      std::ostringstream os;
      os << "<no printer; pass a show fn for a rendered counterexample>";
      rendered = os.str();
    }
    detail::print_falsified(name, i, cfg.cases, cfg.seed + i, *failure,
                            rendered, steps);
    return false;
  }
  return true;
}

// ------------------------------------------------------------- shrinkers --
// Building blocks for the `shrink` argument.  All move toward a caller-given
// floor, halving the distance first (fast descent) and then stepping by one
// (minimality).

std::vector<std::int64_t> shrink_int(std::int64_t value, std::int64_t floor);
std::vector<std::uint64_t> shrink_uint(std::uint64_t value,
                                       std::uint64_t floor);
std::vector<double> shrink_real(double value, double floor);

/// Candidates for a vector: drop the second half, drop the first half, drop
/// one element, then shrink each element toward `floor` via shrink_elem.
template <typename T>
std::vector<std::vector<T>> shrink_vector(
    const std::vector<T>& v,
    const std::function<std::vector<T>(const T&)>& shrink_elem = {}) {
  std::vector<std::vector<T>> out;
  const std::size_t n = v.size();
  if (n > 1) {
    out.emplace_back(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2));
    out.emplace_back(v.begin() + static_cast<std::ptrdiff_t>(n / 2), v.end());
  }
  if (n > 0) out.emplace_back(v.begin() + 1, v.end());
  if (shrink_elem) {
    for (std::size_t i = 0; i < n; ++i) {
      for (T& cand : shrink_elem(v[i])) {
        std::vector<T> copy = v;
        copy[i] = std::move(cand);
        out.push_back(std::move(copy));
      }
    }
  }
  return out;
}

}  // namespace rftc::pbt
