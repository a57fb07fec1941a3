// Success-rate estimation [18]: the probability that an attack recovers the
// full key as a function of trace count, estimated over independent
// repeated campaigns — the y-axis of Fig. 4 and Fig. 5.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "analysis/attacks.hpp"
#include "trace/trace_set.hpp"

namespace rftc::analysis {

/// Produces an independent campaign of `n_traces` captures for repetition
/// `repeat` (fresh plaintexts, fresh noise, fresh countermeasure
/// randomness).
using CampaignFactory =
    std::function<trace::TraceSet(std::uint64_t repeat, std::size_t n_traces)>;

struct SuccessRateParams {
  std::vector<std::size_t> checkpoints;
  unsigned repeats = 10;
};

struct SuccessRateCurve {
  std::vector<std::size_t> checkpoints;
  std::vector<double> success_rate;  // per checkpoint, in [0, 1]
  std::vector<double> mean_rank;     // averaged over repeats
  /// Smallest checkpoint where the rate reaches `level`, 0 if never.
  std::size_t traces_to_reach(double level) const;
};

/// One curve per entry of `attacks`, in order.  Each repetition captures
/// one campaign of the largest checkpoint's size and scores every attack on
/// it, so all attacks see the same adversary budget.  The attacks'
/// own `checkpoints` are replaced by the sorted `params.checkpoints`.
std::vector<SuccessRateCurve> estimate_success_rate(
    const CampaignFactory& factory, const aes::Block& round10_key,
    std::span<const AttackParams> attacks, const SuccessRateParams& params);

}  // namespace rftc::analysis
