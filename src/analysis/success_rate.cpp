#include "analysis/success_rate.hpp"

#include <algorithm>
#include <stdexcept>

namespace rftc::analysis {

std::size_t SuccessRateCurve::traces_to_reach(double level) const {
  for (std::size_t i = 0; i < checkpoints.size(); ++i)
    if (success_rate[i] >= level) return checkpoints[i];
  return 0;
}

std::vector<SuccessRateCurve> estimate_success_rate(
    const CampaignFactory& factory, const aes::Block& round10_key,
    std::span<const AttackParams> attacks, const SuccessRateParams& params) {
  if (params.checkpoints.empty())
    throw std::invalid_argument("estimate_success_rate: no checkpoints");
  if (params.repeats == 0)
    throw std::invalid_argument("estimate_success_rate: zero repeats");

  std::vector<std::size_t> cps = params.checkpoints;
  std::sort(cps.begin(), cps.end());
  const std::size_t max_n = cps.back();

  std::vector<SuccessRateCurve> curves(attacks.size());
  for (SuccessRateCurve& curve : curves) {
    curve.checkpoints = cps;
    curve.success_rate.assign(cps.size(), 0.0);
    curve.mean_rank.assign(cps.size(), 0.0);
  }
  for (unsigned r = 0; r < params.repeats; ++r) {
    const trace::TraceSet set = factory(r, max_n);
    for (std::size_t a = 0; a < attacks.size(); ++a) {
      AttackParams attack = attacks[a];
      attack.checkpoints = cps;
      const AttackOutcome out = run_attack(set, round10_key, attack);
      if (out.checkpoints != cps)
        throw std::logic_error("estimate_success_rate: checkpoint mismatch");
      for (std::size_t i = 0; i < cps.size(); ++i) {
        curves[a].success_rate[i] += out.success[i] ? 1.0 : 0.0;
        curves[a].mean_rank[i] += out.mean_rank[i];
      }
    }
  }
  for (SuccessRateCurve& curve : curves) {
    for (std::size_t i = 0; i < cps.size(); ++i) {
      curve.success_rate[i] /= static_cast<double>(params.repeats);
      curve.mean_rank[i] /= static_cast<double>(params.repeats);
    }
  }
  return curves;
}

}  // namespace rftc::analysis
