// Scalar CPA oracle: the textbook per-trace accumulator that the class-sum
// /WHT CpaEngine must reproduce.  Every trace does the full rank-1 update
// of sum_ht[byte][guess][sample] (256 guesses × S samples) from the scalar
// per-guess leakage model, in plain loops: no SIMD, threads, tiles or
// merge.  It is slow by design and small enough to check by eye.
//
// On ADC-quantized traces (multiples of the 400/256 mV quantum, as every
// simulator output is) each product and partial sum is an exact small
// multiple of that quantum, so report() equals CpaEngine::report() bit for
// bit.  The determinism, SIMD, fault, convergence, store and dist tests,
// fig4_cpa_speedup's serial arm and microbench's BM_CpaAdd /
// BM_CpaReportStreaming compare against it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "aes/leakage.hpp"
#include "analysis/attacks.hpp"
#include "analysis/convergence.hpp"
#include "analysis/cpa.hpp"
#include "trace/trace_set.hpp"

namespace rftc::analysis {

class CpaOracle {
 public:
  CpaOracle(std::size_t samples, std::vector<int> byte_positions,
            aes::LeakageModel model = aes::LeakageModel::kLastRoundHd)
      : samples_(samples),
        bytes_(std::move(byte_positions)),
        model_(model),
        sum_t_(samples_, 0.0),
        sum_t2_(samples_, 0.0),
        sum_h_(bytes_.size() * 256, 0),
        sum_h2_(bytes_.size() * 256, 0),
        sum_ht_(bytes_.size() * 256 * samples_, 0.0) {}

  void add(const aes::Block& plaintext, const aes::Block& ciphertext,
           std::span<const float> trace) {
    if (trace.size() != samples_)
      throw std::invalid_argument("CpaOracle::add: sample count mismatch");
    ++n_;
    const std::vector<double> t(trace.begin(), trace.end());
    for (std::size_t s = 0; s < samples_; ++s) {
      sum_t_[s] += t[s];
      sum_t2_[s] += t[s] * t[s];
    }
    for (std::size_t bi = 0; bi < bytes_.size(); ++bi) {
      for (std::size_t g = 0; g < 256; ++g) {
        const auto guess = static_cast<std::uint8_t>(g);
        const std::int64_t h =
            model_ == aes::LeakageModel::kLastRoundHd
                ? aes::last_round_hd_hypothesis(ciphertext, bytes_[bi], guess)
                : aes::first_round_hw_hypothesis(plaintext, bytes_[bi], guess);
        sum_h_[bi * 256 + g] += h;
        sum_h2_[bi * 256 + g] += h * h;
        if (h == 0) continue;
        double* ht = sum_ht_.data() + (bi * 256 + g) * samples_;
        for (std::size_t s = 0; s < samples_; ++s)
          ht[s] += static_cast<double>(h) * t[s];
      }
    }
  }

  /// Last-round model only (the plaintext is unused there).
  void add(const aes::Block& ciphertext, std::span<const float> trace) {
    add(aes::Block{}, ciphertext, trace);
  }

  std::size_t count() const { return n_; }

  /// max_s |corr(g, s)| per guess and attacked byte; a guess or sample
  /// without variance scores 0.
  std::vector<CpaEngine::ByteReport> report() const {
    std::vector<CpaEngine::ByteReport> out(bytes_.size());
    const double n = static_cast<double>(n_);
    for (std::size_t bi = 0; bi < bytes_.size(); ++bi) {
      out[bi].byte_pos = bytes_[bi];
      for (std::size_t g = 0; g < 256; ++g) {
        const double sh = static_cast<double>(sum_h_[bi * 256 + g]);
        const double sh2 = static_cast<double>(sum_h2_[bi * 256 + g]);
        const double dh = n * sh2 - sh * sh;
        if (dh <= 0.0) continue;
        const double* ht = sum_ht_.data() + (bi * 256 + g) * samples_;
        double peak = 0.0;
        for (std::size_t s = 0; s < samples_; ++s) {
          const double num = n * ht[s] - sh * sum_t_[s];
          const double dt = n * sum_t2_[s] - sum_t_[s] * sum_t_[s];
          if (dt <= 0.0) continue;
          peak = std::max(peak, std::fabs(num / std::sqrt(dh * dt)));
        }
        out[bi].peak_abs_corr[g] = peak;
      }
    }
    return out;
  }

 private:
  std::size_t samples_;
  std::vector<int> bytes_;
  aes::LeakageModel model_;
  std::size_t n_ = 0;
  std::vector<double> sum_t_, sum_t2_;
  std::vector<std::int64_t> sum_h_, sum_h2_;
  std::vector<double> sum_ht_;  // [byte][guess][sample]
};

/// run_attack's plain-CPA outcome recomputed through the oracle: it is fed
/// set.downsampled(params.downsample) in trace order and scored with
/// evaluate_attack_checkpoint at every normalized checkpoint, each handed
/// to params.monitor as run_attack does.
inline AttackOutcome oracle_attack(const trace::TraceSet& set,
                                   const aes::Block& correct_key,
                                   const AttackParams& params) {
  if (params.kind != AttackKind::kCpa)
    throw std::invalid_argument("oracle_attack: plain CPA only");
  const trace::TraceSet ds =
      set.downsampled(std::max<std::size_t>(1, params.downsample));
  CpaOracle oracle(ds.samples(), normalized_byte_positions(params),
                   params.leakage);
  AttackOutcome out;
  out.kind = params.kind;
  std::size_t fed = 0;
  for (const std::size_t cp : normalized_checkpoints(params, ds.size())) {
    for (; fed < cp; ++fed)
      oracle.add(ds.plaintext(fed), ds.ciphertext(fed), ds.trace(fed));
    const AttackCheckpoint ev =
        evaluate_attack_checkpoint(oracle.report(), correct_key);
    out.record(cp, ev);
    if (params.monitor != nullptr) params.monitor->observe_cpa(ev, cp);
  }
  return out;
}

}  // namespace rftc::analysis
