#include "analysis/attacks.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "analysis/convergence.hpp"
#include "analysis/fft.hpp"
#include "analysis/pca.hpp"
#include "obs/obs.hpp"
#include "obs/phase_timer.hpp"
#include "util/parallel.hpp"

namespace rftc::analysis {

/// The one checkpoint scorer: a single engine.report() pass serves every
/// quantity a checkpoint records.
AttackCheckpoint evaluate_attack_checkpoint(const CpaEngine& engine,
                                            const aes::Block& correct_key) {
  AttackCheckpoint ev;
  const std::vector<CpaEngine::ByteReport> reports = engine.report();
  ev.recovered = true;
  double rank_sum = 0.0;
  for (const CpaEngine::ByteReport& r : reports) {
    const std::uint8_t correct =
        correct_key[static_cast<std::size_t>(r.byte_pos)];
    const int best = r.best_guess();
    const int rank = r.rank(correct);
    ev.recovered = ev.recovered && best == correct;
    ev.byte_corr.push_back(r.peak_abs_corr[correct]);
    ev.byte_rank.push_back(rank);
    ev.max_rank = std::max(ev.max_rank, rank);
    rank_sum += rank;
    ev.peak_corr =
        std::max(ev.peak_corr, r.peak_abs_corr[static_cast<std::size_t>(best)]);
  }
  ev.mean_rank = rank_sum / static_cast<double>(reports.size());
  return ev;
}

void AttackOutcome::record(std::size_t traces, const AttackCheckpoint& ev) {
  checkpoints.push_back(traces);
  success.push_back(ev.recovered);
  mean_rank.push_back(ev.mean_rank);
  peak_corr.push_back(ev.peak_corr);
  // Convergence checkpoint: correlation peak and key rank vs traces — the
  // quantity Fig. 4/Fig. 5 plot as a success-rate curve.
  RFTC_OBS_INSTANT("analysis", "cpa.checkpoint",
                   {"traces", static_cast<double>(traces)},
                   {"peak_corr", ev.peak_corr}, {"mean_rank", ev.mean_rank});
}

std::vector<int> normalized_byte_positions(const AttackParams& params) {
  std::vector<int> bytes = params.byte_positions;
  if (bytes.empty()) {
    bytes.resize(16);
    std::iota(bytes.begin(), bytes.end(), 0);
  }
  return bytes;
}

std::vector<std::size_t> normalized_checkpoints(const AttackParams& params,
                                                std::size_t total) {
  std::vector<std::size_t> checkpoints = params.checkpoints;
  if (checkpoints.empty()) checkpoints = {total};
  std::sort(checkpoints.begin(), checkpoints.end());
  checkpoints.erase(
      std::remove_if(checkpoints.begin(), checkpoints.end(),
                     [&](std::size_t c) { return c == 0 || c > total; }),
      checkpoints.end());
  if (checkpoints.empty()) checkpoints = {total};
  return checkpoints;
}

namespace {

/// Phase the preprocessing transform of an attack kind bills to (nullptr
/// for plain CPA, which has no transform).
const char* transform_phase(AttackKind kind) {
  switch (kind) {
    case AttackKind::kCpa: return nullptr;
    case AttackKind::kDtwCpa: return obs::kPhaseDtw;
    case AttackKind::kPcaCpa: return obs::kPhasePca;
    case AttackKind::kFftCpa: return obs::kPhaseFft;
    case AttackKind::kSwCpa: return obs::kPhaseSw;
  }
  return nullptr;
}

/// Phase the tile load bills to: mapped store chunks fault in while they
/// are box-averaged, an in-RAM set only feeds the kernel.
const char* load_phase(const trace::TraceSet&) { return obs::kPhaseCpaKernel; }
const char* load_phase(const trace::TraceChunk&) { return obs::kPhaseStoreIo; }

/// The one campaign feed behind run_attack (in-RAM and store) and
/// accumulate_attack_range.  It walks trace ranges of an in-RAM set (a
/// single segment) or a store (chunk by chunk, via for_range) in tiles of
/// the engine's batch size.  Each tile is preprocessed in parallel — box
/// average by the downsample factor, then the attack kind's feature
/// transform, a pure function of the trace — into disjoint rows of one
/// reused buffer, then added to the engine serially in trace order.  The
/// engine therefore sees the same traces in the same order for any thread
/// count, tile size, chunk geometry or range split, so streamed and
/// sharded results are bit-identical to the in-RAM path (the golden
/// streaming and dist tests pin this).
class AttackFeed {
 public:
  /// Validates the source geometry and fits the DTW reference or PCA basis
  /// from the first traces of `src`, as a real attacker would from the
  /// traces at hand.
  template <class Source>
  AttackFeed(const Source& src, const AttackParams& params)
      : params_(params),
        factor_(std::max<std::size_t>(1, params.downsample)),
        samples_(src.samples() / factor_) {
    if (src.size() == 0)
      throw std::invalid_argument("attack: empty trace source");
    if (samples_ == 0)
      throw std::invalid_argument("attack: downsample factor too large");
    features_ = samples_;
    switch (params.kind) {
      case AttackKind::kCpa:
        break;
      case AttackKind::kDtwCpa: {
        obs::PhaseScope setup_phase(obs::kPhaseDtw);
        // Reference: one real capture, as in elastic alignment [22] — every
        // other trace is warped onto its time base.  (A mean over
        // differently clocked traces would smear the round pulses and give
        // the DP nothing to lock onto.)  Among the first dtw_ref_traces
        // captures we pick the one whose length (completion) is closest to
        // the median so extreme stretches are halved.
        const std::size_t nref = std::max<std::size_t>(
            1, std::min(params.dtw_ref_traces, src.size()));
        const trace::TraceSet head = prefix(src, nref);
        // Rank candidate references by total energy (a proxy for capture
        // length: longer encryptions spread energy further right), and
        // take the median.
        std::vector<std::pair<double, std::size_t>> energy(nref);
        for (std::size_t i = 0; i < nref; ++i) {
          double centroid = 0.0, mass = 0.0;
          const auto tr = head.trace(i);
          for (std::size_t s = 0; s < tr.size(); ++s) {
            centroid += static_cast<double>(tr[s]) * static_cast<double>(s);
            mass += static_cast<double>(tr[s]);
          }
          energy[i] = {mass > 0 ? centroid / mass : 0.0, i};
        }
        std::sort(energy.begin(), energy.end());
        const auto ref_tr = head.trace(energy[nref / 2].second);
        dtw_ref_.assign(ref_tr.begin(), ref_tr.end());
        break;
      }
      case AttackKind::kPcaCpa: {
        obs::PhaseScope setup_phase(obs::kPhasePca);
        const std::size_t nfit = std::min(params.pca_fit_traces, src.size());
        pca_ = compute_pca(prefix(src, nfit), params.pca_components, nfit);
        features_ = pca_.dims();
        break;
      }
      case AttackKind::kFftCpa:
        features_ = next_pow2(samples_) / 2;
        break;
      case AttackKind::kSwCpa:
        features_ = samples_ >= window() ? (samples_ - window()) / stride() + 1
                                         : 1;
        break;
    }
  }

  std::size_t features() const { return features_; }

  /// Feeds traces [t0, t1) of `src` to `engine`, whose geometry must be
  /// features() samples.
  template <class Source>
  void feed(CpaEngine& engine, const Source& src, std::size_t t0,
            std::size_t t1) {
    static obs::Counter& traces_attacked =
        obs::Registry::global().counter("analysis.traces_attacked");
    const std::size_t tile = std::max<std::size_t>(1, engine.batch_size());
    const bool identity = params_.kind == AttackKind::kCpa && factor_ == 1;
    rows_.resize(identity ? 0 : tile * features_);
    src.for_range(t0, t1, [&](const auto& seg, std::size_t k0,
                              std::size_t k1) {
      for (std::size_t i = k0; i < k1;) {
        const std::size_t n = std::min(tile, k1 - i);
        if (identity) {
          obs::PhaseScope kernel_phase(obs::kPhaseCpaKernel);
          for (std::size_t j = i; j < i + n; ++j)
            engine.add(seg.plaintext(j), seg.ciphertext(j), seg.trace(j));
        } else {
          {
            const char* phase = transform_phase(params_.kind);
            obs::PhaseScope tile_phase(phase != nullptr ? phase
                                                        : load_phase(seg));
            // Box averaging alone is too little work per trace to pay for
            // a pool dispatch, so plain CPA preprocesses its tile inline.
            const std::size_t grain =
                params_.kind == AttackKind::kCpa ? n : 1;
            par::parallel_for(0, n, grain, [&](std::size_t jb,
                                               std::size_t je) {
              for (std::size_t j = jb; j < je; ++j)
                preprocess(seg.trace(i + j), rows_.data() + j * features_);
            });
          }
          obs::PhaseScope kernel_phase(obs::kPhaseCpaKernel);
          for (std::size_t j = 0; j < n; ++j)
            engine.add(seg.plaintext(i + j), seg.ciphertext(i + j),
                       std::span<const float>(rows_.data() + j * features_,
                                              features_));
        }
        traces_attacked.inc(n);
        i += n;
      }
    });
  }

 private:
  /// Writes the feature row of raw trace `raw` to `out` (features() wide).
  /// Runs on parallel workers: scratch is per thread.
  void preprocess(std::span<const float> raw, float* out) const {
    if (params_.kind == AttackKind::kCpa) {
      trace::box_average(raw, factor_, {out, samples_});
      return;
    }
    thread_local std::vector<float> boxed;
    std::span<const float> tr = raw;
    if (factor_ > 1) {
      boxed.resize(samples_);
      trace::box_average(raw, factor_, boxed);
      tr = boxed;
    }
    switch (params_.kind) {
      case AttackKind::kCpa:
        break;
      case AttackKind::kDtwCpa: {
        // Reused per worker thread, like the DP scratch inside the aligner
        // itself — the campaign loop does no per-trace heap work for DTW.
        thread_local std::vector<float> warped;
        dtw_align_into(dtw_ref_, tr, params_.dtw, warped);
        std::copy(warped.begin(), warped.end(), out);
        break;
      }
      case AttackKind::kPcaCpa: {
        const std::vector<float> f = pca_.project(tr);
        std::copy(f.begin(), f.end(), out);
        break;
      }
      case AttackKind::kFftCpa: {
        const auto mag = magnitude_spectrum(tr);
        for (std::size_t k = 0; k < mag.size(); ++k)
          out[k] = static_cast<float>(mag[k]);
        break;
      }
      case AttackKind::kSwCpa:
        for (std::size_t k = 0; k < features_; ++k) {
          double acc = 0.0;
          const std::size_t base = k * stride();
          for (std::size_t x = 0; x < window() && base + x < tr.size(); ++x)
            acc += static_cast<double>(tr[base + x]);
          out[k] = static_cast<float>(acc);
        }
        break;
    }
  }

  std::size_t window() const {
    return std::max<std::size_t>(1, params_.sw_window);
  }
  std::size_t stride() const {
    return std::max<std::size_t>(1, params_.sw_stride);
  }

  /// The first `n` traces of `src`, box-averaged: the fit window.
  template <class Source>
  trace::TraceSet prefix(const Source& src, std::size_t n) const {
    trace::TraceSet head(samples_);
    head.reserve(n);
    std::vector<float> row(samples_);
    src.for_range(0, n, [&](const auto& seg, std::size_t k0, std::size_t k1) {
      obs::PhaseScope io(load_phase(seg));
      for (std::size_t k = k0; k < k1; ++k) {
        trace::box_average(seg.trace(k), factor_, row);
        head.add(row, seg.plaintext(k), seg.ciphertext(k));
      }
    });
    return head;
  }

  const AttackParams& params_;
  std::size_t factor_;
  std::size_t samples_;
  std::size_t features_ = 0;
  std::vector<double> dtw_ref_;
  PcaBasis pca_;
  /// Preprocessed feature rows of the current tile.
  std::vector<float> rows_;
};

template <class Source>
AttackOutcome run_attack_impl(const Source& src, const aes::Block& correct_key,
                              const AttackParams& params) {
  RFTC_OBS_SPAN(attack_span, "analysis", "run_attack");
  attack_span.arg("traces", static_cast<double>(src.size()));
  static obs::Counter& attacks_run =
      obs::Registry::global().counter("analysis.attacks_run");
  attacks_run.inc();

  AttackFeed feeder(src, params);
  CpaEngine engine(feeder.features(), normalized_byte_positions(params),
                   params.leakage, params.engine_mode);
  AttackOutcome out;
  out.kind = params.kind;
  std::size_t done = 0;
  // Duplicate checkpoints feed nothing and evaluate twice.
  for (const std::size_t cp : normalized_checkpoints(params, src.size())) {
    feeder.feed(engine, src, done, cp);
    done = cp;
    obs::PhaseScope report_phase(obs::kPhaseReport);
    const AttackCheckpoint ev = evaluate_attack_checkpoint(engine, correct_key);
    out.record(cp, ev);
    if (params.monitor != nullptr) params.monitor->observe_cpa(ev, cp);
  }
  return out;
}

}  // namespace

std::string attack_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kCpa: return "CPA";
    case AttackKind::kPcaCpa: return "PCA-CPA";
    case AttackKind::kDtwCpa: return "DTW-CPA";
    case AttackKind::kFftCpa: return "FFT-CPA";
    case AttackKind::kSwCpa: return "SW-CPA";
  }
  return "?";
}

std::size_t AttackOutcome::first_success() const {
  for (std::size_t i = 0; i < checkpoints.size(); ++i)
    if (success[i]) return checkpoints[i];
  return 0;
}

AttackOutcome run_attack(const trace::TraceSet& set,
                         const aes::Block& correct_key,
                         const AttackParams& params) {
  return run_attack_impl(set, correct_key, params);
}

AttackOutcome run_attack(const trace::TraceStore& store,
                         const aes::Block& correct_key,
                         const AttackParams& params) {
  return run_attack_impl(store, correct_key, params);
}

CpaEngine accumulate_attack_range(const trace::TraceStore& store,
                                  const AttackParams& params, std::size_t t0,
                                  std::size_t t1) {
  if (params.kind != AttackKind::kCpa)
    throw std::invalid_argument(
        "accumulate_attack_range: only plain CPA shards merge bit-exactly");
  AttackFeed feeder(store, params);
  CpaEngine engine(feeder.features(), normalized_byte_positions(params),
                   params.leakage, params.engine_mode);
  feeder.feed(engine, store, t0, t1);
  return engine;
}

}  // namespace rftc::analysis
