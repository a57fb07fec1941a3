// Full attack campaigns: CPA and its three preprocessed variants
// (PCA-CPA, DTW-CPA, FFT-CPA), evaluated at trace-count checkpoints.
//
// Preprocessing artefacts (the DTW reference trace, the PCA basis) are
// derived from a prefix of the campaign, as a real attacker would derive
// them from the traces at hand, then every trace is transformed and fed to
// the streaming CPA engine.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/cpa.hpp"
#include "analysis/dtw.hpp"
#include "trace/trace_set.hpp"
#include "trace/trace_store.hpp"

namespace rftc::analysis {

class ConvergenceMonitor;

// kSwCpa is the Sliding-Window CPA of Fledel & Wool [8], which the paper's
// §8 proposes to test against RFTC as future work: each feature integrates a
// window of consecutive samples, trading time resolution for tolerance of
// clock jitter within the window.
enum class AttackKind { kCpa, kPcaCpa, kDtwCpa, kFftCpa, kSwCpa };

std::string attack_name(AttackKind kind);

struct AttackParams {
  AttackKind kind = AttackKind::kCpa;
  /// Predicted intermediate: last-round register HD (the paper's attack,
  /// recovers the round-10 key) or first-round S-box HW (recovers the
  /// master key).
  aes::LeakageModel leakage = aes::LeakageModel::kLastRoundHd;
  /// Key-byte positions to attack; empty selects all 16.
  std::vector<int> byte_positions;
  /// CPA accumulation engine: the streaming reference or the batched
  /// class-sum/WHT path.  Defaults to the env-selected mode
  /// (RFTC_CPA_MODE); benches pin it to time one against the other.
  CpaMode engine_mode = CpaEngine::default_mode();
  /// Box-average factor applied to the raw traces before any attack
  /// (standard compression; also keeps the DTW DP tractable).
  std::size_t downsample = 4;
  /// PCA-CPA: components kept and traces used to fit the basis.
  std::size_t pca_components = 8;
  std::size_t pca_fit_traces = 2'000;
  /// DTW-CPA: band, slope constraint and reference-trace prefix.  The
  /// defaults mirror practical elastic-alignment tooling: a moderate
  /// Sakoe-Chiba band and the P=1 slope constraint (without which the DP
  /// "aligns" the amplitude noise itself and launders the leakage away).
  DtwParams dtw{.band = 8, .slope_constrained = true};
  std::size_t dtw_ref_traces = 200;
  /// Sliding-window CPA: window length and stride, in (downsampled)
  /// samples.  A window of ~1 round period absorbs the per-round jitter a
  /// single frequency switch introduces.
  std::size_t sw_window = 6;
  std::size_t sw_stride = 2;
  /// Checkpoints (trace counts) at which key ranks are recorded; empty
  /// selects just the full set.
  std::vector<std::size_t> checkpoints;
  /// Optional streaming monitor: handed every checkpoint run_attack scores
  /// (observe_cpa), so monitoring costs no extra report pass.
  /// Not owned; must outlive the run_attack call.
  ConvergenceMonitor* monitor = nullptr;
};

/// One checkpoint scored from a single engine.report() pass.
struct AttackCheckpoint {
  /// Full-key success: every attacked byte's best guess is correct.
  bool recovered = false;
  /// Mean rank of the correct byte values (1 = recovered).
  double mean_rank = 0.0;
  /// Worst (highest) rank across attacked bytes.
  int max_rank = 0;
  /// Highest best-guess |corr| across attacked bytes (the distinguisher's
  /// convergence signal).
  double peak_corr = 0.0;
  /// Correct-key peak |corr| per attacked byte (engine byte order).
  std::vector<double> byte_corr;
  /// Rank of the correct value per attacked byte.
  std::vector<int> byte_rank;
};

struct AttackOutcome {
  AttackKind kind{};
  std::vector<std::size_t> checkpoints;
  /// Full-key success (all attacked bytes rank 1) per checkpoint.
  std::vector<bool> success;
  /// Mean rank of the correct byte values per checkpoint (1 = broken).
  std::vector<double> mean_rank;
  /// Highest best-guess |correlation| across attacked bytes per checkpoint
  /// — the convergence signal of the CPA distinguisher (also emitted as
  /// "cpa.checkpoint" trace events, see docs/OBSERVABILITY.md).
  std::vector<double> peak_corr;
  /// Smallest checkpoint with success, or 0 when never successful.
  std::size_t first_success() const;
  /// Appends checkpoint `ev` scored at `traces` and emits its
  /// "cpa.checkpoint" event — the one recorder behind run_attack and the
  /// distributed coordinator's merge.
  void record(std::size_t traces, const AttackCheckpoint& ev);
};

/// Runs one campaign against `set`; `correct_key` is the ground truth used
/// only for scoring (the round-10 key under the last-round model, the
/// master key under the first-round model).
AttackOutcome run_attack(const trace::TraceSet& set,
                         const aes::Block& correct_key,
                         const AttackParams& params);

/// Out-of-core variant: consumes a chunked trace store chunk-by-chunk, so
/// the campaign runs in O(chunk) resident memory.  Preprocessing artefacts
/// come from a materialized prefix (the DTW reference / PCA fit window) and
/// every trace then streams through the same engine in the same order, so
/// the outcome is bit-identical to run_attack over the equivalent in-RAM
/// TraceSet.
AttackOutcome run_attack(const trace::TraceStore& store,
                         const aes::Block& correct_key,
                         const AttackParams& params);

/// The one CPA checkpoint scorer: scores `engine` against `correct_key`
/// (round-10 key for the last-round model, master key for the first-round
/// model) from one report pass.  run_attack, the distributed coordinator's
/// merge and the ConvergenceMonitor all take their checkpoints from here.
AttackCheckpoint evaluate_attack_checkpoint(const CpaEngine& engine,
                                            const aes::Block& correct_key);

/// The byte-position list run_attack actually attacks: params.byte_positions,
/// or all 16 when empty.
std::vector<int> normalized_byte_positions(const AttackParams& params);

/// The checkpoint schedule run_attack actually evaluates for a campaign of
/// `total` traces: params.checkpoints sorted with 0 and >total dropped
/// (duplicates kept — they evaluate twice), falling back to {total} when the
/// list is empty before or after filtering.  The distributed coordinator
/// shares this so its shard cuts land on exactly the single-process
/// checkpoints.
std::vector<std::size_t> normalized_checkpoints(const AttackParams& params,
                                                std::size_t total);

/// Sharded-campaign primitive: builds a fresh CpaEngine with run_attack's
/// geometry (downsampled samples, normalized byte positions, params.leakage
/// and params.engine_mode) and feeds it store traces [t0, t1) through
/// run_attack's own range feed, `t1` clamped to the store size.  Only plain
/// CPA is supported: raw ADC traces keep every engine sum exact, so
/// CpaEngine::merge over any partition of the trace range is bit-identical
/// to the single-process engine — the contract the rftc::dist workers
/// build on.  Preprocessed kinds (PCA/DTW/FFT/SW features are not exactly
/// representable) throw std::invalid_argument rather than merging
/// approximately.
CpaEngine accumulate_attack_range(const trace::TraceStore& store,
                                  const AttackParams& params, std::size_t t0,
                                  std::size_t t1);

}  // namespace rftc::analysis
