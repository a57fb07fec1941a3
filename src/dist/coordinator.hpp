// Coordinator side of the distributed campaign engine: shard planning,
// worker process dispatch (fork/exec of rftc-worker with kill detection and
// bounded retries), checkpointed resume and the bit-exact merge that turns
// per-shard accumulator snapshots back into the single-process
// AttackOutcome / TvlaResult (see docs/DISTRIBUTED.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "analysis/attacks.hpp"
#include "analysis/tvla.hpp"
#include "dist/protocol.hpp"

namespace rftc::dist {

struct CoordinatorOptions {
  /// Campaign directory (created if missing); holds campaign.json and the
  /// per-shard task/snapshot/manifest files, and is the resume token: a
  /// second run over the same directory reuses every durably-completed
  /// shard.
  std::string dir;
  /// rftc-worker binary.  Empty selects RFTC_WORKER_BIN, falling back to
  /// "rftc-worker" next to the current executable.
  std::string worker_binary;
  /// Concurrent worker processes; also the even-split count of the shard
  /// plan, so worker counts {1, 2, 4} exercise different shard geometries.
  std::size_t workers = 2;
  /// Extra attempts per shard after a worker dies (crash or non-zero exit)
  /// before the campaign gives up.  With retries exhausted run_campaign
  /// throws, leaving the directory resumable.
  std::size_t retries = 1;
};

struct CampaignResult {
  /// Populated for CampaignKind::kAttack — field-for-field identical to the
  /// single-process run_attack over the same store and params.
  analysis::AttackOutcome attack;
  /// Populated for CampaignKind::kTvla — field-for-field identical to the
  /// single-process run_tvla over the same StoredTvlaCapture.
  analysis::TvlaResult tvla;
  std::size_t shards_total = 0;
  /// Shards whose manifest checkpoint from a previous run was still valid.
  std::size_t shards_reused = 0;
  /// Failed shard attempts that were retried with a fresh worker.
  std::size_t worker_restarts = 0;
  /// Worker phase times (ShardDone::accumulate_us / write_us / sync_us)
  /// summed over the shard attempts of this run that exited with a valid
  /// manifest, in microseconds.  Reused shards add nothing.
  std::uint64_t accumulate_us = 0;
  std::uint64_t write_us = 0;
  std::uint64_t sync_us = 0;
};

/// Runs one distributed campaign to completion.  The merged result is
/// bit-identical to the single-process run: shard cuts include every
/// checkpoint, per-shard sums are exact on ADC-quantized traces, and the
/// merged prefix at each checkpoint is scored and recorded by the same code
/// the single-process paths use (evaluate_attack_checkpoint +
/// AttackOutcome::record; scan_t + TvlaResult::record/finish on the
/// tvla_checkpoints schedule).  Throws std::runtime_error when shards
/// exhaust their retries (the directory stays resumable) and
/// std::invalid_argument on a malformed spec or options.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const CoordinatorOptions& options);

/// Resolves the worker binary path per CoordinatorOptions::worker_binary.
std::string default_worker_binary();

}  // namespace rftc::dist
