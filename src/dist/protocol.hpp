// rftc::dist — the distributed campaign protocol.
//
// A campaign splits an attack or TVLA sweep over a chunked trace store into
// contiguous trace-range *shards*.  The coordinator (dist/coordinator.hpp)
// plans the shards, writes one task file per shard and fork/execs rftc-worker
// processes over them; each worker accumulates its range into a CpaEngine /
// WelchTTest, snapshots the accumulator to disk (the wire format of
// util/wire.hpp) and records a shard manifest checkpoint.  The coordinator
// merges the snapshots in range order and evaluates checkpoints through the
// exact single-process code paths, so the distributed result is bit-identical
// to run_attack / run_tvla over the same store (docs/DISTRIBUTED.md).
//
// Everything on disk is either strict JSON (campaign/task/done files, parsed
// with obs::json) or a sealed wire blob (accumulator snapshots); every file
// is written atomically (tmp + fsync + rename + directory fsync), so a
// SIGKILL at any instant leaves the campaign directory in a state the next
// run can resume from.
//
// Campaign directory layout:
//
//   <dir>/campaign.json                 spec + schema (provenance, resume
//                                       cross-check)
//   <dir>/shards/shard_NNNN.task.json   one shard's work order
//   <dir>/shards/shard_NNNN.acc        the shard's accumulator snapshot
//   <dir>/shards/shard_NNNN.done.json  shard manifest checkpoint: the shard
//                                       is durable iff this parses and its
//                                       recorded size/CRC match the .acc
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "aes/aes128.hpp"
#include "analysis/attacks.hpp"

namespace rftc::dist {

/// Protocol schema version stamped into every campaign/task/done file.
inline constexpr std::uint32_t kDistSchema = 1;

enum class CampaignKind { kAttack, kTvla };

std::string campaign_kind_name(CampaignKind kind);

/// Everything that defines a campaign's work (not where or how wide it
/// runs — that is CoordinatorOptions).  Only plain CPA attacks are
/// supported: raw ADC traces keep every accumulator sum exact, which is
/// what makes shard merging bit-identical (see accumulate_attack_range).
struct CampaignSpec {
  CampaignKind kind = CampaignKind::kAttack;
  std::string name = "campaign";

  // kAttack: the store, the scoring key and the CPA knobs that affect the
  // accumulator geometry.
  std::string store;
  std::string key_hex;  ///< 32 hex chars; round-10 key under kLastRoundHd
  aes::LeakageModel leakage = aes::LeakageModel::kLastRoundHd;
  /// Read by nothing; kept for perfbench's two assignments.
  analysis::CpaMode engine_mode = analysis::CpaMode::kBatched;
  std::size_t downsample = 4;
  std::vector<int> byte_positions;        ///< empty = all 16
  std::vector<std::size_t> checkpoints;   ///< empty = {total}

  // kTvla: the two populations.
  std::string fixed_store;
  std::string random_store;

  /// The AttackParams run_attack would see for this spec (kind = kCpa).
  analysis::AttackParams attack_params() const;
  /// Decoded key_hex; throws std::invalid_argument on malformed hex.
  aes::Block key() const;
};

/// One contiguous trace range [t0, t1) owned by a single worker.
struct ShardRange {
  std::size_t index = 0;
  std::size_t t0 = 0;
  std::size_t t1 = 0;
};

/// Splits [0, total) into shards: the cut set is the union of `shards` even
/// splits and every `required_cut` strictly inside (0, total) — so each
/// checkpoint lands exactly on a shard boundary and the coordinator can
/// evaluate the merged prefix there.  Deterministic, sorted by t0, never
/// returns an empty range.  Throws std::invalid_argument when total == 0 or
/// shards == 0.
std::vector<ShardRange> plan_shards(std::size_t total, std::size_t shards,
                                    const std::vector<std::size_t>&
                                        required_cuts);

/// One worker's full work order (the task file is self-contained — a worker
/// reads nothing else before opening the store).
struct ShardTask {
  CampaignSpec spec;
  ShardRange shard;
  std::string acc_path;
  std::string done_path;
};

/// Shard manifest checkpoint: what the worker durably recorded after its
/// accumulator snapshot hit the disk.
struct ShardDone {
  ShardRange shard;
  std::uint64_t acc_bytes = 0;
  std::uint32_t acc_crc = 0;
};

// JSON codecs.  *_from_json throws std::runtime_error on malformed input or
// schema mismatch.
std::string campaign_to_json(const CampaignSpec& spec);
CampaignSpec campaign_from_json(std::string_view text);
std::string task_to_json(const ShardTask& task);
ShardTask task_from_json(std::string_view text);
std::string done_to_json(const ShardDone& done);
ShardDone done_from_json(std::string_view text);

/// True when `done_path` parses, matches `shard`, and the .acc snapshot at
/// `acc_path` has exactly the recorded size and CRC-32 — i.e. the shard
/// survived whatever killed its worker and can be reused on resume.  Any
/// missing/corrupt/mismatched file is simply "not complete".
bool shard_complete(const ShardRange& shard, const std::string& acc_path,
                    const std::string& done_path);
/// Same check, leaving the snapshot bytes it read and verified in `acc`
/// (whose capacity is reused), so a caller can fold them without reading
/// the file again.  `acc` is unspecified when the result is false.
bool shard_complete(const ShardRange& shard, const std::string& acc_path,
                    const std::string& done_path, std::string& acc);

/// Path stem for shard `index` under `dir`: <dir>/shards/shard_NNNN
std::string shard_stem(const std::string& dir, std::size_t index);

/// Whole-file read (open, fstat-sized buffer, read(2) loop); throws
/// std::runtime_error ("rftc::dist: ...") when unreadable.
std::string read_file(const std::string& path);
/// Same, into `out`, reusing its capacity across calls.
void read_file(const std::string& path, std::string& out);

/// Crash-safe file write: tmp + fsync + rename + parent-directory fsync.
void write_file_atomic(const std::string& path, std::string_view data);

/// 32-hex-char AES key codec (throws std::invalid_argument on bad input).
aes::Block parse_key_hex(std::string_view hex);
std::string key_to_hex(const aes::Block& key);

}  // namespace rftc::dist
