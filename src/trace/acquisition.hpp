// Acquisition campaigns: random-plaintext capture (for CPA) and the
// interleaved fixed-vs-random capture of the TVLA methodology [6].
#pragma once

#include <functional>

#include "rftc/device.hpp"
#include "trace/power_model.hpp"
#include "trace/trace_set.hpp"
#include "util/rng.hpp"

namespace rftc::trace {

/// Anything that encrypts one block and reports its physical observables.
using Encryptor = std::function<core::EncryptionRecord(const aes::Block&)>;

/// Draw a uniform random block.
aes::Block random_block(Xoshiro256StarStar& rng);

/// Capture `n` traces with uniform random plaintexts.  Every acquire_*
/// entry point below runs the same capture loop (encrypt, simulate,
/// append, count `trace.traces_captured`); a random campaign is that loop
/// with no fixed-plaintext quota, so it draws one random_block() per trace
/// and nothing else from `rng`.
TraceSet acquire_random(const Encryptor& encryptor, TraceSimulator& sim,
                        std::size_t n, Xoshiro256StarStar& rng);

/// TVLA capture: traces for the fixed plaintext and for random plaintexts,
/// interleaved in random order under the same key, as [6] prescribes.  A
/// coin from `rng` picks the population while both quotas remain; once one
/// is spent the rest of the other follows without further coins.
struct TvlaCapture {
  TraceSet fixed;
  TraceSet random;
};
TvlaCapture acquire_tvla(const Encryptor& encryptor, TraceSimulator& sim,
                         std::size_t n_per_population,
                         const aes::Block& fixed_plaintext,
                         Xoshiro256StarStar& rng);

/// Everything one shard of a parallel campaign needs: its own encryptor
/// (devices are stateful — a shared one would serialize the shards and
/// entangle their schedules) and its own trace simulator.
struct CaptureShard {
  Encryptor encryptor;
  TraceSimulator sim;
};

/// Builds the capture resources for one shard of a parallel campaign.
/// MUST be a pure function of the shard index (same index → same device
/// and simulator seeds): shard boundaries and substreams are already
/// thread-count independent, so factory purity is the only obligation left
/// to the caller for bit-identical campaigns under any RFTC_THREADS.
/// Called concurrently from pool workers.
using CaptureShardFactory = std::function<CaptureShard(std::size_t)>;

/// Traces per shard of the parallel acquisition campaigns below.
inline constexpr std::size_t kCaptureShardSize = 1024;

/// Parallel random-plaintext capture.  Shard j covers traces
/// [j·shard_size, (j+1)·shard_size) and is exactly
/// acquire_random(factory(j).encryptor, factory(j).sim, ...) on the
/// j-times-jump()ed substream of `seed` (2^128 draws apart, so shards
/// never overlap).  One shard driver runs groups of `thread_count` shards
/// in parallel and appends them in index order to a set reserved for `n`
/// traces, so the corpus is held once plus one group in flight.  The
/// returned set is bit-identical for any thread count; with
/// shard_size >= n it equals serial acquire_random() on factory(0) and
/// Xoshiro256StarStar(seed).
TraceSet acquire_random_parallel(const CaptureShardFactory& factory,
                                 std::size_t n, std::uint64_t seed,
                                 std::size_t shard_size = kCaptureShardSize);

/// Parallel TVLA capture: shard j is acquire_tvla() on factory(j) with its
/// own substream for its quota of pairs, and the per-population sets are
/// appended in shard order by the same driver as acquire_random_parallel,
/// under the same determinism contract.
TvlaCapture acquire_tvla_parallel(const CaptureShardFactory& factory,
                                  std::size_t n_per_population,
                                  const aes::Block& fixed_plaintext,
                                  std::uint64_t seed,
                                  std::size_t shard_size = kCaptureShardSize);

class TraceStoreWriter;

/// Out-of-core random-plaintext capture: the shard driver of
/// acquire_random_parallel with `out` as its sink instead of an in-RAM set
/// — so resident memory is O(threads · shard) while the store contents are
/// bit-identical to the TraceSet acquire_random_parallel returns for the
/// same (factory, n, seed, shard_size).  The caller finalizes the writer.
void acquire_random_store(const CaptureShardFactory& factory, std::size_t n,
                          std::uint64_t seed, TraceStoreWriter& out,
                          std::size_t shard_size = kCaptureShardSize);

/// Out-of-core TVLA capture: same contract as acquire_random_store, with
/// the fixed and random populations appended to their own stores.  The
/// store contents are bit-identical to the TvlaCapture
/// acquire_tvla_parallel returns for the same inputs.
void acquire_tvla_store(const CaptureShardFactory& factory,
                        std::size_t n_per_population,
                        const aes::Block& fixed_plaintext, std::uint64_t seed,
                        TraceStoreWriter& fixed_out,
                        TraceStoreWriter& random_out,
                        std::size_t shard_size = kCaptureShardSize);

}  // namespace rftc::trace
