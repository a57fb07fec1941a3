// rftc::par — a small fixed-size thread pool with deterministic sharding.
//
// Every compute layer of the attack/acquisition pipeline (CPA accumulation,
// Welch accumulators, PCA covariance, DTW/FFT preprocessing, trace capture)
// funnels through parallel_for.  The contract that makes the whole
// pipeline reproducible is:
//
//  * Shard boundaries depend ONLY on (range, grain) — never on the worker
//    count — so the same inputs produce the same shards under any
//    RFTC_THREADS setting.
//  * Shards write disjoint outputs, indexed by shard; a caller that folds
//    per-shard partials does so after the call, in shard-index order.
//
// Which worker executes which shard is scheduled dynamically (work
// stealing via an atomic cursor); because outputs are partitioned by shard
// rather than by thread, that nondeterminism is invisible in the results.
// Callers that additionally keep a fixed per-element operation order inside
// each shard get bit-identical floating-point results for any thread count
// — the property the determinism test suite pins down.
//
// Configuration: RFTC_THREADS=<n> fixes the worker count (default: the
// hardware concurrency); set_thread_count() overrides it at runtime (used
// by tests to sweep thread counts in-process).  Nested parallel_for calls
// from inside a worker run inline on the calling shard, so composed layers
// (e.g. a parallel attack loop flushing a parallel CPA engine) cannot
// deadlock the pool.
#pragma once

#include <cstddef>
#include <functional>

namespace rftc::par {

/// Effective worker count: RFTC_THREADS if set and positive, else the
/// hardware concurrency, always at least 1.
std::size_t thread_count();

/// Overrides the worker count (n >= 1); n == 0 re-reads RFTC_THREADS / the
/// hardware default.  Recreates the pool on next use.  Not safe to call
/// concurrently with running parallel work — intended for setup and tests.
void set_thread_count(std::size_t n);

/// Splits [begin, end) into shards of `grain` elements (the last shard may
/// be short) and runs `body(shard_begin, shard_end)` for every shard,
/// blocking until all complete.  Shard boundaries are a pure function of
/// (begin, end, grain).  Runs inline when there is a single shard, a single
/// worker, or when called from inside a pool worker (nested parallelism).
/// Exceptions thrown by `body` are rethrown on the calling thread (first
/// one wins).
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Number of shards parallel_for would create for a range/grain.
inline std::size_t shard_count(std::size_t begin, std::size_t end,
                               std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (end - begin + g - 1) / g;
}

}  // namespace rftc::par
