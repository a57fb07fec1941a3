#include "trace/acquisition.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/phase_timer.hpp"
#include "trace/trace_store.hpp"
#include "util/parallel.hpp"

namespace rftc::trace {

namespace {

obs::Counter& captured_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("trace.traces_captured");
  return c;
}

/// Captures whose ciphertext was corrupted by fault injection
/// (docs/ROBUSTNESS.md); stays at zero on a fault-free run.
obs::Counter& faulted_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("trace.faulted_encryptions");
  return c;
}

/// The one capture loop behind every acquire_* entry point: `n_fixed`
/// encryptions of `fixed_plaintext` into `fixed`, interleaved in random
/// order with `n_random` random-plaintext ones into `random`.  A coin is
/// drawn only while both quotas remain, so a random campaign
/// (n_fixed == 0) consumes exactly one random_block() per trace.
void capture(const Encryptor& encryptor, TraceSimulator& sim,
             std::size_t n_fixed, std::size_t n_random,
             const aes::Block& fixed_plaintext, Xoshiro256StarStar& rng,
             TraceSet& fixed, TraceSet& random) {
  obs::Counter& captured = captured_counter();
  obs::Counter& faulted = faulted_counter();
  while (n_fixed > 0 || n_random > 0) {
    // Random interleave so environmental drift cannot separate the sets.
    const bool take_fixed =
        n_fixed > 0 && (n_random == 0 || (rng.next() & 1) != 0);
    const aes::Block pt = take_fixed ? fixed_plaintext : random_block(rng);
    const core::EncryptionRecord rec = encryptor(pt);
    (take_fixed ? fixed : random)
        .add(sim.simulate(rec.schedule, rec.activity), pt, rec.ciphertext);
    --(take_fixed ? n_fixed : n_random);
    captured.inc();
    if (rec.fault_flips > 0) faulted.inc();
  }
}

/// The shard's plaintext substream: `seed` advanced by `shard_index`
/// jumps (each jump is 2^128 draws, so substreams cannot overlap).
Xoshiro256StarStar shard_stream(std::uint64_t seed, std::size_t shard_index) {
  Xoshiro256StarStar rng(seed);
  for (std::size_t j = 0; j < shard_index; ++j) rng.jump();
  return rng;
}

/// The one shard driver behind the in-RAM and out-of-core campaigns.
/// Shard j captures [j·shard_size, (j+1)·shard_size) of [0, total) with
/// factory(j) and the j-th substream of `seed` — random plaintexts only
/// when `fixed_plaintext` is null, else that many fixed-vs-random pairs.
/// Groups of `thread_count` shards run in parallel, and each shard's
/// capture is handed to `sink` in strict shard order, so only one group is
/// resident besides whatever the sink keeps.
template <typename Sink>
void capture_shards(const CaptureShardFactory& factory, std::size_t total,
                    std::size_t shard_size, std::uint64_t seed,
                    const aes::Block* fixed_plaintext, Sink&& sink) {
  const std::size_t group = par::thread_count() * shard_size;
  for (std::size_t g0 = 0; g0 < total; g0 += group) {
    const std::size_t g1 = std::min(total, g0 + group);
    std::vector<std::optional<TvlaCapture>> parts(
        par::shard_count(g0, g1, shard_size));
    par::parallel_for(g0, g1, shard_size, [&](std::size_t b, std::size_t e) {
      CaptureShard shard = factory(b / shard_size);
      Xoshiro256StarStar rng = shard_stream(seed, b / shard_size);
      const std::size_t n_fixed = fixed_plaintext ? e - b : 0;
      TvlaCapture& cap = parts[(b - g0) / shard_size].emplace(
          TvlaCapture{TraceSet(shard.sim.samples()),
                      TraceSet(shard.sim.samples())});
      cap.fixed.reserve(n_fixed);
      cap.random.reserve(e - b);
      capture(shard.encryptor, shard.sim, n_fixed, e - b,
              fixed_plaintext ? *fixed_plaintext : aes::Block{}, rng,
              cap.fixed, cap.random);
    });
    for (auto& p : parts) sink(std::move(*p));
  }
}

/// In-RAM sink: the first shard sizes `out` for the whole `n`-trace
/// population, every shard appends in order.
void append_reserved(std::optional<TraceSet>& out, const TraceSet& part,
                     std::size_t n) {
  if (!out) {
    out.emplace(part.samples());
    out->reserve(n);
  }
  out->append(part);
}

}  // namespace

aes::Block random_block(Xoshiro256StarStar& rng) {
  aes::Block b{};
  for (int half = 0; half < 2; ++half) {
    const std::uint64_t w = rng.next();
    for (int i = 0; i < 8; ++i)
      b[static_cast<std::size_t>(8 * half + i)] =
          static_cast<std::uint8_t>(w >> (8 * i));
  }
  return b;
}

TraceSet acquire_random(const Encryptor& encryptor, TraceSimulator& sim,
                        std::size_t n, Xoshiro256StarStar& rng) {
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_random");
  span.arg("n", static_cast<double>(n));
  TraceSet set(sim.samples());
  set.reserve(n);
  capture(encryptor, sim, 0, n, aes::Block{}, rng, set, set);
  return set;
}

TvlaCapture acquire_tvla(const Encryptor& encryptor, TraceSimulator& sim,
                         std::size_t n_per_population,
                         const aes::Block& fixed_plaintext,
                         Xoshiro256StarStar& rng) {
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_tvla");
  span.arg("n_per_population", static_cast<double>(n_per_population));
  TvlaCapture cap{TraceSet(sim.samples()), TraceSet(sim.samples())};
  cap.fixed.reserve(n_per_population);
  cap.random.reserve(n_per_population);
  capture(encryptor, sim, n_per_population, n_per_population, fixed_plaintext,
          rng, cap.fixed, cap.random);
  return cap;
}

TraceSet acquire_random_parallel(const CaptureShardFactory& factory,
                                 std::size_t n, std::uint64_t seed,
                                 std::size_t shard_size) {
  if (shard_size == 0)
    throw std::invalid_argument("acquire_random_parallel: zero shard size");
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_random_parallel");
  span.arg("n", static_cast<double>(n));
  if (n == 0) return TraceSet(factory(0).sim.samples());
  std::optional<TraceSet> set;
  capture_shards(factory, n, shard_size, seed, nullptr,
                 [&](TvlaCapture&& part) {
                   append_reserved(set, part.random, n);
                 });
  return std::move(*set);
}

void acquire_random_store(const CaptureShardFactory& factory, std::size_t n,
                          std::uint64_t seed, TraceStoreWriter& out,
                          std::size_t shard_size) {
  if (shard_size == 0)
    throw std::invalid_argument("acquire_random_store: zero shard size");
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_random_store");
  span.arg("n", static_cast<double>(n));
  capture_shards(factory, n, shard_size, seed, nullptr,
                 [&](TvlaCapture&& part) {
                   obs::PhaseScope io(obs::kPhaseStoreIo);
                   out.append(part.random);
                 });
}

TvlaCapture acquire_tvla_parallel(const CaptureShardFactory& factory,
                                  std::size_t n_per_population,
                                  const aes::Block& fixed_plaintext,
                                  std::uint64_t seed,
                                  std::size_t shard_size) {
  if (shard_size == 0)
    throw std::invalid_argument("acquire_tvla_parallel: zero shard size");
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_tvla_parallel");
  span.arg("n_per_population", static_cast<double>(n_per_population));
  if (n_per_population == 0) {
    const std::size_t samples = factory(0).sim.samples();
    return TvlaCapture{TraceSet(samples), TraceSet(samples)};
  }
  std::optional<TraceSet> fixed, random;
  capture_shards(factory, n_per_population, shard_size, seed,
                 &fixed_plaintext, [&](TvlaCapture&& part) {
                   append_reserved(fixed, part.fixed, n_per_population);
                   append_reserved(random, part.random, n_per_population);
                 });
  return TvlaCapture{std::move(*fixed), std::move(*random)};
}

void acquire_tvla_store(const CaptureShardFactory& factory,
                        std::size_t n_per_population,
                        const aes::Block& fixed_plaintext, std::uint64_t seed,
                        TraceStoreWriter& fixed_out,
                        TraceStoreWriter& random_out, std::size_t shard_size) {
  if (shard_size == 0)
    throw std::invalid_argument("acquire_tvla_store: zero shard size");
  obs::PhaseScope phase(obs::kPhaseCapture);
  RFTC_OBS_SPAN(span, "trace", "acquire_tvla_store");
  span.arg("n_per_population", static_cast<double>(n_per_population));
  capture_shards(factory, n_per_population, shard_size, seed,
                 &fixed_plaintext, [&](TvlaCapture&& part) {
                   obs::PhaseScope io(obs::kPhaseStoreIo);
                   fixed_out.append(part.fixed);
                   random_out.append(part.random);
                 });
}

}  // namespace rftc::trace
