// rftc::trace v2 store: format round-trip, corruption rejection, and the
// bit-identity contract between the streamed (out-of-core) and in-RAM
// acquisition + analysis paths.
#include "trace/trace_store.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/tvla.hpp"
#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "util/parallel.hpp"
#include "scratch.hpp"

namespace rftc::trace {
namespace {

aes::Key test_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i)
    k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0xA5 ^ (7 * i));
  return k;
}

CaptureShardFactory test_factory() {
  const aes::Key key = test_key();
  return [key](std::size_t shard) {
    auto dev = std::make_shared<core::ScheduledAesDevice>(
        key, std::make_unique<sched::FixedClockScheduler>(48.0));
    trace::PowerModelParams pm;
    return CaptureShard{
        [dev](const aes::Block& pt) { return dev->encrypt(pt); },
        TraceSimulator(pm, 0x7777 + shard)};
  };
}

/// Exact (bit-for-bit) comparison of a store against an in-RAM set.
void expect_store_equals_set(const TraceStore& store, const TraceSet& set) {
  ASSERT_EQ(store.size(), set.size());
  ASSERT_EQ(store.samples(), set.samples());
  for (std::size_t c = 0; c < store.chunk_count(); ++c) {
    const TraceChunk chunk = store.chunk(c);
    for (std::size_t k = 0; k < chunk.count(); ++k) {
      const std::size_t i = chunk.first() + k;
      EXPECT_EQ(chunk.plaintext(k), set.plaintext(i)) << "trace " << i;
      EXPECT_EQ(chunk.ciphertext(k), set.ciphertext(i)) << "trace " << i;
      ASSERT_EQ(std::memcmp(chunk.trace(k).data(), set.trace(i).data(),
                            set.samples() * sizeof(float)),
                0)
          << "trace " << i;
    }
  }
}

/// Exact (bit-for-bit) comparison of two in-RAM sets.
void expect_sets_equal(const TraceSet& a, const TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.samples(), b.samples());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.plaintext(i), b.plaintext(i)) << "trace " << i;
    EXPECT_EQ(a.ciphertext(i), b.ciphertext(i)) << "trace " << i;
    ASSERT_EQ(std::memcmp(a.trace(i).data(), b.trace(i).data(),
                          a.samples() * sizeof(float)),
              0)
        << "trace " << i;
  }
}

/// Shard j's plaintext stream: `seed` jumped j times.
Xoshiro256StarStar jumped_stream(std::uint64_t seed, std::size_t j) {
  Xoshiro256StarStar rng(seed);
  for (std::size_t k = 0; k < j; ++k) rng.jump();
  return rng;
}

/// Serial reference for a sharded random campaign: acquire_random on
/// factory(j) and shard j's stream, concatenated in shard order.
TraceSet serial_random_reference(const CaptureShardFactory& factory,
                                 std::size_t n, std::uint64_t seed,
                                 std::size_t shard_size) {
  TraceSet out(factory(0).sim.samples());
  for (std::size_t j = 0; j * shard_size < n; ++j) {
    CaptureShard shard = factory(j);
    Xoshiro256StarStar rng = jumped_stream(seed, j);
    out.append(acquire_random(shard.encryptor, shard.sim,
                              std::min(shard_size, n - j * shard_size), rng));
  }
  return out;
}

/// Serial reference for a sharded TVLA campaign, as above with
/// acquire_tvla per shard.
TvlaCapture serial_tvla_reference(const CaptureShardFactory& factory,
                                  std::size_t n, const aes::Block& fixed_pt,
                                  std::uint64_t seed, std::size_t shard_size) {
  const std::size_t samples = factory(0).sim.samples();
  TvlaCapture out{TraceSet(samples), TraceSet(samples)};
  for (std::size_t j = 0; j * shard_size < n; ++j) {
    CaptureShard shard = factory(j);
    Xoshiro256StarStar rng = jumped_stream(seed, j);
    const TvlaCapture part =
        acquire_tvla(shard.encryptor, shard.sim,
                     std::min(shard_size, n - j * shard_size), fixed_pt, rng);
    out.fixed.append(part.fixed);
    out.random.append(part.random);
  }
  return out;
}

aes::Block tvla_fixed_plaintext() {
  aes::Block fixed_pt{};
  for (int i = 0; i < 16; ++i)
    fixed_pt[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i * 17);
  return fixed_pt;
}

TEST(TraceStore, WriterRoundTripsAcrossChunkBoundaries) {
  const std::string path = test::scratch_path("roundtrip.rtst");
  TraceSet set(5);
  // 10 traces, chunk size 4 -> chunks of 4, 4, 2.
  for (std::size_t i = 0; i < 10; ++i) {
    std::vector<float> tr(5);
    for (std::size_t s = 0; s < 5; ++s)
      tr[s] = static_cast<float>(i) + 0.25f * static_cast<float>(s);
    aes::Block pt{}, ct{};
    pt[0] = static_cast<std::uint8_t>(i);
    ct[0] = static_cast<std::uint8_t>(0xF0 | i);
    set.add(tr, pt, ct);
  }
  {
    TraceStoreWriter w(path, 5, 4);
    w.append(set);
    w.finalize();
    EXPECT_EQ(w.size(), 10u);
    EXPECT_EQ(w.chunks_written(), 3u);
  }
  TraceStore store(path);
  EXPECT_EQ(store.chunk_count(), 3u);
  EXPECT_EQ(store.chunk_traces(), 4u);
  EXPECT_EQ(store.chunk(2).count(), 2u);
  EXPECT_EQ(store.chunk(2).first(), 8u);
  expect_store_equals_set(store, set);
  const StoreVerifyResult v = store.verify();
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.chunks_checked, 3u);
  // for_range() visits exactly [t0, t1), chunk by chunk, in order.
  std::vector<std::size_t> seen;
  store.for_range(3, 9,
                  [&](const TraceChunk& c, std::size_t k0, std::size_t k1) {
                    for (std::size_t k = k0; k < k1; ++k) {
                      seen.push_back(c.first() + k);
                      EXPECT_EQ(0, std::memcmp(c.trace(k).data(),
                                               set.trace(c.first() + k).data(),
                                               set.samples() * sizeof(float)));
                    }
                  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8}));
  std::filesystem::remove(path);
}

TEST(TraceStore, RejectsGarbageTruncationAndUnfinalized) {
  const std::string path = test::scratch_path("reject.rtst");
  // Garbage magic.
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a trace store at all, padding padding padding padding";
  }
  EXPECT_THROW(TraceStore{path}, std::runtime_error);

  // Valid store, then truncated mid-payload.
  {
    TraceStoreWriter w(path, 8, 4);
    TraceSet set(8);
    for (std::size_t i = 0; i < 8; ++i)
      set.add(std::vector<float>(8, static_cast<float>(i)), aes::Block{},
              aes::Block{});
    w.append(set);
    w.finalize();
  }
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 7);
  EXPECT_THROW(TraceStore{path}, std::runtime_error);
  std::filesystem::resize_file(path, 13);  // shorter than the header
  EXPECT_THROW(TraceStore{path}, std::runtime_error);

  // Unfinalized writer (simulated crash): header still carries the open
  // sentinel and must be rejected.
  std::filesystem::remove(path);
  {
    TraceStoreWriter w(path, 8, 4);
    TraceSet set(8);
    set.add(std::vector<float>(8, 1.0f), aes::Block{}, aes::Block{});
    w.append(set);
    // no finalize(); keep the fd alive past the check via a copy of path
    EXPECT_THROW(TraceStore{path}, std::runtime_error);
    w.finalize();
  }
  EXPECT_NO_THROW(TraceStore{path});
  std::filesystem::remove(path);
}

/// Deterministic 6-sample set the durability tests can rebuild on either
/// side of a fork.
TraceSet durability_set() {
  TraceSet set(6);
  for (std::size_t i = 0; i < 10; ++i) {
    std::vector<float> tr(6);
    for (std::size_t s = 0; s < 6; ++s)
      tr[s] = 0.125f * static_cast<float>(i * 6 + s);
    aes::Block pt{}, ct{};
    pt[0] = static_cast<std::uint8_t>(i);
    ct[0] = static_cast<std::uint8_t>(0xC0 | i);
    set.add(tr, pt, ct);
  }
  return set;
}

TEST(TraceStoreDurability, WriterKilledBeforeFinalizeIsDetectedOnOpen) {
  // Real crash simulation: the child writes chunks and dies via _exit
  // (no destructors, no flush) before finalize() — the header must still
  // carry the open sentinel, so readers reject the torn store instead of
  // analyzing a silently truncated corpus.
  const std::string path = test::scratch_path("kill_before_finalize.rtst");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    TraceStoreWriter w(path, 6, 4);
    w.append(durability_set());
    _exit(0);  // dies with the store mid-flight
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  EXPECT_THROW(TraceStore{path}, std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceStoreDurability, FinalizedStoreSurvivesWriterDeath) {
  // finalize() fsyncs every chunk BEFORE patching the header and fsyncs
  // again after the patch (regression: the header patch used to be able to
  // reach disk ahead of its chunks, making a post-crash store look
  // finalized while carrying torn payloads).  Once finalize() returns, the
  // writer process dying must not matter.
  const std::string path = test::scratch_path("kill_after_finalize.rtst");
  const TraceSet set = durability_set();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    TraceStoreWriter w(path, 6, 4);
    w.append(durability_set());
    w.finalize();
    _exit(0);  // dies immediately after — durability must already hold
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  const TraceStore store(path);
  const StoreVerifyResult v = store.verify();
  EXPECT_TRUE(v.ok) << v.error;
  expect_store_equals_set(store, set);
  std::filesystem::remove(path);
}

TEST(TraceStore, VerifyCatchesPayloadCorruption) {
  const std::string path = test::scratch_path("corrupt.rtst");
  {
    TraceStoreWriter w(path, 6, 8);
    TraceSet set(6);
    for (std::size_t i = 0; i < 20; ++i)
      set.add(std::vector<float>(6, 0.5f * static_cast<float>(i)),
              aes::Block{}, aes::Block{});
    w.append(set);
    w.finalize();
  }
  // Flip one byte in the last chunk's payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    char b = 0;
    f.seekg(-1, std::ios::end);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(-1, std::ios::end);
    f.write(&b, 1);
  }
  TraceStore store(path);  // header is intact, open succeeds
  const StoreVerifyResult v = store.verify();
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.error.empty());
  EXPECT_FALSE(store.chunk(store.chunk_count() - 1).crc_ok());
  EXPECT_TRUE(store.chunk(0).crc_ok());
  // The damage map names the bad chunk with both CRCs.
  ASSERT_EQ(v.failures.size(), 1u);
  EXPECT_EQ(v.failures[0].chunk, store.chunk_count() - 1);
  EXPECT_NE(v.failures[0].expected_crc, v.failures[0].actual_crc);
  EXPECT_EQ(v.failures[0].expected_crc,
            store.chunk(store.chunk_count() - 1).stored_crc());
  EXPECT_EQ(v.failures[0].actual_crc,
            store.chunk(store.chunk_count() - 1).computed_crc());
  std::filesystem::remove(path);
}

TEST(TraceStore, VerifyReportsEveryCorruptChunkInOnePass) {
  const std::string path = test::scratch_path("multicorrupt.rtst");
  {
    TraceStoreWriter w(path, 6, 8);
    TraceSet set(6);
    for (std::size_t i = 0; i < 24; ++i)  // chunks of 8, 8, 8
      set.add(std::vector<float>(6, 0.25f * static_cast<float>(i)),
              aes::Block{}, aes::Block{});
    w.append(set);
    w.finalize();
  }
  // Corrupt the payloads of chunks 0 and 2, leaving chunk 1 intact.  The
  // last byte of each chunk is payload (trace data), so flipping it breaks
  // exactly that chunk's CRC.
  const std::uint64_t chunk_bytes =
      (std::filesystem::file_size(path) - 64) / 3;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    for (const std::uint64_t c : {0ull, 2ull}) {
      const auto pos =
          static_cast<std::streamoff>(64 + (c + 1) * chunk_bytes - 1);
      char b = 0;
      f.seekg(pos);
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x11);
      f.seekp(pos);
      f.write(&b, 1);
    }
  }
  TraceStore store(path);
  const StoreVerifyResult v = store.verify();
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.chunks_checked, 3u);  // the scan kept going past chunk 0
  ASSERT_EQ(v.failures.size(), 2u);
  EXPECT_EQ(v.failures[0].chunk, 0u);
  EXPECT_EQ(v.failures[1].chunk, 2u);
  EXPECT_EQ(v.failures[0].byte_offset, 64u);
  EXPECT_EQ(v.failures[1].byte_offset, 64u + 2 * chunk_bytes);
  for (const StoreChunkFailure& f : v.failures)
    EXPECT_NE(f.expected_crc, f.actual_crc);
  // error keeps the legacy first-failure summary.
  EXPECT_NE(v.error.find("chunk 0"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TraceStore, StreamedAcquisitionMatchesParallelGolden) {
  // The store acquisition path must write byte-identical traces to the
  // merged in-RAM path for the same factory/seed/shard size, and both must
  // equal serial acquire_random run shard by shard.
  const std::string path = test::scratch_path("acq.rtst");
  const std::size_t n = 300, shard = 64;
  const TraceSet golden =
      acquire_random_parallel(test_factory(), n, 0xBEEF, shard);
  expect_sets_equal(golden,
                    serial_random_reference(test_factory(), n, 0xBEEF, shard));
  {
    TraceStoreWriter w(path, golden.samples(), /*chunk_traces=*/100);
    acquire_random_store(test_factory(), n, 0xBEEF, w, shard);
    w.finalize();
  }
  TraceStore store(path);
  expect_store_equals_set(store, golden);
  std::filesystem::remove(path);
}

TEST(TraceStore, StreamedTvlaAcquisitionMatchesParallelGolden) {
  const std::string fpath = test::scratch_path("tvla_f.rtst");
  const std::string rpath = test::scratch_path("tvla_r.rtst");
  const aes::Block fixed_pt = tvla_fixed_plaintext();
  const std::size_t n = 200, shard = 64;
  const TvlaCapture golden =
      acquire_tvla_parallel(test_factory(), n, fixed_pt, 0xACE, shard);
  const TvlaCapture serial =
      serial_tvla_reference(test_factory(), n, fixed_pt, 0xACE, shard);
  expect_sets_equal(golden.fixed, serial.fixed);
  expect_sets_equal(golden.random, serial.random);
  {
    TraceStoreWriter wf(fpath, golden.fixed.samples(), 96);
    TraceStoreWriter wr(rpath, golden.random.samples(), 96);
    acquire_tvla_store(test_factory(), n, fixed_pt, 0xACE, wf, wr, shard);
    wf.finalize();
    wr.finalize();
  }
  TraceStore fs(fpath), rs(rpath);
  expect_store_equals_set(fs, golden.fixed);
  expect_store_equals_set(rs, golden.random);
  std::filesystem::remove(fpath);
  std::filesystem::remove(rpath);
}

TEST(TraceStore, SerialCaptureEqualsOneShardCampaign) {
  // With one shard covering the whole campaign, the parallel and store
  // entry points are serial acquire_random on factory(0) and the unjumped
  // seed stream.
  const std::string path = test::scratch_path("one_shard.rtst");
  const std::size_t n = 150;
  CaptureShard shard = test_factory()(0);
  Xoshiro256StarStar rng(0x5EED);
  const TraceSet serial = acquire_random(shard.encryptor, shard.sim, n, rng);
  expect_sets_equal(serial,
                    acquire_random_parallel(test_factory(), n, 0x5EED, n));
  {
    TraceStoreWriter w(path, serial.samples(), /*chunk_traces=*/64);
    acquire_random_store(test_factory(), n, 0x5EED, w, n);
    w.finalize();
  }
  expect_store_equals_set(TraceStore(path), serial);
  std::filesystem::remove(path);
}

TEST(TraceStore, SerialTvlaCaptureEqualsOneShardCampaign) {
  const std::string fpath = test::scratch_path("one_shard_f.rtst");
  const std::string rpath = test::scratch_path("one_shard_r.rtst");
  const aes::Block fixed_pt = tvla_fixed_plaintext();
  const std::size_t n = 120;
  CaptureShard shard = test_factory()(0);
  Xoshiro256StarStar rng(0x7E57);
  const TvlaCapture serial =
      acquire_tvla(shard.encryptor, shard.sim, n, fixed_pt, rng);
  const TvlaCapture parallel =
      acquire_tvla_parallel(test_factory(), n, fixed_pt, 0x7E57, n);
  expect_sets_equal(serial.fixed, parallel.fixed);
  expect_sets_equal(serial.random, parallel.random);
  {
    TraceStoreWriter wf(fpath, serial.fixed.samples(), 64);
    TraceStoreWriter wr(rpath, serial.random.samples(), 64);
    acquire_tvla_store(test_factory(), n, fixed_pt, 0x7E57, wf, wr, n);
    wf.finalize();
    wr.finalize();
  }
  expect_store_equals_set(TraceStore(fpath), serial.fixed);
  expect_store_equals_set(TraceStore(rpath), serial.random);
  std::filesystem::remove(fpath);
  std::filesystem::remove(rpath);
}

/// Shared fixture corpus for the streamed-analysis golden tests.
class StreamedAnalysis : public ::testing::Test {
 protected:
  static constexpr std::size_t kTraces = 1'200;
  static const TraceSet& corpus() {
    static TraceSet set =
        acquire_random_parallel(test_factory(), kTraces, 0xF00D, 256);
    return set;
  }
  static const std::string& store_path() {
    static std::string path = [] {
      std::string p = test::shared_scratch_path("analysis.rtst");
      // Chunk size deliberately prime-ish and misaligned with every batch,
      // checkpoint and thread count in the tests below.
      TraceStoreWriter w(p, corpus().samples(), 177);
      w.append(corpus());
      w.finalize();
      return p;
    }();
    return path;
  }
};

TEST_F(StreamedAnalysis, CpaBitIdenticalToInRamAcrossEnginesAndThreads) {
  const aes::Block rk10 = aes::expand_key(test_key())[10];
  TraceStore store(store_path());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    par::set_thread_count(threads);
    for (const analysis::CpaMode mode :
         {analysis::CpaMode::kStreaming, analysis::CpaMode::kBatched}) {
      for (const std::size_t downsample : {std::size_t{1}, std::size_t{4}}) {
        analysis::AttackParams params;
        params.kind = analysis::AttackKind::kCpa;
        params.engine_mode = mode;
        params.downsample = downsample;
        params.byte_positions = {0, 7, 15};
        params.checkpoints = {250, 700, kTraces};
        const analysis::AttackOutcome ram =
            run_attack(corpus(), rk10, params);
        const analysis::AttackOutcome ooc = run_attack(store, rk10, params);
        ASSERT_EQ(ram.checkpoints, ooc.checkpoints);
        ASSERT_EQ(ram.success, ooc.success);
        // Independent reference: the TraceSet::downsampled copy fed to an
        // engine trace by trace.
        const TraceSet ds = corpus().downsampled(downsample);
        analysis::CpaEngine ref(ds.samples(), params.byte_positions,
                                params.leakage, mode);
        std::size_t fed = 0;
        for (std::size_t i = 0; i < ram.checkpoints.size(); ++i) {
          for (; fed < ram.checkpoints[i]; ++fed)
            ref.add(ds.plaintext(fed), ds.ciphertext(fed), ds.trace(fed));
          const analysis::AttackCheckpoint want =
              analysis::evaluate_attack_checkpoint(ref, rk10);
          SCOPED_TRACE("threads=" + std::to_string(threads) + " downsample=" +
                       std::to_string(downsample) +
                       " cp=" + std::to_string(ram.checkpoints[i]));
          // Bit-identical, not approximately equal: every path must feed
          // the same floats through the same accumulators in the same
          // order.
          EXPECT_EQ(ram.mean_rank[i], want.mean_rank);
          EXPECT_EQ(ram.peak_corr[i], want.peak_corr);
          EXPECT_EQ(ooc.mean_rank[i], want.mean_rank);
          EXPECT_EQ(ooc.peak_corr[i], want.peak_corr);
        }
      }
    }
  }
  par::set_thread_count(0);  // restore the default
}

TEST_F(StreamedAnalysis, PreprocessedCpaBitIdenticalToInRam) {
  // PCA exercises the materialized preprocessing prefix (basis fit on the
  // first pca_fit_traces); SW-CPA exercises a pure per-trace transform.
  const aes::Block rk10 = aes::expand_key(test_key())[10];
  TraceStore store(store_path());
  for (const analysis::AttackKind kind :
       {analysis::AttackKind::kPcaCpa, analysis::AttackKind::kSwCpa}) {
    analysis::AttackParams params;
    params.kind = kind;
    params.byte_positions = {0, 11};
    params.pca_fit_traces = 400;  // spans three chunks of the store
    params.checkpoints = {600, kTraces};
    const analysis::AttackOutcome ram = run_attack(corpus(), rk10, params);
    const analysis::AttackOutcome ooc = run_attack(store, rk10, params);
    ASSERT_EQ(ram.checkpoints, ooc.checkpoints);
    for (std::size_t i = 0; i < ram.checkpoints.size(); ++i) {
      EXPECT_EQ(ram.mean_rank[i], ooc.mean_rank[i])
          << attack_name(kind) << " cp=" << ram.checkpoints[i];
      EXPECT_EQ(ram.peak_corr[i], ooc.peak_corr[i])
          << attack_name(kind) << " cp=" << ram.checkpoints[i];
    }
  }
}

TEST(TraceStoreTvla, StreamedTvlaBitIdenticalToInRam) {
  aes::Block fixed_pt{};
  fixed_pt[3] = 0x5A;
  const std::size_t n = 500;
  const TvlaCapture cap =
      acquire_tvla_parallel(test_factory(), n, fixed_pt, 0xD1CE, 128);
  const std::string fpath = test::scratch_path("tvla_ooc_f.rtst");
  const std::string rpath = test::scratch_path("tvla_ooc_r.rtst");
  {
    TraceStoreWriter wf(fpath, cap.fixed.samples(), 93);
    TraceStoreWriter wr(rpath, cap.random.samples(), 93);
    wf.append(cap.fixed);
    wr.append(cap.random);
    wf.finalize();
    wr.finalize();
  }
  StoredTvlaCapture stored{TraceStore(fpath), TraceStore(rpath)};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    par::set_thread_count(threads);
    const analysis::TvlaResult ram = analysis::run_tvla(cap);
    const analysis::TvlaResult ooc = analysis::run_tvla(stored);
    ASSERT_EQ(ram.t_values.size(), ooc.t_values.size());
    for (std::size_t s = 0; s < ram.t_values.size(); ++s)
      EXPECT_EQ(ram.t_values[s], ooc.t_values[s]) << "sample " << s;
    EXPECT_EQ(ram.max_abs_t, ooc.max_abs_t);
    EXPECT_EQ(ram.leaking_samples, ooc.leaking_samples);
    EXPECT_EQ(ram.worst_sample, ooc.worst_sample);
    ASSERT_EQ(ram.convergence.size(), ooc.convergence.size());
    for (std::size_t i = 0; i < ram.convergence.size(); ++i) {
      EXPECT_EQ(ram.convergence[i].first, ooc.convergence[i].first);
      EXPECT_EQ(ram.convergence[i].second, ooc.convergence[i].second);
    }
  }
  par::set_thread_count(0);
  std::filesystem::remove(fpath);
  std::filesystem::remove(rpath);
}

TEST(TraceStoreWriterApi, AddAndAppendAgree) {
  // Feeding traces one at a time must produce the same file as append().
  const std::string p1 = test::scratch_path("add.rtst");
  const std::string p2 = test::scratch_path("append.rtst");
  TraceSet set(4);
  for (std::size_t i = 0; i < 11; ++i)
    set.add(std::vector<float>{1.f * i, 2.f * i, 3.f * i, 4.f * i},
            aes::Block{}, aes::Block{});
  {
    TraceStoreWriter w(p1, 4, 3);
    for (std::size_t i = 0; i < set.size(); ++i)
      w.add(set.trace(i), set.plaintext(i), set.ciphertext(i));
    w.finalize();
  }
  {
    TraceStoreWriter w(p2, 4, 3);
    w.append(set);
    w.finalize();
  }
  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  const std::vector<char> b1((std::istreambuf_iterator<char>(f1)), {});
  const std::vector<char> b2((std::istreambuf_iterator<char>(f2)), {});
  EXPECT_EQ(b1, b2);
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

}  // namespace
}  // namespace rftc::trace
