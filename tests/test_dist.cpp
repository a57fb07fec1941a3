// rftc::dist — distributed campaign engine: protocol codecs, shard
// planning, accumulator snapshot round-trips, and the golden contract that
// a distributed campaign (any worker count, with or without mid-campaign
// worker kills and resume) is bit-identical to the single-process
// run_attack / run_tvla over the same stores.
#include "dist/coordinator.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/cpa.hpp"
#include "analysis/tvla.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "pbt/pbt.hpp"
#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "trace/trace_store.hpp"
#include "util/crc32.hpp"
#include "util/stats.hpp"
#include "util/wire.hpp"
#include "cpa_oracle.hpp"
#include "scratch.hpp"

#ifndef RFTC_TESTS_WORKER_BIN
#define RFTC_TESTS_WORKER_BIN "rftc-worker"
#endif

namespace rftc::dist {
namespace {

namespace fs = std::filesystem;

/// Scoped setenv/unsetenv so env-sensitive tests cannot leak state.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (saved_)
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

std::string temp_dir(const std::string& tag) {
  const std::string p = test::scratch_path(tag);
  fs::create_directories(p);
  return p;
}

aes::Key test_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i)
    k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0xA5 ^ (7 * i));
  return k;
}

trace::CaptureShardFactory test_factory() {
  const aes::Key key = test_key();
  return [key](std::size_t shard) {
    auto dev = std::make_shared<core::ScheduledAesDevice>(
        key, std::make_unique<sched::FixedClockScheduler>(48.0));
    trace::PowerModelParams pm;
    return trace::CaptureShard{
        [dev](const aes::Block& pt) { return dev->encrypt(pt); },
        trace::TraceSimulator(pm, 0x7777 + shard)};
  };
}

/// Capture corpus shared by the campaign tests, built once: an attack store
/// and a TVLA pair with deliberately unequal populations (the tail paths of
/// run_tvla_impl must survive sharding too).
struct Corpus {
  std::string dir;
  std::string attack_store;
  std::string tvla_fixed;
  std::string tvla_random;
  aes::Block rk10{};
  std::size_t n_attack = 600;
  std::size_t n_fixed = 384;
  std::size_t n_random = 320;
  std::size_t samples = 0;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus c;
    c.dir = test::shared_scratch_path("corpus");
    fs::create_directories(c.dir);
    c.rk10 = aes::expand_key(test_key())[10];
    c.samples = test_factory()(0).sim.samples();
    c.attack_store = c.dir + "/attack.rtst";
    {
      trace::TraceStoreWriter w(c.attack_store, c.samples, 97);
      trace::acquire_random_store(test_factory(), c.n_attack, 0xD157D157, w,
                                  128);
      w.finalize();
    }
    aes::Block fixed_pt{};
    for (int i = 0; i < 16; ++i)
      fixed_pt[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(0xDA ^ (3 * i));
    const trace::TvlaCapture cap = trace::acquire_tvla_parallel(
        test_factory(), c.n_fixed, fixed_pt, 0x71A5, 128);
    c.tvla_fixed = c.dir + "/tvla_fixed.rtst";
    c.tvla_random = c.dir + "/tvla_random.rtst";
    {
      trace::TraceStoreWriter w(c.tvla_fixed, c.samples, 97);
      w.append(cap.fixed);
      w.finalize();
    }
    {
      // Truncated random population: n_random < n_fixed.
      trace::TraceStoreWriter w(c.tvla_random, c.samples, 97);
      trace::TraceSet sub(c.samples);
      for (std::size_t i = 0; i < c.n_random; ++i) {
        const auto tr = cap.random.trace(i);
        sub.add(std::vector<float>(tr.begin(), tr.end()),
                cap.random.plaintext(i), cap.random.ciphertext(i));
      }
      w.append(sub);
      w.finalize();
    }
    return c;
  }();
  return c;
}

CampaignSpec attack_spec() {
  const Corpus& c = corpus();
  CampaignSpec spec;
  spec.kind = CampaignKind::kAttack;
  spec.name = "golden-attack";
  spec.store = c.attack_store;
  spec.key_hex = key_to_hex(c.rk10);
  spec.byte_positions = {0, 7};
  spec.checkpoints = {150, 400, c.n_attack};
  return spec;
}

CampaignSpec tvla_spec() {
  const Corpus& c = corpus();
  CampaignSpec spec;
  spec.kind = CampaignKind::kTvla;
  spec.name = "golden-tvla";
  spec.fixed_store = c.tvla_fixed;
  spec.random_store = c.tvla_random;
  return spec;
}

CoordinatorOptions options_for(const std::string& dir, std::size_t workers,
                               std::size_t retries = 1) {
  CoordinatorOptions o;
  o.dir = dir;
  o.worker_binary = RFTC_TESTS_WORKER_BIN;
  o.workers = workers;
  o.retries = retries;
  return o;
}

void expect_attack_identical(const analysis::AttackOutcome& got,
                             const analysis::AttackOutcome& want) {
  ASSERT_EQ(got.checkpoints, want.checkpoints);
  EXPECT_EQ(got.success, want.success);
  ASSERT_EQ(got.mean_rank.size(), want.mean_rank.size());
  ASSERT_EQ(got.peak_corr.size(), want.peak_corr.size());
  for (std::size_t i = 0; i < want.mean_rank.size(); ++i) {
    EXPECT_EQ(got.mean_rank[i], want.mean_rank[i]) << "checkpoint " << i;
    EXPECT_EQ(got.peak_corr[i], want.peak_corr[i]) << "checkpoint " << i;
  }
}

void expect_tvla_identical(const analysis::TvlaResult& got,
                           const analysis::TvlaResult& want) {
  ASSERT_EQ(got.t_values.size(), want.t_values.size());
  for (std::size_t s = 0; s < want.t_values.size(); ++s)
    EXPECT_EQ(got.t_values[s], want.t_values[s]) << "sample " << s;
  EXPECT_EQ(got.max_abs_t, want.max_abs_t);
  EXPECT_EQ(got.worst_sample, want.worst_sample);
  EXPECT_EQ(got.leaking_samples, want.leaking_samples);
  ASSERT_EQ(got.convergence.size(), want.convergence.size());
  for (std::size_t i = 0; i < want.convergence.size(); ++i) {
    EXPECT_EQ(got.convergence[i].first, want.convergence[i].first);
    EXPECT_EQ(got.convergence[i].second, want.convergence[i].second);
  }
}

// --------------------------------------------------------------------------
// Protocol codecs

TEST(DistProtocol, CampaignSpecRoundTrips) {
  CampaignSpec spec;
  spec.kind = CampaignKind::kAttack;
  spec.name = "rt";
  spec.store = "/tmp/s.rtst";
  spec.key_hex = "000102030405060708090a0b0c0d0e0f";
  spec.leakage = aes::LeakageModel::kFirstRoundHw;
  spec.downsample = 2;
  spec.byte_positions = {0, 5, 15};
  spec.checkpoints = {100, 250};
  const std::string json = campaign_to_json(spec);
  const CampaignSpec back = campaign_from_json(json);
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.store, spec.store);
  EXPECT_EQ(back.key_hex, spec.key_hex);
  EXPECT_EQ(back.leakage, spec.leakage);
  EXPECT_EQ(back.downsample, spec.downsample);
  EXPECT_EQ(back.byte_positions, spec.byte_positions);
  EXPECT_EQ(back.checkpoints, spec.checkpoints);
  // Deterministic bytes: re-serialization is the resume cross-check.
  EXPECT_EQ(campaign_to_json(back), json);

  CampaignSpec tvla;
  tvla.kind = CampaignKind::kTvla;
  tvla.fixed_store = "/tmp/f.rtst";
  tvla.random_store = "/tmp/r.rtst";
  const CampaignSpec tvla_back = campaign_from_json(campaign_to_json(tvla));
  EXPECT_EQ(tvla_back.kind, CampaignKind::kTvla);
  EXPECT_EQ(tvla_back.fixed_store, tvla.fixed_store);
  EXPECT_EQ(tvla_back.random_store, tvla.random_store);
}

TEST(DistProtocol, TaskAndDoneRoundTrip) {
  ShardTask task;
  task.spec = attack_spec();
  task.shard = {3, 150, 300};
  task.acc_path = "/tmp/shard_0003.acc";
  task.done_path = "/tmp/shard_0003.done.json";
  const ShardTask t = task_from_json(task_to_json(task));
  EXPECT_EQ(t.shard.index, 3u);
  EXPECT_EQ(t.shard.t0, 150u);
  EXPECT_EQ(t.shard.t1, 300u);
  EXPECT_EQ(t.acc_path, task.acc_path);
  EXPECT_EQ(t.done_path, task.done_path);
  EXPECT_EQ(campaign_to_json(t.spec), campaign_to_json(task.spec));

  ShardDone done;
  done.shard = {3, 150, 300};
  done.acc_bytes = 12345;
  done.acc_crc = 0xDEADBEEF;
  const ShardDone d = done_from_json(done_to_json(done));
  EXPECT_EQ(d.shard.index, 3u);
  EXPECT_EQ(d.shard.t0, 150u);
  EXPECT_EQ(d.shard.t1, 300u);
  EXPECT_EQ(d.acc_bytes, 12345u);
  EXPECT_EQ(d.acc_crc, 0xDEADBEEFu);
}

TEST(DistProtocol, MalformedInputsThrow) {
  EXPECT_THROW(campaign_from_json("not json at all"), std::runtime_error);
  EXPECT_THROW(campaign_from_json("{}"), std::runtime_error);
  EXPECT_THROW(task_from_json("{\"dist_schema\":1}"), std::runtime_error);
  EXPECT_THROW(done_from_json(""), std::runtime_error);

  // Schema mismatch is fatal, not silently tolerated.
  ShardDone done;
  done.shard = {0, 0, 10};
  std::string json = done_to_json(done);
  const auto pos = json.find("\"dist_schema\":1");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 15, "\"dist_schema\":9");
  EXPECT_THROW(done_from_json(json), std::runtime_error);

  // An empty shard range is never a valid work order.
  ShardTask task;
  task.spec = attack_spec();
  task.shard = {0, 5, 5};
  task.acc_path = "/tmp/a";
  task.done_path = "/tmp/d";
  EXPECT_THROW(task_from_json(task_to_json(task)), std::runtime_error);
}

/// `json` with the value after `"key":` (up to the next ',', '}' or the
/// closing ']' of an array) replaced by `value`.
std::string with_value(std::string json, const std::string& key,
                       const std::string& value) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no \"" << key << "\" in " << json;
    return json;
  }
  const std::size_t from = at + tag.size();
  const std::size_t to = json[from] == '['
                             ? json.find(']', from) + 1
                             : json.find_first_of(",}", from);
  return json.replace(from, to - from, value);
}

TEST(DistProtocol, NumbersMustBeExactIntegersInRange) {
  ShardDone done;
  done.shard = {3, 150, 300};
  done.acc_bytes = 12345;
  done.acc_crc = 0xDEADBEEF;
  const std::string good = done_to_json(done);
  // Out of uint64 range, fractional, or wrapped through uint32: each was
  // once read as some other number (1e300 as 0, 2.9 as 2, 2^32 + 1 as 1).
  const std::pair<const char*, const char*> bad_done[] = {
      {"t0", "1e300"},
      {"t1", "1e301"},
      {"t0", "0.5"},
      {"t1", "2.9"},
      {"acc_bytes", "18446744073709551616"},
      {"acc_bytes", "1e400"},
      {"shard", "-1"},
      {"acc_crc32", "4294967297"},
      {"acc_crc32", "4294967296"},
      {"dist_schema", "1.7"},
  };
  for (const auto& [key, value] : bad_done)
    EXPECT_THROW(done_from_json(with_value(good, key, value)),
                 std::runtime_error)
        << key << "=" << value;
  // Exact integers in range still pass, whatever their spelling.
  const ShardDone big = done_from_json(
      with_value(with_value(good, "acc_crc32", "4294967295"), "acc_bytes",
                 "9.007199254740992e15"));
  EXPECT_EQ(big.acc_crc, 0xFFFFFFFFu);
  EXPECT_EQ(big.acc_bytes, std::uint64_t{1} << 53);

  ShardTask task;
  task.spec = attack_spec();
  task.shard = {0, 5, 50};
  task.acc_path = "/tmp/a";
  task.done_path = "/tmp/d";
  const std::string task_json = task_to_json(task);
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"shard", "1e300"},
        {"t0", "0.5"},
        {"downsample", "4.5"},
        {"bytes", "[0,7.5]"},
        {"bytes", "[16]"},
        {"checkpoints", "[150,400.25]"},
        {"checkpoints", "[1e20]"}})
    EXPECT_THROW(task_from_json(with_value(task_json, key, value)),
                 std::runtime_error)
        << key << "=" << value;
  const std::string campaign = campaign_to_json(task.spec);
  EXPECT_THROW(campaign_from_json(with_value(campaign, "bytes", "[0.5]")),
               std::runtime_error);
  EXPECT_THROW(
      campaign_from_json(with_value(campaign, "checkpoints", "[-150]")),
      std::runtime_error);
}

TEST(DistProtocol, KeyHexCodec) {
  const aes::Block key = corpus().rk10;
  const std::string hex = key_to_hex(key);
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(parse_key_hex(hex), key);
  EXPECT_THROW(parse_key_hex("00112233"), std::invalid_argument);
  EXPECT_THROW(parse_key_hex("zz102030405060708090a0b0c0d0e0f0"),
               std::invalid_argument);
}

TEST(DistProtocol, ReadFileMissingEmptyAndMultiRead) {
  const std::string dir = temp_dir("read_file");
  try {
    (void)read_file(dir + "/absent.bin");
    ADD_FAILURE() << "a missing file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("rftc::dist: ", 0), 0u) << e.what();
  }

  write_file_atomic(dir + "/empty.bin", "");
  EXPECT_EQ(read_file(dir + "/empty.bin"), "");

  // Several read(2) calls' worth (read_file reads 1 MiB per call), with a
  // ragged tail; the buffer overload reuses a larger buffer's capacity.
  std::string big(3 * (std::size_t{1} << 20) + 17, '\0');
  std::mt19937 rng(0xF11E);
  for (char& ch : big) ch = static_cast<char>(rng() & 0xFF);
  write_file_atomic(dir + "/big.bin", big);
  EXPECT_EQ(read_file(dir + "/big.bin"), big);
  std::string buf(big.size() + 4096, 'x');
  read_file(dir + "/big.bin", buf);
  EXPECT_EQ(buf, big);
  read_file(dir + "/empty.bin", buf);
  EXPECT_EQ(buf, "");
  fs::remove_all(dir);
}

// --------------------------------------------------------------------------
// Shard planning

TEST(DistPlanShards, PartitionsRangeAndHitsRequiredCuts) {
  const struct {
    std::size_t total, shards;
    std::vector<std::size_t> cuts;
  } cases[] = {
      {600, 2, {150, 400}}, {600, 4, {150, 400}}, {601, 3, {1, 600}},
      {384, 1, {100, 250, 320}}, {7, 7, {}}, {1, 1, {}},
      // Out-of-range cuts (0, total, beyond) are ignored, not boundaries.
      {100, 2, {0, 100, 250}},
  };
  for (const auto& tc : cases) {
    const std::vector<ShardRange> plan =
        plan_shards(tc.total, tc.shards, tc.cuts);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.front().t0, 0u);
    EXPECT_EQ(plan.back().t1, tc.total);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(plan[i].index, i);
      EXPECT_LT(plan[i].t0, plan[i].t1) << "empty shard " << i;
      if (i > 0) {
        EXPECT_EQ(plan[i].t0, plan[i - 1].t1) << "gap at " << i;
      }
    }
    for (const std::size_t cut : tc.cuts) {
      if (cut == 0 || cut >= tc.total) continue;
      bool found = false;
      for (const ShardRange& s : plan) found = found || s.t1 == cut;
      EXPECT_TRUE(found) << "cut " << cut << " not a shard boundary";
    }
  }
}

TEST(DistPlanShards, MoreWorkersThanTracesStaysNonEmpty) {
  const std::vector<ShardRange> plan = plan_shards(3, 8, {});
  EXPECT_LE(plan.size(), 3u);
  EXPECT_EQ(plan.front().t0, 0u);
  EXPECT_EQ(plan.back().t1, 3u);
  for (const ShardRange& s : plan) EXPECT_LT(s.t0, s.t1);
}

TEST(DistPlanShards, RejectsDegenerateInputs) {
  EXPECT_THROW(plan_shards(0, 2, {}), std::invalid_argument);
  EXPECT_THROW(plan_shards(100, 0, {}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Accumulator snapshots (wire format)

analysis::CpaEngine make_synthetic_engine(std::size_t samples,
                                          std::size_t traces,
                                          std::vector<int> bytes = {0, 3}) {
  analysis::CpaEngine engine(samples, std::move(bytes));
  std::mt19937 rng(0xC0FFEE);
  for (std::size_t i = 0; i < traces; ++i) {
    aes::Block ct{};
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng() & 0xFF);
    std::vector<float> tr(samples);
    // ADC-style dyadic quanta: every partial sum is exact, so serialized
    // accumulators of split halves merge bit-identically (the contract the
    // campaign tests then prove end to end on real traces).
    for (auto& v : tr)
      v = static_cast<float>(static_cast<int>(rng() % 256) - 128) * 0.0078125f;
    engine.add(ct, tr);
  }
  return engine;
}

TEST(DistSerialize, CpaEngineRoundTripsBitExactly) {
  const analysis::CpaEngine engine = make_synthetic_engine(24, 40);
  const std::vector<unsigned char> blob = engine.serialize();
  const analysis::CpaEngine back = analysis::CpaEngine::deserialize(blob);
  EXPECT_EQ(back.count(), engine.count());
  EXPECT_EQ(back.samples(), engine.samples());
  EXPECT_EQ(back.byte_positions(), engine.byte_positions());
  EXPECT_EQ(back.serialize(), blob);
}

TEST(DistSerialize, SplitSerializeMergeMatchesSequential) {
  analysis::CpaEngine whole = make_synthetic_engine(24, 40);

  // Same 40 traces split 0..20 / 20..40 across two engines.
  analysis::CpaEngine a(24, {0, 3});
  analysis::CpaEngine b(24, {0, 3});
  std::mt19937 rng(0xC0FFEE);
  for (std::size_t i = 0; i < 40; ++i) {
    aes::Block ct{};
    for (auto& bb : ct) bb = static_cast<std::uint8_t>(rng() & 0xFF);
    std::vector<float> tr(24);
    for (auto& v : tr)
      v = static_cast<float>(static_cast<int>(rng() % 256) - 128) * 0.0078125f;
    (i < 20 ? a : b).add(ct, tr);
  }
  analysis::CpaEngine ad = analysis::CpaEngine::deserialize(a.serialize());
  const analysis::CpaEngine bd =
      analysis::CpaEngine::deserialize(b.serialize());
  ad.merge(bd);
  EXPECT_EQ(ad.serialize(), whole.serialize());

  // Geometry mismatch still rejected after a deserialize round-trip.
  const analysis::CpaEngine other = make_synthetic_engine(16, 4);
  EXPECT_THROW(ad.merge(analysis::CpaEngine::deserialize(other.serialize())),
               std::invalid_argument);
}

/// One bit flipped in a sealed blob, aimed at a region of the CRC kernel's
/// walk: the AVX2 fold takes the first 64-byte block, then the rest of the
/// 16-byte-aligned body, and the byte table the sub-16-byte tail; the last
/// region is the CRC trailer itself.
struct BlobFlip {
  std::size_t region = 0;  // 0 first block, 1 folded body, 2 tail, 3 CRC
  std::size_t byte = 0;
  unsigned bit = 0;
};

/// Property: every single-bit flip of `blob`, in every non-empty region,
/// makes `parse` throw std::runtime_error.
bool every_bit_flip_rejected(
    const std::string& name, std::uint64_t seed,
    const std::vector<unsigned char>& blob,
    const std::function<void(std::span<const unsigned char>)>& parse) {
  const std::size_t body = blob.size() - 4;
  const std::size_t bounds[] = {0, 64, body & ~std::size_t{15}, body,
                                blob.size()};
  std::vector<std::size_t> regions;
  for (std::size_t r = 0; r < 4; ++r)
    if (bounds[r + 1] > bounds[r]) regions.push_back(r);
  return pbt::check<BlobFlip>(
      name,
      [&](pbt::Rng& rng) {
        BlobFlip f;
        f.region = regions[static_cast<std::size_t>(
            rng.uniform(regions.size()))];
        const std::size_t lo = bounds[f.region], hi = bounds[f.region + 1];
        f.byte = lo + static_cast<std::size_t>(rng.uniform(hi - lo));
        f.bit = static_cast<unsigned>(rng.uniform(8));
        return f;
      },
      [&](const BlobFlip& f) -> std::optional<std::string> {
        std::vector<unsigned char> bad = blob;
        bad[f.byte] ^= static_cast<unsigned char>(1u << f.bit);
        try {
          parse(bad);
        } catch (const std::runtime_error&) {
          return std::nullopt;
        } catch (const std::exception& e) {
          return std::string("threw a non-runtime_error: ") + e.what();
        }
        return "corrupt blob accepted";
      },
      pbt::Config::from_env(seed), {},
      [&](const BlobFlip& f) {
        std::ostringstream os;
        os << "region=" << f.region << " byte=" << f.byte << "/"
           << blob.size() << " bit=" << f.bit;
        return os.str();
      });
}

/// The regions every_bit_flip_rejected aims at must all be non-empty.
void expect_all_flip_regions(const std::vector<unsigned char>& blob) {
  const std::size_t body = blob.size() - 4;
  EXPECT_GT(body & ~std::size_t{15}, 64u) << "no folded body past block 0";
  EXPECT_NE(body % 16, 0u) << "no sub-16-byte tail";
}

TEST(DistSerialize, CpaEngineRejectsCorruptBlobs) {
  // Three byte positions: the odd count of u32 header fields leaves a
  // sub-16-byte tail past the fold.
  const analysis::CpaEngine engine = make_synthetic_engine(24, 40, {0, 3, 7});
  const std::vector<unsigned char> blob = engine.serialize();
  expect_all_flip_regions(blob);

  EXPECT_THROW(analysis::CpaEngine::deserialize({}), std::runtime_error);

  std::vector<unsigned char> truncated(blob.begin(),
                                       blob.begin() + blob.size() / 2);
  EXPECT_THROW(analysis::CpaEngine::deserialize(truncated),
               std::runtime_error);

  EXPECT_TRUE(every_bit_flip_rejected(
      "cpa_blob_bitflip", 0xB10BF11B, blob,
      [](std::span<const unsigned char> b) {
        (void)analysis::CpaEngine::deserialize(b);
      }));

  std::vector<unsigned char> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(analysis::CpaEngine::deserialize(bad_magic),
               std::runtime_error);
}

/// A CRC-sealed last-round CPA blob whose header claims `samples` samples
/// over all 16 bytes, followed by `payload` zero bytes.
std::vector<unsigned char> forged_cpa_blob(std::uint64_t samples,
                                           std::size_t payload) {
  std::vector<unsigned char> out;
  wire::put_magic(out, "RFTCCPA1");
  wire::put_u32(out, 1);  // engine tag
  wire::put_u32(out, 0);  // last-round HD
  wire::put_u64(out, samples);
  wire::put_u64(out, 16);
  wire::put_u64(out, 0);
  for (std::uint32_t b = 0; b < 16; ++b) wire::put_u32(out, b);
  out.resize(out.size() + payload, 0);
  wire::seal(out);
  return out;
}

TEST(DistSerialize, CpaGeometryMustMatchPayloadExactly) {
  // The arrays of 1 sample over 16 bytes: 2 * 256 * 16 hypothesis sums
  // plus (2 + 16 * (1 + 8 * 256)) per-sample doubles.
  const std::size_t exact = 8 * (2 * 256 * 16 + 2 + 16 * (1 + 8 * 256));
  EXPECT_NO_THROW(analysis::CpaEngine::deserialize(forged_cpa_blob(1, exact)));
  EXPECT_THROW(analysis::CpaEngine::deserialize(forged_cpa_blob(2, exact)),
               std::runtime_error);
  EXPECT_THROW(analysis::CpaEngine::deserialize(forged_cpa_blob(1, exact + 8)),
               std::runtime_error);
  // Sample counts whose array sizes overflow 64 bits.
  for (const std::uint64_t samples :
       {std::uint64_t{1} << 61, ~std::uint64_t{0}, ~std::uint64_t{0} / 8})
    EXPECT_THROW(
        analysis::CpaEngine::deserialize(forged_cpa_blob(samples, exact)),
        std::runtime_error);
}

TEST(DistSerialize, CpaForgedGeometryRejectedBeforeAllocating) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RLIMIT_AS cannot bound a sanitizer's shadow mappings";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  GTEST_SKIP() << "RLIMIT_AS cannot bound a sanitizer's shadow mappings";
#endif
#endif
  // 64 KiB of payload under a header claiming 8192 samples: class sums of
  // that geometry take 16 * (1 + 8 * 256) * 8192 doubles, about 2 GiB.  A
  // child with 256 MiB of address space to spare must see the blob
  // rejected, not run out of memory allocating for it.
  const std::vector<unsigned char> blob = forged_cpa_blob(8192, 64 * 1024);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::size_t pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const rlim_t limit =
        static_cast<rlim_t>(pages) * static_cast<rlim_t>(::getpagesize()) +
        (rlim_t{256} << 20);
    const rlimit lim{limit, limit};
    if (::setrlimit(RLIMIT_AS, &lim) != 0) _exit(4);
    try {
      (void)analysis::CpaEngine::deserialize(blob);
      _exit(1);
    } catch (const std::runtime_error&) {
      _exit(0);
    } catch (const std::bad_alloc&) {
      _exit(2);
    } catch (...) {
      _exit(3);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1 = accepted, 2 = std::bad_alloc (allocated before validating)";
}

/// Byte offsets at which a CPA blob's sections start, plus its size: magic,
/// the engine and model tags, samples, byte count, trace count, byte
/// positions, every accumulator array and the CRC trailer.
std::vector<std::size_t> cpa_section_bounds(const analysis::CpaEngine& e,
                                            aes::LeakageModel model) {
  const std::size_t nb = e.byte_positions().size(), s = e.samples();
  std::vector<std::size_t> lens = {8, 4, 4, 8, 8, 8, 4 * nb,
                                   8 * s, 8 * s, 8 * 256 * nb, 8 * 256 * nb};
  if (model == aes::LeakageModel::kLastRoundHd) {
    lens.push_back(8 * nb * s);
    lens.push_back(8 * nb * 256 * 8 * s);
  } else {
    lens.push_back(8 * nb * 256 * s);
  }
  lens.push_back(4);
  std::vector<std::size_t> bounds = {0};
  for (const std::size_t len : lens) bounds.push_back(bounds.back() + len);
  return bounds;
}

/// `blob` with its trailing CRC replaced by a fresh seal over the rest, so
/// a mutation reaches the parser behind the CRC check.
std::vector<unsigned char> resealed(std::vector<unsigned char> blob) {
  blob.resize(blob.size() >= 4 ? blob.size() - 4 : 0);
  wire::seal(blob);
  return blob;
}

/// The one-parser contract for a candidate blob: deserialize() and
/// merge(blob) each either throw a typed error (std::runtime_error or
/// std::invalid_argument) — merge leaving its target's serialize() bytes as
/// they were — or accept it, and then deserialize() round-trips the blob
/// and merge(blob) equals merge(deserialize(blob)).
std::optional<std::string> blob_contract(std::span<const unsigned char> cand,
                                         const analysis::CpaEngine& target) {
  std::optional<analysis::CpaEngine> parsed;
  try {
    parsed.emplace(analysis::CpaEngine::deserialize(cand));
  } catch (const std::runtime_error&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    return std::string("deserialize threw an untyped error: ") + e.what();
  }
  if (parsed) {
    const std::vector<unsigned char> back = parsed->serialize();
    if (!std::equal(back.begin(), back.end(), cand.begin(), cand.end()))
      return "deserialize accepted a blob that does not round-trip";
  }
  analysis::CpaEngine merged = target;
  const std::vector<unsigned char> before = merged.serialize();
  try {
    merged.merge(cand);
  } catch (const std::runtime_error&) {
    if (merged.serialize() != before) return "merge(blob) threw after mutating";
    return std::nullopt;
  } catch (const std::invalid_argument&) {
    if (merged.serialize() != before) return "merge(blob) threw after mutating";
    return std::nullopt;
  } catch (const std::exception& e) {
    return std::string("merge(blob) threw an untyped error: ") + e.what();
  }
  if (!parsed) return "merge(blob) accepted a blob deserialize rejects";
  analysis::CpaEngine want = target;
  want.merge(*parsed);
  if (merged.serialize() != want.serialize())
    return "merge(blob) differs from merge(deserialize(blob))";
  return std::nullopt;
}

TEST(DistSerialize, CpaMergeBlobMatchesEngineMerge) {
  // Two halves of one trace stream: merging the second half's blob into
  // the first is bit-identical to the engine merge and to one engine fed
  // everything (dyadic samples keep every sum exact).
  const analysis::CpaEngine whole = make_synthetic_engine(24, 40);
  analysis::CpaEngine a(24, {0, 3});
  analysis::CpaEngine b(24, {0, 3});
  std::mt19937 rng(0xC0FFEE);
  for (std::size_t i = 0; i < 40; ++i) {
    aes::Block ct{};
    for (auto& bb : ct) bb = static_cast<std::uint8_t>(rng() & 0xFF);
    std::vector<float> tr(24);
    for (auto& v : tr)
      v = static_cast<float>(static_cast<int>(rng() % 256) - 128) *
          0.0078125f;
    (i < 20 ? a : b).add(ct, tr);
  }
  analysis::CpaEngine by_engine = a;
  by_engine.merge(b);
  a.merge(b.serialize());  // a's tile is still unflushed here
  EXPECT_EQ(a.count(), 40u);
  EXPECT_EQ(a.serialize(), by_engine.serialize());
  EXPECT_EQ(a.serialize(), whole.serialize());
}

TEST(DistSerialize, CpaMergeBlobRejectsOtherGeometryUntouched) {
  const analysis::CpaEngine target = make_synthetic_engine(24, 40, {0, 3, 7});
  analysis::CpaEngine first_round(24, {0, 3, 7},
                                  aes::LeakageModel::kFirstRoundHw);
  const std::vector<std::vector<unsigned char>> others = {
      make_synthetic_engine(24, 8, {0, 3, 8}).serialize(),  // other byte set
      make_synthetic_engine(24, 8, {0, 3}).serialize(),     // fewer bytes
      first_round.serialize(),                              // other model
      make_synthetic_engine(23, 8, {0, 3, 7}).serialize(),  // other samples
  };
  const std::vector<unsigned char> before = target.serialize();
  for (std::size_t i = 0; i < others.size(); ++i) {
    analysis::CpaEngine t = target;
    EXPECT_THROW(t.merge(others[i]), std::invalid_argument) << "case " << i;
    EXPECT_EQ(t.serialize(), before) << "case " << i;
    EXPECT_FALSE(blob_contract(others[i], target)) << "case " << i;
  }
}

TEST(DistSerialize, CpaBlobTruncatedAtEverySectionBoundary) {
  const analysis::CpaEngine target = make_synthetic_engine(24, 40, {0, 3, 7});
  const std::vector<unsigned char> blob =
      make_synthetic_engine(24, 16, {0, 3, 7}).serialize();
  const std::vector<std::size_t> bounds =
      cpa_section_bounds(target, aes::LeakageModel::kLastRoundHd);
  ASSERT_EQ(bounds.back(), blob.size());
  for (const std::size_t cut : bounds) {
    for (const std::size_t len : {cut, cut > 0 ? cut - 1 : 0, cut + 1}) {
      if (len >= blob.size()) continue;
      const std::vector<unsigned char> prefix(blob.begin(),
                                              blob.begin() + len);
      for (const auto& cand : {prefix, resealed(prefix)}) {
        const std::optional<std::string> bad = blob_contract(cand, target);
        EXPECT_FALSE(bad) << *bad << " (length " << len << ")";
        // A truncated snapshot is never a valid one.
        analysis::CpaEngine t = target;
        EXPECT_ANY_THROW(t.merge(cand)) << "length " << cand.size();
      }
    }
  }
}

TEST(DistSerialize, CpaBlobWithAStaleEngineTagIsRejectedUntouched) {
  // Tag 0 marked a snapshot of the per-guess streaming engine older builds
  // shipped; 2 was never written.  Resealed, so only the tag is wrong —
  // the payload even has this geometry's exact size.
  const analysis::CpaEngine target = make_synthetic_engine(24, 40, {0, 3, 7});
  const std::vector<unsigned char> before = target.serialize();
  for (const std::uint32_t tag : {0u, 2u}) {
    std::vector<unsigned char> blob =
        make_synthetic_engine(24, 16, {0, 3, 7}).serialize();
    std::vector<unsigned char> stale;
    wire::put_u32(stale, tag);
    std::copy(stale.begin(), stale.end(), blob.begin() + 8);  // after magic
    blob = resealed(std::move(blob));
    EXPECT_THROW((void)analysis::CpaEngine::deserialize(blob),
                 std::runtime_error)
        << "tag " << tag;
    analysis::CpaEngine t = target;
    EXPECT_THROW(t.merge(blob), std::runtime_error) << "tag " << tag;
    EXPECT_EQ(t.serialize(), before) << "tag " << tag;
  }
}

/// A random multi-byte mutation of a sealed CPA blob: `edits` bytes are
/// XORed with a non-zero mask anywhere in the blob, or only inside the
/// header and then resealed, so the mutation gets past the CRC.
struct BlobMutation {
  bool reseal = false;
  std::vector<std::pair<std::size_t, unsigned char>> edits;
};

/// Up to four edits of a non-zero mask each: anywhere in `blob`, or only in
/// its first `header` bytes and then resealed.
BlobMutation random_mutation(pbt::Rng& rng, std::size_t blob_size,
                             std::size_t header) {
  BlobMutation m;
  m.reseal = rng.uniform(2) == 1;
  const std::size_t span = m.reseal ? header : blob_size;
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(4));
  for (std::size_t i = 0; i < n; ++i)
    m.edits.emplace_back(static_cast<std::size_t>(rng.uniform(span)),
                         static_cast<unsigned char>(1 + rng.uniform(255)));
  return m;
}

std::vector<unsigned char> mutated(std::vector<unsigned char> blob,
                                   const BlobMutation& m) {
  for (const auto& [at, mask] : m.edits) blob[at] ^= mask;
  return m.reseal ? resealed(std::move(blob)) : blob;
}

/// Shrinks toward a single edit.
std::vector<BlobMutation> shrink_mutation(const BlobMutation& m) {
  std::vector<BlobMutation> out;
  for (std::size_t i = 0; m.edits.size() > 1 && i < m.edits.size(); ++i) {
    BlobMutation fewer = m;
    fewer.edits.erase(fewer.edits.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(fewer));
  }
  return out;
}

std::string describe_mutation(const BlobMutation& m) {
  std::ostringstream os;
  os << (m.reseal ? "resealed" : "raw") << " edits:";
  for (const auto& [at, mask] : m.edits)
    os << " " << at << "^" << static_cast<unsigned>(mask);
  return os.str();
}

TEST(DistSerialize, CpaBlobRandomMutationsKeepTheParserContract) {
  const analysis::CpaEngine target = make_synthetic_engine(24, 40, {0, 3, 7});
  const std::vector<unsigned char> blob =
      make_synthetic_engine(24, 16, {0, 3, 7}).serialize();
  // Header: everything before the first accumulator array.
  const std::size_t header =
      cpa_section_bounds(target, aes::LeakageModel::kLastRoundHd)[7];
  EXPECT_TRUE(pbt::check<BlobMutation>(
      "cpa_blob_mutation",
      [&](pbt::Rng& rng) { return random_mutation(rng, blob.size(), header); },
      [&](const BlobMutation& m) {
        return blob_contract(mutated(blob, m), target);
      },
      pbt::Config::from_env(0x3B10B5EED, 100), shrink_mutation,
      describe_mutation));
}

/// A Welch accumulator over 16 samples fed `traces` dyadic traces,
/// alternating between the two populations.
WelchTTest make_welch(std::size_t traces) {
  WelchTTest test(16);
  std::mt19937 rng(0xBEEF);
  for (std::size_t i = 0; i < traces; ++i) {
    std::vector<double> tr(16);
    for (auto& v : tr)
      v = static_cast<double>(static_cast<int>(rng() % 512) - 256) * 0.015625;
    if (i % 2 == 0)
      test.add_fixed(tr);
    else
      test.add_random(tr);
  }
  return test;
}

TEST(DistSerialize, WelchRoundTripAndCorruptionRejected) {
  const WelchTTest test = make_welch(30);
  const std::vector<unsigned char> blob = test.serialize();
  const WelchTTest back = WelchTTest::deserialize(blob);
  EXPECT_EQ(back.samples(), test.samples());
  const std::vector<double> want = test.t_values();
  const std::vector<double> got = back.t_values();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) EXPECT_EQ(got[s], want[s]);
  EXPECT_EQ(back.serialize(), blob);

  // A Welch body is 16 + 48 * samples bytes, always a whole number of
  // 16-byte blocks: its only bytes past the fold are the CRC trailer.
  EXPECT_TRUE(every_bit_flip_rejected(
      "welch_blob_bitflip", 0x3E1C4F11, blob,
      [](std::span<const unsigned char> b) {
        (void)WelchTTest::deserialize(b);
      }));
  std::vector<unsigned char> truncated = blob;
  truncated.pop_back();
  EXPECT_THROW(WelchTTest::deserialize(truncated), std::runtime_error);

  // A Welch snapshot is not a CPA snapshot: magic dispatch, not size luck.
  EXPECT_THROW(analysis::CpaEngine::deserialize(blob), std::runtime_error);
}

/// The Welch parser contract for a candidate blob: deserialize() throws a
/// typed error (std::runtime_error or std::invalid_argument), or accepts
/// the blob and round-trips it byte for byte.
std::optional<std::string> welch_contract(std::span<const unsigned char> cand) {
  try {
    const std::vector<unsigned char> back =
        WelchTTest::deserialize(cand).serialize();
    if (!std::equal(back.begin(), back.end(), cand.begin(), cand.end()))
      return "deserialize accepted a blob that does not round-trip";
  } catch (const std::runtime_error&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    return std::string("deserialize threw an untyped error: ") + e.what();
  }
  return std::nullopt;
}

/// Byte offsets at which a Welch blob's sections start, plus its size:
/// magic, sample count, the six per-sample arrays and the CRC trailer.
std::vector<std::size_t> welch_section_bounds(std::size_t samples) {
  std::vector<std::size_t> bounds = {0, 8, 16};
  for (int a = 0; a < 6; ++a) bounds.push_back(bounds.back() + 8 * samples);
  bounds.push_back(bounds.back() + 4);
  return bounds;
}

TEST(DistSerialize, WelchBlobTruncatedAtEverySectionBoundary) {
  const std::vector<unsigned char> blob = make_welch(30).serialize();
  const std::vector<std::size_t> bounds = welch_section_bounds(16);
  ASSERT_EQ(bounds.back(), blob.size());
  for (const std::size_t cut : bounds) {
    for (const std::size_t len : {cut, cut > 0 ? cut - 1 : 0, cut + 1}) {
      if (len >= blob.size()) continue;
      const std::vector<unsigned char> prefix(blob.begin(),
                                              blob.begin() + len);
      for (const auto& cand : {prefix, resealed(prefix)}) {
        const std::optional<std::string> bad = welch_contract(cand);
        EXPECT_FALSE(bad) << *bad << " (length " << len << ")";
        // A truncated snapshot is never a valid one.
        EXPECT_ANY_THROW((void)WelchTTest::deserialize(cand))
            << "length " << cand.size();
      }
    }
  }
}

TEST(DistSerialize, WelchBlobRandomMutationsKeepTheParserContract) {
  const std::vector<unsigned char> blob = make_welch(30).serialize();
  // Header: the magic and the sample count.
  const std::size_t header = welch_section_bounds(16)[2];
  EXPECT_TRUE(pbt::check<BlobMutation>(
      "welch_blob_mutation",
      [&](pbt::Rng& rng) { return random_mutation(rng, blob.size(), header); },
      [&](const BlobMutation& m) { return welch_contract(mutated(blob, m)); },
      pbt::Config::from_env(0x3E1C4F12, 200), shrink_mutation,
      describe_mutation));
}

/// Whether two parsed JSON documents hold the same values, members in
/// order.
bool same_json(const obs::json::Value& a, const obs::json::Value& b) {
  if (a.kind != b.kind || a.boolean != b.boolean || a.num != b.num ||
      a.str != b.str || a.array.size() != b.array.size() ||
      a.object.size() != b.object.size())
    return false;
  for (std::size_t i = 0; i < a.array.size(); ++i)
    if (!same_json(a.array[i], b.array[i])) return false;
  for (std::size_t i = 0; i < a.object.size(); ++i)
    if (a.object[i].first != b.object[i].first ||
        !same_json(a.object[i].second, b.object[i].second))
      return false;
  return true;
}

/// The protocol-file parser contract for a candidate text: `parse` throws
/// std::runtime_error, or what it accepted prints as text that parses back
/// to the same bytes and holds the same JSON values as the candidate — so
/// the parse dropped, truncated or wrapped nothing.
template <class T>
std::optional<std::string> json_contract(
    std::string_view cand, T (*parse)(std::string_view),
    std::string (*print)(const T&)) {
  std::string text;
  try {
    text = print(parse(cand));
  } catch (const std::runtime_error&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    return std::string("threw an untyped error: ") + e.what();
  }
  try {
    if (print(parse(text)) != text)
      return "accepted value does not round-trip: " + text;
  } catch (const std::exception& e) {
    return std::string("printed text is rejected: ") + e.what();
  }
  if (!same_json(obs::json::parse(cand), obs::json::parse(text)))
    return "accepted text and its round-trip hold different values: " + text;
  return std::nullopt;
}

/// Random byte mutations of a valid protocol file keep the parser
/// contract: typed throw or byte-exact round-trip.
template <class T>
bool json_mutations_keep_the_contract(const std::string& name,
                                      std::uint64_t seed,
                                      const std::string& valid,
                                      T (*parse)(std::string_view),
                                      std::string (*print)(const T&)) {
  const std::vector<unsigned char> bytes(valid.begin(), valid.end());
  return pbt::check<BlobMutation>(
      name,
      [&](pbt::Rng& rng) {
        return random_mutation(rng, bytes.size(), bytes.size());
      },
      [&](const BlobMutation& m) {
        const std::vector<unsigned char> cand = mutated(bytes, m);
        return json_contract(
            std::string_view(reinterpret_cast<const char*>(cand.data()),
                             cand.size()),
            parse, print);
      },
      pbt::Config::from_env(seed, 10'000), shrink_mutation,
      describe_mutation);
}

TEST(DistProtocol, ParsersThrowOrRoundTripUnderRandomMutations) {
  ShardTask task;
  task.spec = attack_spec();
  task.shard = {2, 150, 400};
  task.acc_path = "/tmp/shard_0002.acc";
  task.done_path = "/tmp/shard_0002.done.json";
  ShardDone done;
  done.shard = task.shard;
  done.acc_bytes = 2'098'712;
  done.acc_crc = 0x9E3779B9;
  EXPECT_TRUE(json_mutations_keep_the_contract<CampaignSpec>(
      "campaign_json_mutation", 0xCA3B0001, campaign_to_json(task.spec),
      campaign_from_json, campaign_to_json));
  EXPECT_TRUE(json_mutations_keep_the_contract<CampaignSpec>(
      "tvla_campaign_json_mutation", 0xCA3B0002, campaign_to_json(tvla_spec()),
      campaign_from_json, campaign_to_json));
  EXPECT_TRUE(json_mutations_keep_the_contract<ShardTask>(
      "task_json_mutation", 0xCA3B0003, task_to_json(task), task_from_json,
      task_to_json));
  EXPECT_TRUE(json_mutations_keep_the_contract<ShardDone>(
      "done_json_mutation", 0xCA3B0004, done_to_json(done), done_from_json,
      done_to_json));
}

// --------------------------------------------------------------------------
// Worker + shard manifests (in-process)

TEST(DistWorker, TaskProducesDurableShardAndIsIdempotent) {
  const std::string dir = temp_dir("worker_inproc");
  ShardTask task;
  task.spec = attack_spec();
  task.shard = {0, 0, 50};
  task.acc_path = dir + "/shard_0000.acc";
  task.done_path = dir + "/shard_0000.done.json";
  const std::string task_path = dir + "/shard_0000.task.json";
  write_file_atomic(task_path, task_to_json(task));

  run_worker_task(task_path);
  EXPECT_TRUE(shard_complete(task.shard, task.acc_path, task.done_path));
  const std::string first = read_file(task.acc_path);

  // Re-running the same task (a retried worker) rewrites identical state.
  run_worker_task(task_path);
  EXPECT_TRUE(shard_complete(task.shard, task.acc_path, task.done_path));
  EXPECT_EQ(read_file(task.acc_path), first);

  // The snapshot really is the range's accumulator.
  const analysis::CpaEngine engine = analysis::CpaEngine::deserialize(
      {reinterpret_cast<const unsigned char*>(first.data()), first.size()});
  EXPECT_EQ(engine.count(), 50u);

  EXPECT_THROW(run_worker_task(dir + "/no_such_task.json"),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(DistWorker, ShardCompleteRejectsTamperedOrMismatchedManifests) {
  const std::string dir = temp_dir("worker_manifest");
  ShardTask task;
  task.spec = attack_spec();
  task.shard = {2, 10, 40};
  task.acc_path = dir + "/shard_0002.acc";
  task.done_path = dir + "/shard_0002.done.json";
  const std::string task_path = dir + "/shard_0002.task.json";
  write_file_atomic(task_path, task_to_json(task));
  run_worker_task(task_path);
  ASSERT_TRUE(shard_complete(task.shard, task.acc_path, task.done_path));

  // Wrong range: a manifest for some other shard must not be reused.
  EXPECT_FALSE(
      shard_complete(ShardRange{2, 10, 41}, task.acc_path, task.done_path));
  // Missing files are "not complete", never an error.
  EXPECT_FALSE(shard_complete(task.shard, dir + "/absent.acc", task.done_path));
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, dir + "/absent.json"));

  // Size mismatch (appended garbage survives a CRC of the prefix? no —
  // recorded byte count must match exactly).
  const std::string acc = read_file(task.acc_path);
  write_file_atomic(task.acc_path, acc + "X");
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, task.done_path));

  // Same size, flipped payload byte: CRC mismatch.
  std::string flipped = acc;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  write_file_atomic(task.acc_path, flipped);
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, task.done_path));

  // Restore and also corrupt the manifest side.
  write_file_atomic(task.acc_path, acc);
  ASSERT_TRUE(shard_complete(task.shard, task.acc_path, task.done_path));
  write_file_atomic(task.done_path, "{\"not\":\"a manifest\"}\n");
  EXPECT_FALSE(shard_complete(task.shard, task.acc_path, task.done_path));
  fs::remove_all(dir);
}

// --------------------------------------------------------------------------
// Coordinator option validation

TEST(DistCoordinator, RejectsBadOptions) {
  const CampaignSpec spec = attack_spec();
  CoordinatorOptions o = options_for(temp_dir("bad_options"), 2);
  o.workers = 0;
  EXPECT_THROW(run_campaign(spec, o), std::invalid_argument);
  o.workers = 2;
  o.dir.clear();
  EXPECT_THROW(run_campaign(spec, o), std::invalid_argument);
  o = options_for(temp_dir("bad_options"), 2);
  o.worker_binary = "/no/such/rftc-worker";
  EXPECT_THROW(run_campaign(spec, o), std::invalid_argument);
}

TEST(DistCoordinator, WorkerBinaryEnvOverride) {
  EnvGuard guard("RFTC_WORKER_BIN", "/tmp/custom-worker");
  EXPECT_EQ(default_worker_binary(), "/tmp/custom-worker");
}

// --------------------------------------------------------------------------
// Golden: distributed == single-process, across worker counts and engines

TEST(DistCampaign, AttackMatchesSingleProcessAcrossWorkersAndEngines) {
  const Corpus& c = corpus();
  const CampaignSpec spec = attack_spec();
  const trace::TraceStore store(c.attack_store);
  const analysis::AttackOutcome baseline =
      analysis::run_attack(store, spec.key(), spec.attack_params());
  ASSERT_EQ(baseline.checkpoints,
            (std::vector<std::size_t>{150, 400, c.n_attack}));
  // The single-process engine itself matches the scalar oracle over the
  // same traces.
  trace::TraceSet set(store.samples());
  store.for_range(0, store.size(), [&](const auto& seg, std::size_t k0,
                                       std::size_t k1) {
    for (std::size_t k = k0; k < k1; ++k) {
      const auto tr = seg.trace(k);
      set.add(std::vector<float>(tr.begin(), tr.end()), seg.plaintext(k),
              seg.ciphertext(k));
    }
  });
  expect_attack_identical(
      analysis::oracle_attack(set, spec.key(), spec.attack_params()),
      baseline);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const std::string dir = temp_dir("attack_w" + std::to_string(workers));
    const CampaignResult result =
        run_campaign(spec, options_for(dir, workers));
    EXPECT_GE(result.shards_total, workers);
    EXPECT_EQ(result.shards_reused, 0u);
    EXPECT_EQ(result.worker_restarts, 0u);
    expect_attack_identical(result.attack, baseline);
    fs::remove_all(dir);
  }
}

TEST(DistCampaign, TvlaMatchesSingleProcessWithUnequalPopulations) {
  const Corpus& c = corpus();
  // Pin the convergence schedule so the test is byte-stable regardless of
  // the ambient RFTC_OBS_CHECKPOINTS; both paths read the same env.
  EnvGuard cps("RFTC_OBS_CHECKPOINTS", "100,250");
  const CampaignSpec spec = tvla_spec();
  const trace::StoredTvlaCapture capture{trace::TraceStore(c.tvla_fixed),
                                         trace::TraceStore(c.tvla_random)};
  const analysis::TvlaResult baseline = analysis::run_tvla(capture);
  ASSERT_EQ(baseline.convergence.size(), 3u);  // 100, 250, final(384)
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const std::string dir = temp_dir("tvla_w" + std::to_string(workers));
    const CampaignResult result = run_campaign(spec, options_for(dir, workers));
    expect_tvla_identical(result.tvla, baseline);
    fs::remove_all(dir);
  }
}

TEST(DistCampaign, RerunReusesEveryCompletedShard) {
  const CampaignSpec spec = attack_spec();
  const std::string dir = temp_dir("rerun_reuse");
  const CampaignResult first = run_campaign(spec, options_for(dir, 2));
  const CampaignResult second = run_campaign(spec, options_for(dir, 2));
  EXPECT_EQ(second.shards_reused, first.shards_total);
  EXPECT_EQ(second.worker_restarts, 0u);
  expect_attack_identical(second.attack, first.attack);
  fs::remove_all(dir);
}

TEST(DistCampaign, RejectsDirectoryOfDifferentCampaign) {
  const CampaignSpec spec = attack_spec();
  const std::string dir = temp_dir("foreign_dir");
  (void)run_campaign(spec, options_for(dir, 1));
  CampaignSpec other = spec;
  other.checkpoints = {200};
  EXPECT_THROW(run_campaign(other, options_for(dir, 1)),
               std::invalid_argument);
  fs::remove_all(dir);
}

// --------------------------------------------------------------------------
// Kill + resume

TEST(DistCampaign, KilledWorkerWithNoRetriesLeavesResumableDirectory) {
  const Corpus& c = corpus();
  const CampaignSpec spec = attack_spec();
  const trace::TraceStore store(c.attack_store);
  const analysis::AttackOutcome baseline =
      analysis::run_attack(store, spec.key(), spec.attack_params());

  const std::string dir = temp_dir("kill_resume");
  const std::string mark = dir + "/kill.mark";
  EnvGuard kill_shard("RFTC_DIST_KILL_SHARD", "1");
  EnvGuard kill_mark("RFTC_DIST_KILL_MARK", mark.c_str());

  // First run: shard 1's worker SIGKILLs itself mid-shard; with retries=0
  // the campaign fails but every other shard's checkpoint is durable.
  EXPECT_THROW(run_campaign(spec, options_for(dir, 2, /*retries=*/0)),
               std::runtime_error);
  EXPECT_TRUE(fs::exists(mark));

  // Second run over the same directory: the kill latch is spent (marker
  // exists), completed shards are reused, and the merged result is still
  // bit-identical to the single-process baseline.
  const CampaignResult resumed =
      run_campaign(spec, options_for(dir, 2, /*retries=*/0));
  EXPECT_GE(resumed.shards_reused, 1u);
  EXPECT_LT(resumed.shards_reused, resumed.shards_total);
  EXPECT_EQ(resumed.worker_restarts, 0u);
  expect_attack_identical(resumed.attack, baseline);
  fs::remove_all(dir);
}

TEST(DistCampaign, KilledWorkerIsRetriedInPlace) {
  const Corpus& c = corpus();
  const CampaignSpec spec = attack_spec();
  const trace::TraceStore store(c.attack_store);
  const analysis::AttackOutcome baseline =
      analysis::run_attack(store, spec.key(), spec.attack_params());

  const std::string dir = temp_dir("kill_retry");
  const std::string mark = dir + "/kill.mark";
  EnvGuard kill_shard("RFTC_DIST_KILL_SHARD", "0");
  EnvGuard kill_mark("RFTC_DIST_KILL_MARK", mark.c_str());

  const CampaignResult result =
      run_campaign(spec, options_for(dir, 2, /*retries=*/1));
  EXPECT_TRUE(fs::exists(mark));
  EXPECT_EQ(result.worker_restarts, 1u);
  expect_attack_identical(result.attack, baseline);
  fs::remove_all(dir);
}

TEST(DistCampaign, KilledTvlaWorkerResumesBitIdentically) {
  const Corpus& c = corpus();
  EnvGuard cps("RFTC_OBS_CHECKPOINTS", "100,250");
  const CampaignSpec spec = tvla_spec();
  const trace::StoredTvlaCapture capture{trace::TraceStore(c.tvla_fixed),
                                         trace::TraceStore(c.tvla_random)};
  const analysis::TvlaResult baseline = analysis::run_tvla(capture);

  const std::string dir = temp_dir("tvla_kill");
  const std::string mark = dir + "/kill.mark";
  EnvGuard kill_shard("RFTC_DIST_KILL_SHARD", "0");
  EnvGuard kill_mark("RFTC_DIST_KILL_MARK", mark.c_str());

  EXPECT_THROW(run_campaign(spec, options_for(dir, 2, /*retries=*/0)),
               std::runtime_error);
  const CampaignResult resumed =
      run_campaign(spec, options_for(dir, 2, /*retries=*/0));
  EXPECT_GE(resumed.shards_reused, 1u);
  expect_tvla_identical(resumed.tvla, baseline);
  fs::remove_all(dir);
}

TEST(DistCampaign, ShardsFoldedCounterCountsEveryShard) {
  const CampaignSpec spec = attack_spec();
  const std::string dir = temp_dir("folded_counter");
  const obs::Counter& folded =
      obs::Registry::global().counter("dist.shards_folded");
  const std::uint64_t before = folded.value();
  const CampaignResult result = run_campaign(spec, options_for(dir, 2));
  EXPECT_EQ(folded.value() - before, result.shards_total);
  fs::remove_all(dir);
}

TEST(DistCampaign, FoldFailureKillsAndReapsEveryWorker) {
  const Corpus& c = corpus();
  const CampaignSpec spec = attack_spec();
  const trace::TraceStore store(c.attack_store);
  const analysis::AttackOutcome baseline =
      analysis::run_attack(store, spec.key(), spec.attack_params());
  const std::vector<ShardRange> plan =
      plan_shards(c.n_attack, 2, spec.checkpoints);
  ASSERT_GE(plan.size(), 3u);

  // Shard 1 holds a sealed snapshot that is not a CpaEngine (a Welch one),
  // with a manifest whose size and CRC match it: it passes shard_complete
  // and is reused, and only its fold can tell — while workers still run.
  const std::string dir = temp_dir("fold_failure");
  fs::create_directories(dir + "/shards");
  const std::string stem = shard_stem(dir, 1);
  const std::vector<unsigned char> foreign = WelchTTest(8).serialize();
  write_file_atomic(stem + ".acc",
                    std::string_view(reinterpret_cast<const char*>(
                                         foreign.data()),
                                     foreign.size()));
  ShardDone done;
  done.shard = plan[1];
  done.acc_bytes = foreign.size();
  done.acc_crc = util::crc32(foreign.data(), foreign.size());
  write_file_atomic(stem + ".done.json", done_to_json(done));

  EXPECT_THROW(run_campaign(spec, options_for(dir, 2)), std::runtime_error);
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1)
      << "a worker outlived the throw";
  EXPECT_EQ(errno, ECHILD);

  // The directory stays resumable: with the foreign snapshot gone, a rerun
  // reuses what the first run completed and matches the single process.
  fs::remove(stem + ".done.json");
  const CampaignResult resumed = run_campaign(spec, options_for(dir, 2));
  EXPECT_EQ(resumed.worker_restarts, 0u);
  expect_attack_identical(resumed.attack, baseline);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rftc::dist
