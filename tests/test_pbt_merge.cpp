// Accumulator-merge properties: the contract the sharded campaign engine
// builds on (docs/TESTING.md).  For random trace batches and random shard
// splits, folding per-shard CPA / Welch-t accumulators with merge() is
//
//   (a) associative bit-exactly:  (a·b)·c == a·(b·c), and
//   (b) bit-identical to one accumulator fed every trace in order,
//
// across a thread-count sweep and adversarial batch sizes, and the merged
// CPA report equals the scalar oracle's (cpa_oracle.hpp).  All of it holds
// because every accumulator is raw sums and ADC-quantized traces make those
// sums exact — so elementwise addition commutes with concatenation.
// Geometry mismatches must be rejected loudly.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cpa.hpp"
#include "pbt/generators.hpp"
#include "pbt/pbt.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "cpa_oracle.hpp"

namespace rftc {
namespace {

using analysis::CpaEngine;
using pbt::Config;
using pbt::Rng;

/// Restores the global worker count when a thread-sweeping test ends.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(par::thread_count()) {}
  ~ThreadCountGuard() { par::set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

struct MergeCase {
  pbt::gen::TraceBatch batch;
  /// Contiguous shard sizes summing to batch.size(); at least three parts so
  /// the two association orders (a·b)·c and a·(b·c) are genuinely distinct.
  std::vector<std::size_t> shards;
  /// Tile size forced onto the shard engines — deliberately small and
  /// misaligned with shard boundaries.
  std::size_t batch_size = 1;
};

MergeCase gen_merge_case(Rng& rng) {
  MergeCase c;
  c.batch = pbt::gen::trace_batch(rng, 16, 96, 8, 48);
  c.shards = pbt::gen::shard_split(rng, c.batch.size(), 5);
  while (c.shards.size() < 3) c.shards.push_back(0);
  c.batch_size = pbt::gen::size_in(rng, 1, 9);
  return c;
}

std::string show_merge_case(const MergeCase& c) {
  std::ostringstream os;
  os << "traces=" << c.batch.size() << " samples=" << c.batch.samples
     << " batch_size=" << c.batch_size << " shards=[";
  for (const std::size_t s : c.shards) os << s << " ";
  os << "]";
  return os.str();
}

/// Shrinks toward fewer shards (merging adjacent ones keeps the trace
/// stream identical, isolating the association structure as the cause).
std::vector<MergeCase> shrink_merge_case(const MergeCase& c) {
  std::vector<MergeCase> out;
  if (c.shards.size() > 3) {
    for (std::size_t i = 0; i + 1 < c.shards.size(); ++i) {
      MergeCase s = c;
      s.shards[i] += s.shards[i + 1];
      s.shards.erase(s.shards.begin() + static_cast<std::ptrdiff_t>(i + 1));
      out.push_back(std::move(s));
    }
  }
  return out;
}

constexpr std::size_t kThreadSweep[] = {1, 8};

// ------------------------------------------------------------------- CPA --

std::optional<std::string> diff_reports(
    const std::vector<CpaEngine::ByteReport>& a,
    const std::vector<CpaEngine::ByteReport>& b, const char* label) {
  if (a.size() != b.size()) return std::string(label) + ": report count";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].byte_pos != b[i].byte_pos)
      return std::string(label) + ": byte_pos";
    if (std::memcmp(a[i].peak_abs_corr.data(), b[i].peak_abs_corr.data(),
                    sizeof(a[i].peak_abs_corr)) != 0) {
      std::ostringstream os;
      os << label << ": correlations diverged for byte " << a[i].byte_pos;
      return os.str();
    }
  }
  return std::nullopt;
}

CpaEngine cpa_over(const pbt::gen::TraceBatch& batch, std::size_t first,
                   std::size_t count, std::size_t batch_size) {
  CpaEngine e(batch.samples, {0, 5});
  e.set_batch_size(batch_size);
  for (std::size_t i = first; i < first + count; ++i)
    e.add(batch.ct[i], batch.traces[i]);
  return e;
}

TEST(PbtMerge, CpaMergeIsAssociativeAndMatchesSinglePass) {
  const Config cfg = Config::from_env(0x4E46E1, 40);
  for (const std::size_t threads : kThreadSweep) {
    ThreadCountGuard guard;
    par::set_thread_count(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const bool ok = pbt::check<MergeCase>(
        "cpa_merge_associative", gen_merge_case,
        [&](const MergeCase& c) -> std::optional<std::string> {
          // Per-shard engines over the contiguous split.
          std::vector<CpaEngine> parts;
          std::size_t first = 0;
          for (const std::size_t n : c.shards) {
            parts.push_back(cpa_over(c.batch, first, n, c.batch_size));
            first += n;
          }
          // Fold left: ((a·b)·c)·...
          CpaEngine left = parts.front();
          for (std::size_t i = 1; i < parts.size(); ++i)
            left.merge(parts[i]);
          // Fold right: a·(b·(c·...))
          CpaEngine right = parts.back();
          for (std::size_t i = parts.size() - 1; i-- > 0;) {
            CpaEngine tmp = parts[i];
            tmp.merge(right);
            right = std::move(tmp);
          }
          // Single pass, default tile size (merge must also erase any
          // batch-size dependence), and the scalar oracle.
          CpaEngine single(c.batch.samples, {0, 5});
          analysis::CpaOracle oracle(c.batch.samples, {0, 5});
          for (std::size_t i = 0; i < c.batch.size(); ++i) {
            single.add(c.batch.ct[i], c.batch.traces[i]);
            oracle.add(c.batch.ct[i], c.batch.traces[i]);
          }

          if (left.count() != c.batch.size() ||
              right.count() != c.batch.size())
            return "merged trace count wrong";
          const auto left_report = left.report();
          if (auto d = diff_reports(left_report, right.report(),
                                    "(a.b).c vs a.(b.c)"))
            return d;
          if (auto d = diff_reports(left_report, single.report(),
                                    "merged vs single-pass"))
            return d;
          if (auto d = diff_reports(left_report, oracle.report(),
                                    "merged vs oracle"))
            return d;
          return std::nullopt;
        },
        cfg, shrink_merge_case, show_merge_case);
    EXPECT_TRUE(ok);
  }
}

TEST(PbtMerge, CpaMergeRejectsGeometryMismatch) {
  CpaEngine base(32, {0, 5});
  EXPECT_THROW(base.merge(CpaEngine(33, {0, 5})), std::invalid_argument);
  EXPECT_THROW(base.merge(CpaEngine(32, {0, 7})), std::invalid_argument);
  CpaEngine first_round(32, {0, 5}, aes::LeakageModel::kFirstRoundHw);
  EXPECT_THROW(base.merge(first_round), std::invalid_argument);
}

// ----------------------------------------------------------------- Welch --

/// Class assignment for the TVLA split: fixed iff the ciphertext's first
/// byte is odd — an arbitrary but deterministic function of the batch.
bool is_fixed(const aes::Block& ct) { return (ct[0] & 1) != 0; }

WelchTTest welch_over(const pbt::gen::TraceBatch& batch, std::size_t first,
                      std::size_t count) {
  WelchTTest tt(batch.samples);
  for (std::size_t i = first; i < first + count; ++i) {
    if (is_fixed(batch.ct[i]))
      tt.add_fixed_range(batch.traces[i], 0, batch.samples);
    else
      tt.add_random_range(batch.traces[i], 0, batch.samples);
  }
  return tt;
}

TEST(PbtMerge, WelchMergeIsAssociativeAndMatchesSinglePass) {
  const Config cfg = Config::from_env(0x4E46E2, 60);
  const bool ok = pbt::check<MergeCase>(
      "welch_merge_associative", gen_merge_case,
      [](const MergeCase& c) -> std::optional<std::string> {
        std::vector<WelchTTest> parts;
        std::size_t first = 0;
        for (const std::size_t n : c.shards) {
          parts.push_back(welch_over(c.batch, first, n));
          first += n;
        }
        WelchTTest left = parts.front();
        for (std::size_t i = 1; i < parts.size(); ++i) left.merge(parts[i]);
        WelchTTest right = parts.back();
        for (std::size_t i = parts.size() - 1; i-- > 0;) {
          WelchTTest tmp = parts[i];
          tmp.merge(right);
          right = std::move(tmp);
        }
        const WelchTTest single = welch_over(c.batch, 0, c.batch.size());

        if (left.fixed_count() != single.fixed_count() ||
            left.random_count() != single.random_count())
          return "merged population counts wrong";
        const std::vector<double> t_left = left.t_values();
        const std::vector<double> t_right = right.t_values();
        const std::vector<double> t_single = single.t_values();
        if (std::memcmp(t_left.data(), t_right.data(),
                        t_left.size() * sizeof(double)) != 0)
          return "(a.b).c vs a.(b.c): t sweep diverged";
        if (std::memcmp(t_left.data(), t_single.data(),
                        t_left.size() * sizeof(double)) != 0)
          return "merged vs single-pass: t sweep diverged";
        return std::nullopt;
      },
      cfg, shrink_merge_case, show_merge_case);
  EXPECT_TRUE(ok);
}

TEST(PbtMerge, WelchMergeRejectsShapeMismatch) {
  WelchTTest a(16);
  WelchTTest b(17);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

}  // namespace
}  // namespace rftc
