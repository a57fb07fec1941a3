#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

namespace rftc::par {
namespace {

/// Restores the configured worker count when a test returns.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(thread_count()) {}
  ~ThreadCountGuard() { set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

TEST(Parallel, ThreadCountIsAtLeastOne) {
  EXPECT_GE(thread_count(), 1u);
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);  // back to env/hardware default
  EXPECT_GE(thread_count(), 1u);
}

TEST(Parallel, ShardCount) {
  EXPECT_EQ(shard_count(0, 0, 4), 0u);
  EXPECT_EQ(shard_count(5, 5, 4), 0u);
  EXPECT_EQ(shard_count(0, 1, 4), 1u);
  EXPECT_EQ(shard_count(0, 8, 4), 2u);
  EXPECT_EQ(shard_count(0, 9, 4), 3u);
  EXPECT_EQ(shard_count(3, 9, 4), 2u);
  EXPECT_EQ(shard_count(0, 9, 0), 9u);  // zero grain behaves as 1
}

TEST(Parallel, CoversRangeExactlyOnce) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    std::vector<std::atomic<int>> hits(103);
    parallel_for(3, 103, 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), i >= 3 && i < 103 ? 1 : 0) << "i=" << i;
  }
}

TEST(Parallel, ShardBoundariesIndependentOfThreadCount) {
  ThreadCountGuard guard;
  std::set<std::pair<std::size_t, std::size_t>> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> shards;
    parallel_for(10, 250, 16, [&](std::size_t b, std::size_t e) {
      const std::lock_guard<std::mutex> lock(mu);
      shards.emplace(b, e);
    });
    if (reference.empty()) reference = shards;
    EXPECT_EQ(shards, reference) << "threads=" << threads;
  }
  // Pure function of (begin, end, grain): first shard starts at begin,
  // consecutive shards abut, last one ends at end.
  std::size_t expect_begin = 10;
  for (const auto& [b, e] : reference) {
    EXPECT_EQ(b, expect_begin);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 250u);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool ran = false;
  parallel_for(5, 5, 4, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, PropagatesBodyException) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_count(threads);
    EXPECT_THROW(
        parallel_for(0, 64, 4,
                     [&](std::size_t b, std::size_t) {
                       if (b == 32) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
    // The pool survives an exception and keeps working.
    std::atomic<std::size_t> n{0};
    parallel_for(0, 64, 4, [&](std::size_t b, std::size_t e) {
      n.fetch_add(e - b);
    });
    EXPECT_EQ(n.load(), 64u);
  }
}

TEST(Parallel, NestedCallsRunInline) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(0, 8, 1, [&](std::size_t ob, std::size_t) {
    parallel_for(0, 8, 2, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) hits[ob * 8 + i].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace rftc::par
