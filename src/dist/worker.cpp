#include "dist/worker.hpp"

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "analysis/attacks.hpp"
#include "analysis/tvla.hpp"
#include "dist/protocol.hpp"
#include "obs/log.hpp"
#include "trace/trace_store.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/wire.hpp"

namespace rftc::dist {

namespace {

/// One-shot kill injection (tests, dist-resume CI job): if this shard is the
/// configured victim and the marker does not exist yet, create the marker
/// and die by SIGKILL — nothing of the shard is durable yet, so the next
/// attempt must redo it from scratch.  O_EXCL makes the marker the "already
/// killed once" latch, so retries and resumes run to completion.
void maybe_kill_for_test(std::size_t shard) {
  const char* target = std::getenv("RFTC_DIST_KILL_SHARD");
  const char* mark = std::getenv("RFTC_DIST_KILL_MARK");
  if (target == nullptr || mark == nullptr) return;
  const auto idx = env::parse_u64(target);
  if (!idx || *idx != shard) return;
  const int fd = ::open(mark, O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return;  // marker exists: this shard already died once
  ::fsync(fd);
  ::close(fd);
  ::raise(SIGKILL);
}

}  // namespace

void run_worker_task(const std::string& task_path) {
  const ShardTask task = task_from_json(read_file(task_path));
  obs::log::info("dist", "worker shard start",
                 {obs::log::kv("shard", static_cast<double>(task.shard.index)),
                  obs::log::kv("t0", static_cast<double>(task.shard.t0)),
                  obs::log::kv("t1", static_cast<double>(task.shard.t1)),
                  obs::log::kv("kind", campaign_kind_name(task.spec.kind))});

  const auto start = std::chrono::steady_clock::now();
  ShardDone done;
  done.shard = task.shard;
  // Streams the accumulator straight into its snapshot file: the seal and
  // byte count the manifest records come from that one pass.
  const auto write_snapshot = [&](const auto& acc) {
    done.accumulate_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    maybe_kill_for_test(task.shard.index);
    const SnapshotWrite w = write_file_atomic(
        task.acc_path, [&](wire::Writer& out) { return acc.serialize(out); });
    done.acc_bytes = w.bytes;
    done.acc_crc = w.seal;
    done.write_us = w.write_us;
    done.sync_us = w.sync_us;
  };
  if (task.spec.kind == CampaignKind::kAttack) {
    const trace::TraceStore store(task.spec.store);
    write_snapshot(analysis::accumulate_attack_range(
        store, task.spec.attack_params(), task.shard.t0, task.shard.t1));
  } else {
    const trace::TraceStore fixed(task.spec.fixed_store);
    const trace::TraceStore random(task.spec.random_store);
    if (fixed.samples() != random.samples())
      throw std::runtime_error(
          "run_worker_task: fixed/random sample count mismatch");
    WelchTTest test(fixed.samples());
    // The shard range lives on the union axis [0, max(nf, nr)); each
    // population clips to its own size inside accumulate_tvla_range.
    analysis::accumulate_tvla_range(test, fixed, task.shard.t0, task.shard.t1,
                                    true);
    analysis::accumulate_tvla_range(test, random, task.shard.t0, task.shard.t1,
                                    false);
    write_snapshot(test);
  }
  // Ordering is the durability contract: the done manifest only exists once
  // the snapshot it describes is fully on disk, so shard_complete() can
  // never endorse a torn snapshot.
  write_file_atomic(task.done_path, done_to_json(done));
}

}  // namespace rftc::dist
