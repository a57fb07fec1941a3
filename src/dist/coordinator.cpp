#include "dist/coordinator.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "analysis/cpa.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "trace/trace_store.hpp"
#include "util/stats.hpp"

extern "C" char** environ;

namespace rftc::dist {

namespace {

namespace fs = std::filesystem;

/// Child environment: the parent's, minus the shared-sink RFTC_OBS_*
/// variables every worker would otherwise clobber, plus per-shard heartbeat
/// and post-mortem sinks under the campaign directory — each worker gets its
/// own liveness stream and crash bundle.
std::vector<std::string> child_env(const std::string& stem) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view s(*e);
    if (s.starts_with("RFTC_OBS_HEARTBEAT=") ||
        s.starts_with("RFTC_OBS_POSTMORTEM=") ||
        s.starts_with("RFTC_OBS_TRACE=") ||
        s.starts_with("RFTC_OBS_METRICS="))
      continue;
    env.emplace_back(s);
  }
  env.push_back("RFTC_OBS_HEARTBEAT=" + stem + ".heartbeat.jsonl");
  env.push_back("RFTC_OBS_POSTMORTEM=" + stem + ".postmortem.json");
  return env;
}

pid_t spawn_worker(const std::string& binary, const std::string& task_path,
                   const std::vector<std::string>& env) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  argv.push_back(const_cast<char*>(task_path.c_str()));
  argv.push_back(nullptr);
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (const std::string& s : env) envp.push_back(const_cast<char*>(s.c_str()));
  envp.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec.
    ::execve(binary.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  return pid;
}

std::span<const unsigned char> as_bytes(const std::string& blob) {
  return {reinterpret_cast<const unsigned char*>(blob.data()), blob.size()};
}

obs::Counter& shards_folded_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("dist.shards_folded");
  return c;
}

/// SIGKILLs and reaps every running worker: no child outlives a campaign
/// that throws.  What they leave behind is a partial the next run ignores.
void kill_workers(const std::map<pid_t, std::size_t>& running) {
  for (const auto& [pid, idx] : running) ::kill(pid, SIGKILL);
  for (const auto& [pid, idx] : running) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

}  // namespace

std::string default_worker_binary() {
  if (const char* env = std::getenv("RFTC_WORKER_BIN");
      env != nullptr && *env != '\0')
    return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    const std::string self(buf);
    const std::size_t slash = self.find_last_of('/');
    if (slash != std::string::npos)
      return self.substr(0, slash + 1) + "rftc-worker";
  }
  return "rftc-worker";
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CoordinatorOptions& options) {
  if (options.workers == 0)
    throw std::invalid_argument("run_campaign: workers must be >= 1");
  if (options.dir.empty())
    throw std::invalid_argument("run_campaign: campaign dir required");
  const std::string binary = options.worker_binary.empty()
                                 ? default_worker_binary()
                                 : options.worker_binary;
  if (::access(binary.c_str(), X_OK) != 0)
    throw std::invalid_argument("run_campaign: worker binary not executable: " +
                                binary);
  // Absolute campaign dir: shard paths go into task files and child
  // environments, which must not depend on any process's working directory
  // (or get re-rooted under RFTC_BENCH_DIR by the obs sinks).
  const std::string dir = fs::absolute(options.dir).string();
  fs::create_directories(dir + "/shards");

  // Campaign geometry and the checkpoint schedule the merge must hit.
  // `span` is the trace-index axis being sharded; for TVLA it is the union
  // axis [0, max(nf, nr)) — each population clips to its own size inside
  // the worker.
  std::size_t span = 0;
  std::size_t n_fixed = 0, n_random = 0, paired = 0, tvla_samples = 0;
  std::vector<std::size_t> eval_cuts;  // attack checkpoints / TVLA conv points
  if (spec.kind == CampaignKind::kAttack) {
    const trace::TraceStore store(spec.store);
    if (store.size() == 0)
      throw std::invalid_argument("run_campaign: empty store");
    span = store.size();
    eval_cuts = analysis::normalized_checkpoints(spec.attack_params(), span);
  } else {
    const trace::TraceStore fixed(spec.fixed_store);
    const trace::TraceStore random(spec.random_store);
    if (fixed.samples() != random.samples())
      throw std::invalid_argument(
          "run_campaign: fixed/random sample count mismatch");
    n_fixed = fixed.size();
    n_random = random.size();
    tvla_samples = fixed.samples();
    span = std::max(n_fixed, n_random);
    paired = std::min(n_fixed, n_random);
    // run_tvla's schedule, plus the paired boundary itself so the lockstep
    // region ends on a cut.
    eval_cuts = analysis::tvla_checkpoints(paired);
    if (paired > 0) eval_cuts.push_back(paired);
  }

  const std::vector<ShardRange> shards =
      plan_shards(span, options.workers, eval_cuts);

  // campaign.json is provenance and the resume cross-check: merging shards
  // of a *different* campaign that happens to share the directory would be
  // silent corruption, so any mismatch is fatal.
  const std::string campaign_path = dir + "/campaign.json";
  const std::string campaign_json = campaign_to_json(spec);
  if (fs::exists(campaign_path)) {
    if (read_file(campaign_path) != campaign_json)
      throw std::invalid_argument(
          "run_campaign: " + campaign_path +
          " holds a different campaign; use a fresh directory");
  } else {
    write_file_atomic(campaign_path, campaign_json);
  }

  CampaignResult result;
  result.shards_total = shards.size();
  // One snapshot buffer, reused across shards; `held` names the shard whose
  // verified bytes it holds when that shard is next in range order.
  std::string snapshot;
  std::optional<std::size_t> held;

  // Resume scan: a shard whose manifest checkpoint still matches its
  // snapshot survived the previous run (however it died) and is reused.
  std::vector<bool> done_flags(shards.size(), false);
  std::vector<std::size_t> queue;
  for (const ShardRange& shard : shards) {
    const std::string stem = shard_stem(dir, shard.index);
    if (shard_complete(shard, stem + ".acc", stem + ".done.json", snapshot)) {
      done_flags[shard.index] = true;
      ++result.shards_reused;
    } else {
      queue.push_back(shard.index);
    }
  }

  // The merged prefix.  Shards fold in range order, and the prefix is
  // scored the moment it reaches a checkpoint.  Every eval cut is a shard
  // boundary, so the merged state there is bit-identical (exact sums) to
  // the single-process accumulator at that checkpoint, and it is scored and
  // recorded by the single-process code.
  std::optional<analysis::CpaEngine> merged_cpa;
  std::optional<WelchTTest> merged_welch;
  aes::Block key{};
  if (spec.kind == CampaignKind::kAttack) {
    key = spec.key();
    result.attack.kind = analysis::AttackKind::kCpa;
  }
  std::size_t next_fold = 0, next_cp = 0;
  const auto fold_next = [&] {
    const ShardRange& shard = shards[next_fold++];
    // Only a shard that completed out of range order (or was reused) is
    // read again here; the fold re-checks its CRC either way.
    if (held != shard.index)
      read_file(shard_stem(dir, shard.index) + ".acc", snapshot);
    held.reset();
    const std::span<const unsigned char> blob = as_bytes(snapshot);
    RFTC_OBS_SPAN(span, "dist", "fold");
    if (spec.kind == CampaignKind::kAttack) {
      if (!merged_cpa)
        merged_cpa.emplace(analysis::CpaEngine::deserialize(blob));
      else
        merged_cpa->merge(blob);
      // Duplicate checkpoints evaluate twice, exactly like run_attack.
      for (; next_cp < eval_cuts.size() && eval_cuts[next_cp] == shard.t1;
           ++next_cp)
        result.attack.record(
            eval_cuts[next_cp],
            analysis::evaluate_attack_checkpoint(*merged_cpa, key));
    } else {
      WelchTTest test = WelchTTest::deserialize(blob);
      if (test.samples() != tvla_samples)
        throw std::runtime_error(
            "run_campaign: shard snapshot sample count mismatch");
      if (!merged_welch)
        merged_welch.emplace(std::move(test));
      else
        merged_welch->merge(test);
      // Convergence entries at tvla_checkpoints — the same points run_tvla
      // records before its final entry.
      if (shard.t1 < paired &&
          std::binary_search(eval_cuts.begin(), eval_cuts.end(), shard.t1))
        result.tvla.record(
            shard.t1,
            scan_t(merged_welch->t_values(), analysis::kTvlaThreshold)
                .max_abs_t);
    }
    shards_folded_counter().inc();
  };

  // One dispatch loop: up to `workers` concurrent children, kill detection
  // via waitpid, bounded retries, and the in-order fold of every completed
  // shard while the others still run.  Any terminal failure leaves the
  // directory resumable.
  std::map<pid_t, std::size_t> running;
  std::vector<std::size_t> attempts(shards.size(), 0);
  std::vector<std::size_t> failed;
  const auto retry_or_fail = [&](std::size_t idx) {
    if (attempts[idx] <= options.retries) {
      ++result.worker_restarts;
      queue.push_back(idx);
    } else {
      failed.push_back(idx);
    }
  };
  const auto reap = [&](pid_t pid, int status) {
    const auto it = running.find(pid);
    if (it == running.end()) return;  // not one of ours
    const std::size_t idx = it->second;
    running.erase(it);
    const std::string stem = shard_stem(dir, idx);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      // The buffer is about to be reused: fold the shard it holds first.
      if (held) fold_next();
      if (shard_complete(shards[idx], stem + ".acc", stem + ".done.json",
                         snapshot)) {
        done_flags[idx] = true;
        if (idx == next_fold) held = idx;
        return;
      }
    }
    obs::log::warn(
        "dist", "worker attempt failed",
        {obs::log::kv("shard", static_cast<double>(idx)),
         obs::log::kv("signal", WIFSIGNALED(status)
                                    ? static_cast<double>(WTERMSIG(status))
                                    : 0.0),
         obs::log::kv("exit", WIFEXITED(status)
                                  ? static_cast<double>(WEXITSTATUS(status))
                                  : -1.0)});
    retry_or_fail(idx);
  };
  try {
    std::size_t next = 0;
    for (;;) {
      while (running.size() < options.workers && next < queue.size()) {
        const std::size_t idx = queue[next++];
        const std::string stem = shard_stem(dir, idx);
        ShardTask task;
        task.spec = spec;
        task.shard = shards[idx];
        task.acc_path = stem + ".acc";
        task.done_path = stem + ".done.json";
        write_file_atomic(stem + ".task.json", task_to_json(task));
        ++attempts[idx];
        const pid_t pid =
            spawn_worker(binary, stem + ".task.json", child_env(stem));
        if (pid < 0)
          retry_or_fail(idx);
        else
          running.emplace(pid, idx);
      }
      const bool foldable = next_fold < shards.size() && done_flags[next_fold];
      if (running.empty() && !foldable) break;
      if (!running.empty()) {
        // Reap first, so a freed slot is refilled before the coordinator
        // spends time folding; block only when there is nothing to fold.
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, foldable ? WNOHANG : 0);
        if (pid < 0) {
          if (errno == EINTR) continue;
          throw std::runtime_error(
              std::string("run_campaign: waitpid failed: ") +
              std::strerror(errno));
        }
        if (pid > 0) {
          reap(pid, status);
          continue;
        }
      }
      fold_next();
    }
  } catch (...) {
    kill_workers(running);
    throw;
  }
  if (!failed.empty()) {
    std::sort(failed.begin(), failed.end());
    std::string list;
    for (const std::size_t idx : failed) {
      if (!list.empty()) list += ", ";
      list += std::to_string(idx);
    }
    throw std::runtime_error(
        "run_campaign: shards exhausted retries: {" + list +
        "}; the campaign directory is intact — rerun to resume");
  }
  if (spec.kind == CampaignKind::kTvla)
    result.tvla.finish(*merged_welch, n_fixed);
  return result;
}

}  // namespace rftc::dist
