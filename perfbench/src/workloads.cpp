#include "workloads.hpp"

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/dtw.hpp"
#include "analysis/tvla.hpp"
#include "bench/common.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "simd/simd.hpp"
#include "spans.hpp"
#include "trace/acquisition.hpp"
#include "trace/trace_store.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using analysis::AttackKind;
using analysis::AttackOutcome;
using analysis::AttackParams;
using trace::CaptureShard;
using trace::CaptureShardFactory;
using trace::TraceSet;
using trace::TraceStore;

// ---- Sizing (see README.md, "Sizing") ------------------------------------

/// tvla-capture: RFTC(3, 1024), 8 shards of 1,024 fixed + 1,024 random.
constexpr int kTvlaM = 3, kTvlaP = 1024;
constexpr std::size_t kTvlaPerPopulation = 8 * trace::kCaptureShardSize;
/// cpa-reattack / attack-suite / dist-cpa corpora: RFTC(1, 4).
constexpr int kCorpusM = 1, kCorpusP = 4;
constexpr std::size_t kCpaTraces = 32 * 1024;
constexpr std::size_t kCpaCheckpointStep = 2 * 1024;
constexpr std::size_t kSuiteTraces = 16 * 1024;
constexpr std::size_t kSuiteCheckpointStep = 4 * 1024;
/// Bytes the suite attacks: the fast-profile subset, fixed here so that no
/// environment setting changes the workload.
constexpr std::size_t kSuiteBytes[] = {0, 5, 10, 15};
/// Set-up repetitions when set-up is not part of every pass.
constexpr std::size_t kSetupReps = 5;
/// Timed passes a run makes even when the budget is spent sooner.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kDistWorkers = 2;
/// DTW alignments timed one by one in the traced attack-suite run.
constexpr std::size_t kDtwProbeTraces = 1024;

/// Outcome digests for kDefaultSeed, one per workload (dist-cpa runs the
/// cpa-reattack campaign, so the two share one).
constexpr std::uint64_t kDigestTvla = 0x7e897248d060365aULL;
constexpr std::uint64_t kDigestCpa = 0x06024dce868b4caaULL;
constexpr std::uint64_t kDigestSuite = 0x3487f02d188359b3ULL;

// ---- Inputs ----------------------------------------------------------------

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return rftc::SplitMix64(seed ^ (0x9E3779B97F4A7C15ULL * salt)).next();
}

/// Everything a workload draws from its seed.
struct Inputs {
  std::uint64_t mix;      ///< device and simulator seeds of every shard
  std::uint64_t capture;  ///< plaintext substream seed
  aes::Block fixed_plaintext;
};

Inputs inputs_for(std::uint64_t seed) {
  rftc::Xoshiro256StarStar rng(derive(seed, 3));
  return {derive(seed, 1), derive(seed, 2), trace::random_block(rng)};
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// bench::rftc_shard_factory with every call counted.
CaptureShardFactory counted(CaptureShardFactory factory,
                            std::atomic<std::uint64_t>& builds) {
  return [factory = std::move(factory), &builds](std::size_t j) {
    builds.fetch_add(1, std::memory_order_relaxed);
    return factory(j);
  };
}

// ---- Timing ----------------------------------------------------------------

/// Per-pass measurements of the timed phase plus the set-up repetitions.
struct Timing {
  std::vector<double> setup_s;
  std::vector<double> wall_s, rate, cpu_per_ktrace, busy;
  std::vector<double> traced_wall_s;
  std::size_t failed_passes = 0;
  double start = now_s();

  void pass(bool traced, double traces, double wall, double cpu,
            std::size_t threads) {
    if (traced) {
      traced_wall_s.push_back(wall);
      return;
    }
    wall_s.push_back(wall);
    rate.push_back(traces / wall);
    cpu_per_ktrace.push_back(cpu / traces * 1000.0);
    busy.push_back(cpu / (wall * static_cast<double>(threads)));
  }
  std::size_t passes() const {
    return wall_s.size() + traced_wall_s.size() + failed_passes;
  }
  /// Another pass fits: fewer than kMinPasses so far, or the longest pass
  /// yet still fits in what is left of `seconds`.
  bool more(double seconds, double longest) const {
    return passes() < kMinPasses || now_s() - start + longest <= seconds;
  }
  /// A traced run alternates untraced and traced passes.
  bool next_traced(bool tracing) const { return tracing && passes() % 2 == 1; }
};

void report_end_to_end(Result& r, const Timing& t) {
  std::string rates;
  for (const double x : t.rate) rates += " " + std::to_string(static_cast<long>(x));
  std::fprintf(stderr, "perfbench: %zu passes, traces/s:%s\n", t.rate.size(),
               rates.c_str());
  r.metric("traces_per_s", median(t.rate), "1/s");
  r.metric("cpu_s_per_ktrace", median(t.cpu_per_ktrace), "s");
  r.metric("setup_s", median(t.setup_s), "s");
  r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

// ---- Per-layer metrics -----------------------------------------------------

/// Every per-layer metric; a layer the workload does not exercise stays 0.
struct Layers {
  double device_build_ms = 0, encrypt_us = 0, simulate_us = 0;
  double store_write_s = 0, store_bytes = 0, store_read_s = 0;
  double welch_s = 0, cpa_accumulate_us = 0, cpa_report_ms = 0,
         cpa_reports = 0, cpa_scaling_efficiency = 0;
  double cpa_s = 0, pca_cpa_s = 0, dtw_cpa_s = 0, fft_cpa_s = 0,
         dtw_align_us = 0, dtw_abandon_share = 0;
  double par_busy_share = 0;
  double merge_ms = 0, snapshot_bytes = 0, shards = 0, worker_restarts = 0,
         dist_overhead_share = 0;
  double tracing_overhead_share = 0;
};

void report_layers(Result& r, const Layers& l) {
  r.metric("rftc.device_build_ms", l.device_build_ms, "ms");
  r.metric("rftc.encrypt_us", l.encrypt_us, "us");
  r.metric("trace.simulate_us", l.simulate_us, "us");
  r.metric("trace.store_write_s", l.store_write_s, "s");
  r.metric("trace.store_bytes", l.store_bytes, "bytes");
  r.metric("trace.store_read_s", l.store_read_s, "s");
  r.metric("analysis.welch_s", l.welch_s, "s");
  r.metric("analysis.cpa_accumulate_us", l.cpa_accumulate_us, "us");
  r.metric("analysis.cpa_report_ms", l.cpa_report_ms, "ms");
  r.metric("analysis.cpa_reports", l.cpa_reports, "count");
  r.metric("analysis.cpa_scaling_efficiency", l.cpa_scaling_efficiency,
           "ratio");
  r.metric("analysis.cpa_s", l.cpa_s, "s");
  r.metric("analysis.pca_cpa_s", l.pca_cpa_s, "s");
  r.metric("analysis.dtw_cpa_s", l.dtw_cpa_s, "s");
  r.metric("analysis.fft_cpa_s", l.fft_cpa_s, "s");
  r.metric("analysis.dtw_align_us", l.dtw_align_us, "us");
  r.metric("analysis.dtw_abandon_share", l.dtw_abandon_share, "ratio");
  r.metric("util.par_busy_share", l.par_busy_share, "ratio");
  r.metric("dist.merge_ms", l.merge_ms, "ms");
  r.metric("dist.snapshot_bytes", l.snapshot_bytes, "bytes");
  r.metric("dist.shards", l.shards, "count");
  r.metric("dist.worker_restarts", l.worker_restarts, "count");
  r.metric("dist.overhead_share", l.dist_overhead_share, "ratio");
  r.metric("tracing.overhead_share", l.tracing_overhead_share, "ratio");
}

/// Span totals of the traced passes, with per-call and per-pass views.
struct SpanTotals {
  std::map<std::string, LayerTime> by_name;
  std::size_t traced_passes = 1;

  double total(const char* name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.total_s;
  }
  std::size_t calls(const char* name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.calls;
  }
  /// Mean seconds per call, scaled (1e3 = ms, 1e6 = µs).
  double per_call(const char* name, double scale) const {
    const std::size_t n = calls(name);
    return n == 0 ? 0.0 : total(name) / static_cast<double>(n) * scale;
  }
  /// Seconds per traced pass.
  double per_pass(const char* name) const {
    return total(name) / static_cast<double>(traced_passes);
  }
};

/// Fills the layers every workload shares and prints the self-time table.
SpanTotals finish_trace(const Options& opt, const Timing& t, Layers& l) {
  SpanTotals s;
  s.by_name = summarize_spans();
  s.traced_passes = std::max<std::size_t>(1, t.traced_wall_s.size());
  l.device_build_ms = s.per_call("rftc.device_build", 1e3);
  l.encrypt_us = s.per_call("rftc.encrypt", 1e6);
  l.simulate_us = s.per_call("trace.simulate", 1e6);
  l.par_busy_share = median(t.busy);
  l.tracing_overhead_share =
      median(t.traced_wall_s) / median(t.wall_s) - 1.0;
  std::fprintf(stderr, "%-28s %10s %12s %12s\n", "span", "calls", "total_s",
               "self_s");
  for (const auto& [name, lt] : s.by_name)
    std::fprintf(stderr, "%-28s %10zu %12.6f %12.6f\n", name.c_str(),
                 lt.calls, lt.total_s, lt.self_s);
  if (!opt.spans_path.empty() && !write_spans(opt.spans_path))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 opt.spans_path.c_str());
  return s;
}

// ---- Capture ---------------------------------------------------------------

using Shards = std::vector<std::optional<CaptureShard>>;

/// Builds shards [0, n) in parallel, the way the acquisition calls the
/// factory from pool workers.
Shards build_shards(const CaptureShardFactory& factory, std::size_t n,
                    bool traced) {
  Shards shards(n);
  const std::uint64_t parent = current_span();
  par::parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t j = b; j < e; ++j) {
      std::optional<SpanScope> span;
      if (traced) span.emplace("rftc.device_build", parent);
      shards[j].emplace(factory(j));
    }
  });
  return shards;
}

/// Hands out prebuilt shards, each once.  The factory is pure, so a
/// capture from prebuilt shards is bit-identical to one that builds them.
CaptureShardFactory prebuilt(Shards& shards) {
  return [&shards](std::size_t j) { return std::move(*shards.at(j)); };
}

/// Shard j's plaintext substream, as trace::acquire_* derive it.
rftc::Xoshiro256StarStar shard_stream(std::uint64_t seed, std::size_t j) {
  rftc::Xoshiro256StarStar rng(seed);
  for (std::size_t k = 0; k < j; ++k) rng.jump();
  return rng;
}

/// One traced encryption and trace: a span around the device call and one
/// around the simulator call.
std::pair<core::EncryptionRecord, std::vector<float>> traced_trace(
    CaptureShard& shard, const aes::Block& pt) {
  core::EncryptionRecord rec = [&] {
    const SpanScope span("rftc.encrypt");
    return shard.encryptor(pt);
  }();
  const SpanScope span("trace.simulate");
  std::vector<float> tr = shard.sim.simulate(rec.schedule, rec.activity);
  return {std::move(rec), std::move(tr)};
}

TraceSet traced_random_shard(CaptureShard& shard,
                             rftc::Xoshiro256StarStar rng, std::size_t n) {
  TraceSet set(shard.sim.samples());
  set.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const aes::Block pt = trace::random_block(rng);
    auto [rec, tr] = traced_trace(shard, pt);
    set.add(std::move(tr), pt, rec.ciphertext);
  }
  return set;
}

/// The fixed-vs-random interleave of trace::acquire_tvla_store, per shard.
trace::TvlaCapture traced_tvla_shard(CaptureShard& shard,
                                     rftc::Xoshiro256StarStar rng,
                                     const aes::Block& fixed_pt,
                                     std::size_t n) {
  trace::TvlaCapture cap{TraceSet(shard.sim.samples()),
                         TraceSet(shard.sim.samples())};
  cap.fixed.reserve(n);
  cap.random.reserve(n);
  std::size_t fixed_left = n, random_left = n;
  while (fixed_left > 0 || random_left > 0) {
    const bool take_fixed = fixed_left == 0    ? false
                            : random_left == 0 ? true
                                               : (rng.next() & 1) != 0;
    const aes::Block pt = take_fixed ? fixed_pt : trace::random_block(rng);
    auto [rec, tr] = traced_trace(shard, pt);
    if (take_fixed) {
      cap.fixed.add(std::move(tr), pt, rec.ciphertext);
      --fixed_left;
    } else {
      cap.random.add(std::move(tr), pt, rec.ciphertext);
      --random_left;
    }
  }
  return cap;
}

/// Drives shards of `total` in groups of par::thread_count(), captured in
/// parallel and handed to `sink` in shard order — the grouping of
/// trace::acquire_*_store.  `make(j, count)` captures shard j.
template <typename Part, typename Make, typename Sink>
void grouped_shards(std::size_t total, Make&& make, Sink&& sink) {
  const std::size_t shard = trace::kCaptureShardSize;
  const std::size_t group = par::thread_count() * shard;
  const std::uint64_t parent = current_span();
  for (std::size_t g0 = 0; g0 < total; g0 += group) {
    const std::size_t g1 = std::min(total, g0 + group);
    std::vector<std::optional<Part>> parts(par::shard_count(g0, g1, shard));
    par::parallel_for(g0, g1, shard, [&](std::size_t b, std::size_t e) {
      const SpanScope span("trace.capture_shard", parent);
      parts[(b - g0) / shard].emplace(make(b / shard, e - b));
    });
    for (auto& p : parts) sink(std::move(*p));
  }
}

/// Traced twin of acquire_random_store / acquire_random_parallel: the same
/// shards and substreams, composed from the per-layer calls.
template <typename Sink>
void traced_random_capture(const CaptureShardFactory& factory, std::size_t n,
                           std::uint64_t seed, Sink&& sink) {
  grouped_shards<TraceSet>(
      n,
      [&](std::size_t j, std::size_t count) {
        CaptureShard shard = [&] {
          const SpanScope span("rftc.device_build");
          return factory(j);
        }();
        return traced_random_shard(shard, shard_stream(seed, j), count);
      },
      sink);
}

void finalize_traced(trace::TraceStoreWriter& w) {
  const SpanScope span("trace.store_write");
  w.finalize();
}

/// Identity of a store's contents: its geometry and every chunk CRC.
std::uint64_t store_digest(const TraceStore& store) {
  Digest d;
  d.add(static_cast<std::uint64_t>(store.size()))
      .add(static_cast<std::uint64_t>(store.samples()));
  for (std::size_t i = 0; i < store.chunk_count(); ++i)
    d.add(static_cast<std::uint64_t>(store.chunk(i).stored_crc()));
  return d.value();
}

std::uint64_t set_digest(const TraceSet& set) {
  Digest d;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto tr = set.trace(i);
    d.add(tr.data(), tr.size_bytes());
    d.add(set.plaintext(i).data(), 16).add(set.ciphertext(i).data(), 16);
  }
  return d.value();
}

/// Maps every chunk and checks its CRC, one span per chunk.
bool traced_read_sweep(const TraceStore& store) {
  bool ok = true;
  for (std::size_t i = 0; i < store.chunk_count(); ++i) {
    const SpanScope span("trace.store_read");
    ok = store.chunk(i).crc_ok() && ok;
  }
  return ok;
}

void remove_file(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

/// Checks `digest` against the recorded one when the run uses the default
/// seed (other seeds have nothing recorded).
void check_recorded(Result& r, const Options& opt, std::uint64_t digest,
                    std::uint64_t recorded) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  r.info["outcome_digest"] = hex;
  if (opt.seed == kDefaultSeed)
    r.check(digest == recorded, "outcome digest differs from the one "
                                "recorded for the default seed");
}

/// The final checkpoint of a CPA outcome, for the provenance line.
void describe_attack(Result& r, const AttackOutcome& out) {
  r.info["cpa_final_mean_rank"] = std::to_string(out.mean_rank.back());
  r.info["cpa_final_peak_corr"] = std::to_string(out.peak_corr.back());
}

// ---- tvla-capture ----------------------------------------------------------

void tvla_capture(const Options& opt, const ScratchDir& dir, Result& r) {
  const Inputs in = inputs_for(opt.seed);
  std::atomic<std::uint64_t> builds{0};
  const CaptureShardFactory factory =
      counted(bench::rftc_shard_factory(kTvlaM, kTvlaP, in.mix), builds);
  const std::size_t n_shards =
      par::shard_count(0, kTvlaPerPopulation, trace::kCaptureShardSize);
  const std::string fixed_path = dir.file("fixed.rtst");
  const std::string random_path = dir.file("random.rtst");

  Timing t;
  Layers l;
  std::optional<std::uint64_t> first_digest;
  double longest = 0.0;
  while (t.more(opt.seconds, longest)) {
    const bool traced = t.next_traced(opt.trace);
    const std::uint64_t builds0 = builds.load();
    const double s0 = now_s();
    // Set-up: every shard's device, each one planning RFTC(3, 1024).
    Shards shards = [&] {
      std::optional<SpanScope> span;
      if (traced) span.emplace("setup");
      return build_shards(factory, n_shards, traced);
    }();
    const std::size_t samples = shards.at(0)->sim.samples();
    const double s1 = now_s(), c1 = cpu_s();
    analysis::TvlaResult res;
    {
      std::optional<SpanScope> span;
      if (traced) span.emplace("pass");
      trace::TraceStoreWriter wf(fixed_path, samples);
      trace::TraceStoreWriter wr(random_path, samples);
      if (traced) {
        grouped_shards<trace::TvlaCapture>(
            kTvlaPerPopulation,
            [&](std::size_t j, std::size_t count) {
              return traced_tvla_shard(*shards.at(j),
                                       shard_stream(in.capture, j),
                                       in.fixed_plaintext, count);
            },
            [&](trace::TvlaCapture&& part) {
              const SpanScope write("trace.store_write");
              wf.append(part.fixed);
              wr.append(part.random);
            });
        finalize_traced(wf);
        finalize_traced(wr);
      } else {
        trace::acquire_tvla_store(prebuilt(shards), kTvlaPerPopulation,
                                  in.fixed_plaintext, in.capture, wf, wr);
        wf.finalize();
        wr.finalize();
      }
      const trace::StoredTvlaCapture cap{TraceStore(fixed_path),
                                         TraceStore(random_path)};
      std::optional<SpanScope> welch;
      if (traced) welch.emplace("analysis.welch");
      res = analysis::run_tvla(cap);
    }
    const double s2 = now_s(), c2 = cpu_s();
    t.setup_s.push_back(s1 - s0);
    t.pass(traced, 2.0 * kTvlaPerPopulation, s2 - s1, c2 - c1, opt.threads);
    longest = std::max(longest, s2 - s0);

    // Checks, outside the timed phase.
    const TraceStore fixed(fixed_path), random(random_path);
    r.check(fixed.verify().ok && random.verify().ok,
            "tvla store fails verify()");
    if (traced) r.check(traced_read_sweep(fixed) && traced_read_sweep(random),
                        "tvla store chunk CRC");
    Digest d;
    d.add(store_digest(fixed)).add(store_digest(random)).add(res);
    if (!first_digest) {
      first_digest = d.value();
      check_recorded(r, opt, d.value(), kDigestTvla);
      r.info["tvla_max_abs_t"] = std::to_string(res.max_abs_t);
      r.info["tvla_leaking_samples"] = std::to_string(res.leaking_samples);
      r.count("devices_built", builds.load() - builds0);
      r.count("shards", n_shards);
      r.count("store_bytes", fixed.file_bytes() + random.file_bytes());
      r.count("store_chunks", fixed.chunk_count() + random.chunk_count());
      l.store_bytes = static_cast<double>(fixed.file_bytes() +
                                          random.file_bytes());
    }
    r.check(d.value() == *first_digest,
            traced ? "traced pass differs from the untraced outcome"
                   : "pass outcome differs from the first pass");
    remove_file(fixed_path);
    remove_file(random_path);
  }
  if (!opt.trace) return report_end_to_end(r, t);
  const SpanTotals s = finish_trace(opt, t, l);
  l.store_write_s = s.per_pass("trace.store_write");
  l.store_read_s = s.per_pass("trace.store_read");
  l.welch_s = s.per_pass("analysis.welch");
  report_layers(r, l);
}

// ---- Shared RFTC(1, 4) corpus ----------------------------------------------

/// The plain-CPA campaign of cpa-reattack and dist-cpa: all 16 bytes,
/// last-round HD, batched engine, a checkpoint every kCpaCheckpointStep.
dist::CampaignSpec cpa_spec(const std::string& store) {
  dist::CampaignSpec spec;
  spec.kind = dist::CampaignKind::kAttack;
  spec.name = "perfbench-cpa";
  spec.store = store;
  spec.key_hex = dist::key_to_hex(bench::evaluation_round10_key());
  spec.engine_mode = analysis::CpaMode::kBatched;
  for (std::size_t c = kCpaCheckpointStep; c <= kCpaTraces;
       c += kCpaCheckpointStep)
    spec.checkpoints.push_back(c);
  return spec;
}

/// Set-up of cpa-reattack and dist-cpa: capture the corpus into `path`
/// kSetupReps times (twice in a traced run: once untraced, once traced),
/// checking every store and that all of them are identical.
void capture_corpus(const Options& opt, const std::string& path, Timing& t,
                    Result& r) {
  const Inputs in = inputs_for(opt.seed);
  std::atomic<std::uint64_t> builds{0};
  const CaptureShardFactory factory =
      counted(bench::rftc_shard_factory(kCorpusM, kCorpusP, in.mix), builds);
  std::optional<std::uint64_t> first;
  const std::size_t reps = opt.trace ? 2 : kSetupReps;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const bool traced = opt.trace && rep == 1;
    remove_file(path);
    const std::uint64_t builds0 = builds.load();
    const double s0 = now_s();
    {
      std::optional<SpanScope> span;
      if (traced) span.emplace("setup");
      const std::size_t samples = trace::PowerModelParams{}.samples();
      trace::TraceStoreWriter w(path, samples);
      if (traced) {
        traced_random_capture(factory, kCpaTraces, in.capture,
                              [&](TraceSet&& part) {
                                const SpanScope write("trace.store_write");
                                w.append(part);
                              });
        finalize_traced(w);
      } else {
        trace::acquire_random_store(factory, kCpaTraces, in.capture, w);
        w.finalize();
      }
    }
    if (!traced) t.setup_s.push_back(now_s() - s0);
    const TraceStore store(path);
    r.check(store.verify().ok, "corpus store fails verify()");
    const std::uint64_t d = store_digest(store);
    if (!first) {
      first = d;
      r.count("devices_built", builds.load() - builds0);
      r.count("shards",
              par::shard_count(0, kCpaTraces, trace::kCaptureShardSize));
      r.count("store_bytes", store.file_bytes());
      r.count("store_chunks", store.chunk_count());
    }
    r.check(d == *first, traced ? "traced capture differs from untraced"
                                : "corpus capture differs between set-ups");
  }
}

// ---- cpa-reattack ----------------------------------------------------------

/// run_attack(TraceStore) composed from the per-layer calls the dist
/// workers use: accumulate each checkpoint segment, merge, evaluate.
AttackOutcome traced_attack(const TraceStore& store, const aes::Block& key,
                            const AttackParams& params) {
  const std::vector<std::size_t> cps =
      analysis::normalized_checkpoints(params, store.size());
  AttackOutcome out;
  out.kind = AttackKind::kCpa;
  std::optional<analysis::CpaEngine> engine;
  std::size_t done = 0;
  for (const std::size_t cp : cps) {
    if (cp > done) {
      analysis::CpaEngine seg = [&] {
        const SpanScope span("analysis.cpa_accumulate");
        return analysis::accumulate_attack_range(store, params, done, cp);
      }();
      if (!engine) {
        engine.emplace(std::move(seg));
      } else {
        const SpanScope span("analysis.cpa_merge");
        engine->merge(seg);
      }
      done = cp;
    }
    const SpanScope span("analysis.cpa_report");
    const analysis::AttackCheckpoint ev =
        analysis::evaluate_attack_checkpoint(*engine, key);
    out.checkpoints.push_back(cp);
    out.success.push_back(ev.recovered);
    out.mean_rank.push_back(ev.mean_rank);
    out.peak_corr.push_back(ev.peak_corr);
  }
  return out;
}

void cpa_reattack(const Options& opt, const ScratchDir& dir, Result& r) {
  const std::string path = dir.file("corpus.rtst");
  Timing t;
  Layers l;
  capture_corpus(opt, path, t, r);
  const TraceStore store(path);
  const dist::CampaignSpec spec = cpa_spec(path);
  const AttackParams params = spec.attack_params();
  const aes::Block key = spec.key();

  t.start = now_s();
  std::optional<std::uint64_t> first_digest;
  double longest = 0.0;
  while (t.more(opt.seconds, longest)) {
    const bool traced = t.next_traced(opt.trace);
    const std::uint64_t reports0 = counter("cpa.reports");
    const double s0 = now_s(), c0 = cpu_s();
    const AttackOutcome out = [&] {
      if (!traced) return analysis::run_attack(store, key, params);
      const SpanScope span("pass");
      return traced_attack(store, key, params);
    }();
    const double s1 = now_s();
    t.pass(traced, kCpaTraces, s1 - s0, cpu_s() - c0, opt.threads);
    longest = std::max(longest, s1 - s0);
    const std::uint64_t d = Digest().add(out).value();
    if (!first_digest) {
      first_digest = d;
      check_recorded(r, opt, d, kDigestCpa);
      describe_attack(r, out);
      r.count("cpa_reports", counter("cpa.reports") - reports0);
    }
    r.check(d == *first_digest,
            traced ? "traced pass differs from the untraced outcome"
                   : "pass outcome differs from the first pass");
  }
  if (!opt.trace) return report_end_to_end(r, t);

  r.check(traced_read_sweep(store), "corpus chunk CRC");
  // Thread sweep: one untraced pass at RFTC_THREADS=1 against the median
  // untraced pass at nproc threads.
  par::set_thread_count(1);
  const double s0 = now_s();
  const AttackOutcome solo = analysis::run_attack(store, key, params);
  const double solo_s = now_s() - s0;
  par::set_thread_count(opt.threads);
  r.check(Digest().add(solo).value() == *first_digest,
          "RFTC_THREADS=1 outcome differs");
  const SpanTotals s = finish_trace(opt, t, l);
  // The composed path merges one engine per checkpoint segment, which
  // run_attack does not do; that work is not span cost.
  l.tracing_overhead_share =
      (median(t.traced_wall_s) - s.per_pass("analysis.cpa_merge")) /
          median(t.wall_s) -
      1.0;
  l.store_bytes = static_cast<double>(store.file_bytes());
  l.store_write_s = s.total("trace.store_write");
  l.store_read_s = s.total("trace.store_read");
  l.cpa_accumulate_us = s.total("analysis.cpa_accumulate") /
                        static_cast<double>(kCpaTraces * s.traced_passes) *
                        1e6;
  l.cpa_report_ms = s.per_call("analysis.cpa_report", 1e3);
  l.cpa_reports = static_cast<double>(s.calls("analysis.cpa_report")) /
                  static_cast<double>(s.traced_passes);
  l.cpa_s = median(t.wall_s);
  l.cpa_scaling_efficiency =
      solo_s / (median(t.wall_s) * static_cast<double>(opt.threads));
  report_layers(r, l);
}

// ---- attack-suite ----------------------------------------------------------

constexpr AttackKind kSuiteKinds[] = {AttackKind::kCpa, AttackKind::kPcaCpa,
                                      AttackKind::kDtwCpa,
                                      AttackKind::kFftCpa};
constexpr const char* kSuiteSpans[] = {"analysis.cpa", "analysis.pca_cpa",
                                       "analysis.dtw_cpa", "analysis.fft_cpa"};

void attack_suite(const Options& opt, const ScratchDir&, Result& r) {
  const Inputs in = inputs_for(opt.seed);
  std::atomic<std::uint64_t> builds{0};
  const CaptureShardFactory factory =
      counted(bench::rftc_shard_factory(kCorpusM, kCorpusP, in.mix), builds);
  Timing t;
  Layers l;

  // Set-up: the in-RAM corpus, captured kSetupReps times (untraced, then
  // traced, in a traced run) and checked identical.
  std::optional<TraceSet> set;
  std::optional<std::uint64_t> first_set;
  for (std::size_t rep = 0; rep < (opt.trace ? 2 : kSetupReps); ++rep) {
    const bool traced = opt.trace && rep == 1;
    const std::uint64_t builds0 = builds.load();
    set.reset();
    const double s0 = now_s();
    if (traced) {
      const SpanScope span("setup");
      TraceSet all(trace::PowerModelParams{}.samples());
      all.reserve(kSuiteTraces);
      traced_random_capture(factory, kSuiteTraces, in.capture,
                            [&](TraceSet&& part) { all.append(part); });
      set.emplace(std::move(all));
    } else {
      set.emplace(trace::acquire_random_parallel(factory, kSuiteTraces,
                                                 in.capture));
      t.setup_s.push_back(now_s() - s0);
    }
    const std::uint64_t d = set_digest(*set);
    if (!first_set) {
      first_set = d;
      r.count("devices_built", builds.load() - builds0);
      r.count("shards",
              par::shard_count(0, kSuiteTraces, trace::kCaptureShardSize));
    }
    r.check(d == *first_set, traced ? "traced capture differs from untraced"
                                    : "corpus capture differs between set-ups");
  }

  const aes::Block key = bench::evaluation_round10_key();
  std::vector<AttackParams> params;
  for (const AttackKind kind : kSuiteKinds) {
    AttackParams p;
    p.kind = kind;
    p.engine_mode = analysis::CpaMode::kBatched;
    p.byte_positions.assign(std::begin(kSuiteBytes), std::end(kSuiteBytes));
    for (std::size_t c = kSuiteCheckpointStep; c <= kSuiteTraces;
         c += kSuiteCheckpointStep)
      p.checkpoints.push_back(c);
    params.push_back(std::move(p));
  }

  t.start = now_s();
  std::optional<std::uint64_t> first_digest;
  double longest = 0.0;
  while (t.more(opt.seconds, longest)) {
    const bool traced = t.next_traced(opt.trace);
    const std::uint64_t align0 = counter("analysis.dtw.alignments");
    const std::uint64_t kim0 = counter("analysis.dtw.lb_kim_rejects");
    const std::uint64_t abandon0 = counter("analysis.dtw.early_abandons");
    Digest d;
    std::vector<std::size_t> breaks;
    const double s0 = now_s(), c0 = cpu_s();
    {
      std::optional<SpanScope> span;
      if (traced) span.emplace("pass");
      for (std::size_t k = 0; k < params.size(); ++k) {
        std::optional<SpanScope> attack;
        if (traced) attack.emplace(kSuiteSpans[k]);
        const AttackOutcome out = analysis::run_attack(*set, key, params[k]);
        d.add(out);
        breaks.push_back(out.first_success());
      }
    }
    const double s1 = now_s();
    t.pass(traced, static_cast<double>(kSuiteTraces * params.size()),
           s1 - s0, cpu_s() - c0, opt.threads);
    longest = std::max(longest, s1 - s0);
    if (!first_digest) {
      first_digest = d.value();
      check_recorded(r, opt, d.value(), kDigestSuite);
      std::string b;
      for (const std::size_t x : breaks)
        b += (b.empty() ? "" : ",") + std::to_string(x);
      r.info["suite_break_points"] = b;
      const std::uint64_t align = counter("analysis.dtw.alignments") - align0;
      const std::uint64_t kim = counter("analysis.dtw.lb_kim_rejects") - kim0;
      const std::uint64_t abandon =
          counter("analysis.dtw.early_abandons") - abandon0;
      r.count("dtw_alignments", align);
      r.count("dtw_lb_kim_rejects", kim);
      r.count("dtw_early_abandons", abandon);
      l.dtw_abandon_share =
          align == 0 ? 0.0
                     : static_cast<double>(kim + abandon) /
                           static_cast<double>(align);
    }
    r.check(d.value() == *first_digest,
            traced ? "traced pass differs from the untraced outcome"
                   : "pass outcome differs from the first pass");
  }
  if (!opt.trace) return report_end_to_end(r, t);

  // DTW alignment one call at a time on the attack's downsampled traces,
  // against the first of them as reference (the banded DP costs the same
  // for any reference of this length).
  {
    const TraceSet ds = set->downsampled(params[2].downsample);
    const auto ref0 = ds.trace(0);
    const std::vector<double> ref(ref0.begin(), ref0.end());
    std::vector<float> warped;
    const std::size_t n = std::min(kDtwProbeTraces, ds.size());
    for (std::size_t i = 0; i < n; ++i) {
      const SpanScope span("analysis.dtw_align");
      analysis::dtw_align_into(ref, ds.trace(i), params[2].dtw, warped);
    }
  }
  const SpanTotals s = finish_trace(opt, t, l);
  l.cpa_s = s.per_pass("analysis.cpa");
  l.pca_cpa_s = s.per_pass("analysis.pca_cpa");
  l.dtw_cpa_s = s.per_pass("analysis.dtw_cpa");
  l.fft_cpa_s = s.per_pass("analysis.fft_cpa");
  l.dtw_align_us = s.per_call("analysis.dtw_align", 1e6);
  report_layers(r, l);
}

// ---- dist-cpa --------------------------------------------------------------

void dist_cpa(const Options& opt, const ScratchDir& dir, Result& r) {
  const std::string path = dir.file("corpus.rtst");
  Timing t;
  Layers l;
  capture_corpus(opt, path, t, r);
  const dist::CampaignSpec spec = cpa_spec(path);

  // Thread budget: kDistWorkers single-threaded workers plus a coordinator
  // with the rest of nproc (it merges and evaluates the checkpoints).
  const std::size_t coord_threads =
      opt.threads > kDistWorkers ? opt.threads - kDistWorkers : 1;
  par::set_thread_count(coord_threads);
  ::setenv("RFTC_THREADS", "1", 1);
  r.info["dist_workers"] = std::to_string(kDistWorkers);
  r.info["dist_worker_threads"] = "1";
  r.info["dist_coordinator_threads"] = std::to_string(coord_threads);

  t.start = now_s();
  std::optional<std::uint64_t> first_digest;
  double longest = 0.0;
  std::size_t pass = 0;
  dist::CampaignResult res;
  while (t.more(opt.seconds, longest)) {
    const bool traced = t.next_traced(opt.trace);
    dist::CoordinatorOptions o;
    o.dir = dir.file("campaign-" + std::to_string(pass++));
    o.worker_binary = PERFBENCH_WORKER_BIN;
    o.workers = kDistWorkers;
    const double s0 = now_s(), c0 = cpu_s();
    try {
      std::optional<SpanScope> span;
      if (traced) span.emplace("dist.campaign");
      res = dist::run_campaign(spec, o);
    } catch (const std::exception& e) {
      // A campaign whose shards exhaust their retries is a failed
      // operation, not the end of the run.
      r.check(false, std::string("dist campaign: ") + e.what());
      ++t.failed_passes;
      std::error_code ec;
      fs::remove_all(o.dir, ec);
      continue;
    }
    const double s1 = now_s();
    t.pass(traced, kCpaTraces, s1 - s0, cpu_s() - c0, opt.threads);
    longest = std::max(longest, s1 - s0);

    r.check(res.worker_restarts == 0 && res.shards_reused == 0,
            "dist campaign restarted or reused a shard");
    std::uint64_t blob_bytes = 0;
    for (std::size_t i = 0; i < res.shards_total; ++i)
      blob_bytes += fs::file_size(dist::shard_stem(o.dir, i) + ".acc");
    if (traced) {
      // The coordinator's merge, timed from outside: deserialize every
      // shard snapshot and fold it in range order (reads are untimed).
      std::optional<analysis::CpaEngine> merged;
      for (std::size_t i = 0; i < res.shards_total; ++i) {
        const std::string blob =
            dist::read_file(dist::shard_stem(o.dir, i) + ".acc");
        const SpanScope span("dist.merge");
        analysis::CpaEngine e = analysis::CpaEngine::deserialize(
            {reinterpret_cast<const unsigned char*>(blob.data()),
             blob.size()});
        if (!merged)
          merged.emplace(std::move(e));
        else
          merged->merge(e);
      }
      const analysis::AttackCheckpoint ev =
          analysis::evaluate_attack_checkpoint(*merged, spec.key());
      r.check(ev.peak_corr == res.attack.peak_corr.back() &&
                  ev.mean_rank == res.attack.mean_rank.back(),
              "merged snapshots differ from the campaign's final checkpoint");
    }
    const std::uint64_t d = Digest().add(res.attack).value();
    if (!first_digest) {
      first_digest = d;
      check_recorded(r, opt, d, kDigestCpa);
      describe_attack(r, res.attack);
      r.count("dist_shards", res.shards_total);
      r.count("dist_snapshot_bytes", blob_bytes);
      r.count("dist_worker_restarts", res.worker_restarts);
      l.shards = static_cast<double>(res.shards_total);
      l.snapshot_bytes = static_cast<double>(blob_bytes);
    }
    l.worker_restarts += static_cast<double>(res.worker_restarts);
    r.check(d == *first_digest,
            traced ? "traced pass differs from the untraced outcome"
                   : "pass outcome differs from the first pass");
    std::error_code ec;
    fs::remove_all(o.dir, ec);
  }

  // The single-process attack on the same store, at the whole budget.
  ::setenv("RFTC_THREADS", std::to_string(opt.threads).c_str(), 1);
  par::set_thread_count(opt.threads);
  const TraceStore store(path);
  const double s0 = now_s();
  const AttackOutcome single =
      analysis::run_attack(store, spec.key(), spec.attack_params());
  const double single_s = now_s() - s0;
  r.check(first_digest && Digest().add(single).value() == *first_digest,
          "dist outcome differs from the single-process run_attack");
  if (!opt.trace) return report_end_to_end(r, t);

  r.check(traced_read_sweep(store), "corpus chunk CRC");
  const SpanTotals s = finish_trace(opt, t, l);
  l.store_bytes = static_cast<double>(store.file_bytes());
  l.store_write_s = s.total("trace.store_write");
  l.store_read_s = s.total("trace.store_read");
  l.cpa_s = single_s;
  l.merge_ms = s.per_pass("dist.merge") * 1e3;
  l.dist_overhead_share = 1.0 - single_s / median(t.wall_s);
  report_layers(r, l);
}

}  // namespace

void run_workload(const Options& opt, const ScratchDir& scratch, Result& r) {
  const obs::Provenance prov = obs::Provenance::collect();
  r.info["workload"] = opt.workload;
  r.info["seed"] = std::to_string(opt.seed);
  r.info["trace"] = opt.trace ? "1" : "0";
  r.info["git_sha"] = prov.git_sha;
  r.info["build_type"] = prov.build_type;
  r.info["rftc_threads"] = std::to_string(opt.threads);
  r.info["simd_isa"] = simd::backend_name();
  r.info["cpa_mode"] = "batched";
  if (opt.workload == "tvla-capture") {
    tvla_capture(opt, scratch, r);
  } else if (opt.workload == "cpa-reattack") {
    cpa_reattack(opt, scratch, r);
  } else if (opt.workload == "attack-suite") {
    attack_suite(opt, scratch, r);
  } else if (opt.workload == "dist-cpa") {
    dist_cpa(opt, scratch, r);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
}

}  // namespace perfbench
