// Bounded-memory out-of-core campaign: a fig6-style TVLA run where the
// corpus never lives in RAM.  Acquisition streams both populations into
// chunked trace stores (trace::acquire_tvla_store), the Welch t-test then
// streams the stores back chunk-by-chunk (analysis::run_tvla on a
// StoredTvlaCapture), and the bench gates itself on the kernel-reported
// peak RSS staying under half the on-disk corpus size — the proof that the
// pipeline really runs in O(chunk) memory, machine-independent because the
// bound scales with the corpus the bench itself created.
//
// Knobs:
//   RFTC_OOC_TRACES    traces per population (default 40,000)
//   RFTC_STORE_DIR     where the .rtst stores go (default: temp dir;
//                      the stores are kept so CI can run `rftc-trace
//                      verify` on them afterwards)
//   RFTC_TRACE_CHUNK   traces per chunk (store default: 1024)
//
// Exit codes: 0 = completed and bounded, 1 = store corruption or the RSS
// gate failed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "analysis/tvla.hpp"
#include "common.hpp"
#include "obs/resource.hpp"
#include "trace/trace_store.hpp"

namespace {

using namespace rftc;

}  // namespace

int main() {
  obs::RunManifest report("ooc_campaign");
  std::size_t n = 40'000;
  if (const char* env = std::getenv("RFTC_OOC_TRACES")) {
    const long v = std::atol(env);
    if (v > 0) n = static_cast<std::size_t>(v);
  }
  std::string dir;
  if (const char* env = std::getenv("RFTC_STORE_DIR")) {
    dir = env;
    std::filesystem::create_directories(dir);
  } else {
    dir = std::filesystem::temp_directory_path().string();
  }
  const std::string fixed_path = dir + "/ooc_tvla_fixed.rtst";
  const std::string random_path = dir + "/ooc_tvla_random.rtst";

  const std::uint64_t seed = 31'337;
  report.seed(seed);
  bench::print_header("Out-of-core TVLA campaign, RFTC(3, 1024), " +
                      std::to_string(n) + " traces per population");

  // The standard TVLA fixed plaintext (as in fig6_tvla).
  const aes::Block tvla_fixed = {0xDA, 0x39, 0xA3, 0xEE, 0x5E, 0x6B,
                                 0x4B, 0x0D, 0x32, 0x55, 0xBF, 0xEF,
                                 0x95, 0x60, 0x18, 0x90};

  const trace::CaptureShardFactory factory =
      bench::rftc_shard_factory(3, 1024, seed);
  const std::size_t samples = factory(0).sim.samples();
  {
    trace::TraceStoreWriter fixed_w(fixed_path, samples);
    trace::TraceStoreWriter random_w(random_path, samples);
    trace::acquire_tvla_store(factory, n, tvla_fixed, seed + 1, fixed_w,
                              random_w);
    fixed_w.finalize();
    random_w.finalize();
  }

  trace::StoredTvlaCapture stored{trace::TraceStore(fixed_path),
                                  trace::TraceStore(random_path)};
  const double corpus_mib =
      static_cast<double>(stored.fixed.file_bytes() +
                          stored.random.file_bytes()) /
      (1024.0 * 1024.0);
  report.metric("corpus_mib", corpus_mib, "MiB");
  report.metric("chunks",
                static_cast<double>(stored.fixed.chunk_count() +
                                    stored.random.chunk_count()),
                "count");
  report.note("fixed_store", fixed_path);
  report.note("random_store", random_path);

  // Integrity sweep before analysis: a corrupted corpus must fail loudly.
  for (const trace::TraceStore* s : {&stored.fixed, &stored.random}) {
    const trace::StoreVerifyResult v = s->verify();
    if (!v.ok) {
      std::fprintf(stderr, "ooc_campaign: %s: %s\n", s->path().c_str(),
                   v.error.c_str());
      return 1;
    }
  }

  const analysis::TvlaResult res = analysis::run_tvla(stored);
  std::printf("max |t| %.2f at sample %zu, %zu leaking samples — %s\n",
              res.max_abs_t, res.worst_sample, res.leaking_samples,
              res.passes() ? "PASS (<4.5)" : "leaks");
  report.metric("max_abs_t", res.max_abs_t, "|t|");
  report.metric("leaking_samples", static_cast<double>(res.leaking_samples),
                "count");

  // The bounded-memory gate.  Peak RSS covers the whole process life —
  // acquisition groups, chunk windows, Welch accumulators, allocator slack
  // — and must stay under half the corpus it just processed twice (once
  // writing, once reading).  An accidental whole-corpus materialization
  // anywhere in the streamed path blows this immediately.
  const double peak_mib = obs::peak_rss_mib();
  const double ratio = peak_mib / corpus_mib;
  std::printf("corpus %.1f MiB on disk, peak RSS %.1f MiB (%.2fx)\n",
              corpus_mib, peak_mib, ratio);
  report.metric("peak_rss_mib", peak_mib, "MiB");
  report.throughput(static_cast<double>(2 * n) / report.elapsed_seconds(),
                    "traces/s");
  report.write();
  if (peak_mib * 2.0 >= corpus_mib) {
    std::fprintf(stderr,
                 "ooc_campaign: peak RSS %.1f MiB is not under half the "
                 "%.1f MiB corpus — the out-of-core path is not bounded\n",
                 peak_mib, corpus_mib);
    return 1;
  }
  return 0;
}
