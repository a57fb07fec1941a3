// Shared plumbing of the campaign benchmark: command-line options, clocks
// and CPU probes, the per-run scratch directory, outcome digests and the
// result record every workload fills in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/tvla.hpp"

namespace rftc::bench {}
namespace rftc::core {}
namespace rftc::dist {}
namespace rftc::obs {}
namespace rftc::par {}
namespace rftc::simd {}

namespace perfbench {

namespace aes = rftc::aes;
namespace analysis = rftc::analysis;
namespace bench = rftc::bench;
namespace core = rftc::core;
namespace dist = rftc::dist;
namespace obs = rftc::obs;
namespace par = rftc::par;
namespace simd = rftc::simd;
namespace trace = rftc::trace;

/// The seed whose outcome digests are recorded in workloads.cpp.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// CPUs available to the run (nproc); the thread budget of every workload.
  std::size_t threads = 1;
  /// Where the traced run writes its spans (JSONL); empty = no file.
  std::string spans_path;
};

/// Monotonic wall clock in seconds.
double now_s();

/// Process CPU seconds (user + system) of this process plus every child it
/// has waited for — the dist workers' CPU lands here once reaped.
double cpu_s();

/// Peak resident memory in MiB: the larger of this process's peak and the
/// largest waited-for child's peak.
double peak_rss_mib();

double median(std::vector<double> v);

/// A per-process unique directory, removed with everything in it when the
/// object dies.  Lives under `parent` (created if missing).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// FNV-1a over the exact bits of an outcome: equal digests mean bit-equal
/// outcomes (up to 64-bit collisions).
class Digest {
 public:
  Digest& add(const void* data, std::size_t len);
  Digest& add(std::uint64_t v) { return add(&v, sizeof v); }
  Digest& add(double v) { return add(&v, sizeof v); }
  Digest& add(const analysis::AttackOutcome& out);
  Digest& add(const analysis::TvlaResult& res);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Everything one run reports.  Checks never throw: a mismatch counts as a
/// failed operation and the run carries on.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Printed metrics, name -> (value, unit), in the order BENCHMARK.json
  /// lists them.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Exact counts of the run (printed untraced too).
  std::map<std::string, std::uint64_t> counts;
  /// Provenance and configuration strings.
  std::map<std::string, std::string> info;

  /// Counts one checked operation; logs and counts a failure when !ok.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  void count(const std::string& name, std::uint64_t v) { counts[name] = v; }
};

/// Prints the provenance/count line and then the final result line.
void print_result(const Result& r);

}  // namespace perfbench
