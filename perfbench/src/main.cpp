// perfbench: the campaign benchmark binary.
//
//   perfbench --workload <tvla-capture|cpa-reattack|attack-suite|dist-cpa>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--spans <file.jsonl>]
//
// Prints one provenance/counts JSON line, then the result line
// {"correct","attempted","failed","metrics"} last.  Exit 0 whenever a
// result was printed (failed checks show in "failed"), 1 when the run could
// not complete, 2 on a usage error.  perfbench/run.py builds and runs it.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--spans <file>]\n",
               msg);
  return 2;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string scratch = "perfbench-scratch";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (arg == "--scratch") {
        scratch = val;
      } else if (arg == "--spans") {
        opt.spans_path = val;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  // Single-process workloads run at RFTC_THREADS = nproc; dist-cpa
  // re-splits the budget between coordinator and workers.
  opt.threads = nproc();
  ::setenv("RFTC_THREADS", std::to_string(opt.threads).c_str(), 1);
  rftc::par::set_thread_count(opt.threads);

  perfbench::Result result;
  try {
    const perfbench::ScratchDir dir(scratch);
    perfbench::run_workload(opt, dir, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::print_result(result);
  return 0;
}
