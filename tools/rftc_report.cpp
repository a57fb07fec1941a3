// rftc-report: inspect and gate the observability artifacts every bench and
// example emits (BENCH_<name>.json reports and runs/<name>.jsonl run
// manifests).
//
//   rftc-report show <file>
//       Pretty-prints one artifact: provenance, final metrics, and (for
//       manifests) the checkpoint streams.
//
//   rftc-report diff <candidate> <baseline> [options]
//       Compares two artifacts (either format) and exits 1 when the
//       candidate regresses beyond tolerance — the perf/security gate CI
//       runs against committed baselines.  Value metrics are compared by
//       relative drift; timing metrics (unit s/ms/us/ns or a rate, plus
//       wall_seconds) only by ratio, because they are machine-dependent;
//       count metrics (unit "count" — seeded deterministic tallies such as
//       fault-campaign event counts) must match exactly.
//
//       --tol <x>             relative drift allowed on value metrics
//                             (default 0.05)
//       --timing-factor <x>   allowed ratio on timing metrics (default 3)
//       --metric-tol k=<x>    per-metric override (value-class comparison;
//                             also relaxes a count metric)
//       --ignore <key>        exclude a key ("threads"/"batch" are always
//                             excluded)
//       --allow-missing       keys missing from the candidate only warn
//
//   rftc-report tail <heartbeat.jsonl> [-n N]
//       Renders the last N (default 10) heartbeat snapshots of a live (or
//       crashed) campaign as a fixed-width table.  Exits 1 when the file
//       contains no parseable snapshot line.
//
//   rftc-report watch <heartbeat.jsonl> [--interval-ms M] [--timeout-s S]
//       Follow mode: prints each new snapshot as the campaign appends it
//       (like tail -f), polling every M ms (default 500).  Stops when no
//       new line arrives for S seconds (default: run until interrupted).
//
//   rftc-report postmortem <postmortem.json>
//       Renders a crash bundle (obs/postmortem.hpp): reason, active phase,
//       provenance, tracer/drop tallies, last heartbeat, metric registry,
//       and the flight-recorder tail.  Exits 1 when the file is not a
//       post-mortem bundle this build understands.
//
// Exit codes: 0 = no drift beyond tolerance / snapshots rendered,
// 1 = regression, no valid heartbeat line, or not a bundle,
// 2 = usage or I/O error.
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "obs/postmortem.hpp"
#include "obs/report_diff.hpp"
#include "obs/sampler.hpp"

namespace {

using rftc::obs::Artifact;
using rftc::obs::DiffOptions;
using rftc::obs::DiffResult;

int usage() {
  std::fprintf(stderr,
               "usage: rftc-report show <file>\n"
               "       rftc-report diff <candidate> <baseline> [--tol x]\n"
               "           [--timing-factor x] [--metric-tol key=x]\n"
               "           [--ignore key] [--allow-missing]\n"
               "       rftc-report tail <heartbeat.jsonl> [-n N]\n"
               "       rftc-report watch <heartbeat.jsonl>"
               " [--interval-ms M] [--timeout-s S]\n"
               "       rftc-report postmortem <postmortem.json>\n");
  return 2;
}

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "rftc-report: cannot read %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool load_artifact(const char* path, Artifact& art) {
  std::string text;
  if (!read_file(path, text)) return false;
  try {
    art = rftc::obs::parse_artifact(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rftc-report: %s: %s\n", path, e.what());
    return false;
  }
  return true;
}

int cmd_show(const char* path) {
  Artifact art;
  if (!load_artifact(path, art)) return 2;
  std::printf("%s (%s artifact)\n", art.name.c_str(), art.format.c_str());
  if (!art.provenance.empty()) {
    std::printf("\nprovenance:\n");
    for (const auto& [k, v] : art.provenance)
      std::printf("  %-14s %s\n", k.c_str(), v.c_str());
  }
  if (!art.metrics.empty()) {
    std::printf("\nmetrics:\n");
    for (const auto& [k, m] : art.metrics)
      std::printf("  %-38s %14.6g %s\n", k.c_str(), m.value, m.unit.c_str());
  }
  if (!art.checkpoints.empty()) {
    std::printf("\ncheckpoints:\n");
    for (const auto& [cp, values] : art.checkpoints) {
      std::printf("  %s:", cp.c_str());
      for (const auto& [k, v] : values) std::printf(" %s=%.6g", k.c_str(), v);
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 2) return usage();
  DiffOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tol" && i + 1 < argc) {
      options.tolerance = std::atof(argv[++i]);
    } else if (arg == "--timing-factor" && i + 1 < argc) {
      options.timing_factor = std::atof(argv[++i]);
    } else if (arg == "--metric-tol" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) return usage();
      options.per_metric[spec.substr(0, eq)] =
          std::atof(spec.c_str() + eq + 1);
    } else if (arg == "--ignore" && i + 1 < argc) {
      options.ignore.emplace_back(argv[++i]);
    } else if (arg == "--allow-missing") {
      options.fail_on_missing = false;
    } else {
      return usage();
    }
  }

  Artifact candidate, baseline;
  if (!load_artifact(argv[0], candidate) || !load_artifact(argv[1], baseline))
    return 2;
  const DiffResult res =
      rftc::obs::diff_artifacts(candidate, baseline, options);
  for (const std::string& note : res.notes)
    std::printf("  note: %s\n", note.c_str());
  for (const std::string& failure : res.failures)
    std::printf("  FAIL: %s\n", failure.c_str());
  std::printf("%s: %zu comparisons, %zu failed (%s vs %s)\n",
              res.regression ? "REGRESSION" : "OK", res.compared,
              res.failures.size(), argv[0], argv[1]);
  return res.regression ? 1 : 0;
}

using rftc::obs::HeartbeatSnapshot;

int cmd_tail(int argc, char** argv) {
  std::size_t n = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
      const long v = std::atol(argv[++i]);
      if (v <= 0) return usage();
      n = static_cast<std::size_t>(v);
    } else {
      return usage();
    }
  }
  std::ifstream in(argv[0]);
  if (!in) {
    std::fprintf(stderr, "rftc-report: cannot read %s\n", argv[0]);
    return 2;
  }
  // Keep one extra snapshot in front so the oldest printed row still shows
  // its convergence delta.
  std::deque<HeartbeatSnapshot> last;
  std::string line;
  while (std::getline(in, line)) {
    HeartbeatSnapshot snap;
    if (!rftc::obs::parse_heartbeat_line(line, snap)) continue;
    last.push_back(std::move(snap));
    if (last.size() > n + 1) last.pop_front();
  }
  if (last.empty()) {
    std::fprintf(stderr, "rftc-report: %s: no heartbeat snapshots\n", argv[0]);
    return 1;
  }
  std::printf("%s\n", rftc::obs::heartbeat_header_row().c_str());
  for (std::size_t i = last.size() > n ? 1 : 0; i < last.size(); ++i)
    std::printf("%s\n",
                rftc::obs::format_heartbeat_row(last[i],
                                                i > 0 ? &last[i - 1] : nullptr)
                    .c_str());
  return 0;
}

int cmd_watch(int argc, char** argv) {
  auto poll = std::chrono::milliseconds(500);
  double timeout_s = -1.0;  // run until interrupted
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      const long v = std::atol(argv[++i]);
      if (v <= 0) return usage();
      poll = std::chrono::milliseconds(v);
    } else if (std::strcmp(argv[i], "--timeout-s") == 0 && i + 1 < argc) {
      timeout_s = std::atof(argv[++i]);
      if (timeout_s <= 0.0) return usage();
    } else {
      return usage();
    }
  }
  // Follow by byte offset so each poll only reads what the campaign
  // appended since the last one; a heartbeat line is fsynced whole, so a
  // partial trailing line never parses and is retried next poll.
  std::printf("%s\n", rftc::obs::heartbeat_header_row().c_str());
  std::fflush(stdout);
  std::string buffered;
  std::streamoff offset = 0;
  bool have_prev = false;
  HeartbeatSnapshot prev;
  std::size_t printed = 0;
  auto last_new = std::chrono::steady_clock::now();
  for (;;) {
    std::ifstream in(argv[0], std::ios::binary);
    if (in) {
      in.seekg(0, std::ios::end);
      const std::streamoff size = in.tellg();
      if (size < offset) {  // truncated/rotated: start over
        offset = 0;
        buffered.clear();
      }
      if (size > offset) {
        in.seekg(offset);
        std::string chunk(static_cast<std::size_t>(size - offset), '\0');
        in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        offset += in.gcount();
        buffered.append(chunk, 0, static_cast<std::size_t>(in.gcount()));
        std::size_t eol;
        while ((eol = buffered.find('\n')) != std::string::npos) {
          HeartbeatSnapshot snap;
          if (rftc::obs::parse_heartbeat_line(
                  std::string_view(buffered).substr(0, eol), snap)) {
            std::printf("%s\n",
                        rftc::obs::format_heartbeat_row(
                            snap, have_prev ? &prev : nullptr)
                            .c_str());
            std::fflush(stdout);
            prev = std::move(snap);
            have_prev = true;
            ++printed;
            last_new = std::chrono::steady_clock::now();
          }
          buffered.erase(0, eol + 1);
        }
      }
    }
    if (timeout_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      last_new)
                .count() > timeout_s)
      break;
    std::this_thread::sleep_for(poll);
  }
  if (printed == 0) {
    std::fprintf(stderr, "rftc-report: %s: no heartbeat snapshots\n", argv[0]);
    return 1;
  }
  return 0;
}

namespace json = rftc::obs::json;

double pm_num(const json::Value* v, double fallback = 0.0) {
  return v != nullptr && v->is_number() ? v->num : fallback;
}

int cmd_postmortem(const char* path) {
  std::string text;
  if (!read_file(path, text)) return 2;
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rftc-report: %s: %s\n", path, e.what());
    return 1;
  }
  const json::Value* schema = doc.find("postmortem_schema");
  const json::Value* signal = doc.find("signal");
  const std::optional<std::uint64_t> signo =
      signal != nullptr ? json::as_uint(*signal, INT_MAX) : std::uint64_t{0};
  if (schema == nullptr ||
      json::as_uint(*schema) !=
          static_cast<std::uint64_t>(rftc::obs::kPostmortemSchema) ||
      !signo) {
    std::fprintf(stderr, "rftc-report: %s: not a post-mortem bundle\n", path);
    return 1;
  }

  const json::Value* reason = doc.find("reason");
  std::printf("post-mortem bundle: %s\n", path);
  std::printf("reason:        %s",
              reason != nullptr && reason->is_string() ? reason->str.c_str()
                                                       : "?");
  if (*signo != 0) std::printf(" (signal %d)", static_cast<int>(*signo));
  if (const json::Value* detail = doc.find("detail");
      detail != nullptr && detail->is_string())
    std::printf("  [%s]", detail->str.c_str());
  std::printf("\n");
  std::printf("at:            %.3fs into the run\n",
              pm_num(doc.find("ts_ns")) / 1e9);

  const json::Value* phase = doc.find("active_phase");
  std::printf("active phase:  %s\n",
              phase != nullptr && phase->is_string() ? phase->str.c_str()
                                                     : "(none)");
  if (const json::Value* stack = doc.find("phase_stack");
      stack != nullptr && stack->is_array() && !stack->array.empty()) {
    std::printf("phase stack:  ");
    for (const json::Value& frame : stack->array)
      if (frame.is_string()) std::printf(" > %s", frame.str.c_str());
    std::printf("\n");
  }

  if (const json::Value* prov = doc.find("provenance");
      prov != nullptr && prov->is_object() && !prov->object.empty()) {
    std::printf("\nprovenance:\n");
    for (const auto& [k, v] : prov->object) {
      if (v.is_string())
        std::printf("  %-14s %s\n", k.c_str(), v.str.c_str());
      else if (v.is_number())
        std::printf("  %-14s %.6g\n", k.c_str(), v.num);
    }
  }

  if (const json::Value* tracer = doc.find("tracer");
      tracer != nullptr && tracer->is_object()) {
    std::printf("\ntracer:        %.0f events recorded, %.0f dropped\n",
                pm_num(tracer->find("recorded")),
                pm_num(tracer->find("dropped")));
  }

  if (const json::Value* hb = doc.find("heartbeat");
      hb != nullptr && hb->is_object()) {
    std::printf("\nlast heartbeat: seq %.0f at %.1fs",
                pm_num(hb->find("seq")), pm_num(hb->find("elapsed_seconds")));
    if (const json::Value* progress = hb->find("progress");
        progress != nullptr && progress->is_object())
      std::printf(", %.0f/%.0f traces captured",
                  pm_num(progress->find("captured")),
                  pm_num(progress->find("total")));
    std::printf("\n");
  }

  if (const json::Value* metrics = doc.find("metrics");
      metrics != nullptr && metrics->is_object()) {
    std::printf("\nmetrics:\n");
    if (const json::Value* counters = metrics->find("counters");
        counters != nullptr && counters->is_object())
      for (const auto& [k, v] : counters->object)
        std::printf("  counter   %-38s %.0f\n", k.c_str(), v.num);
    if (const json::Value* gauges = metrics->find("gauges");
        gauges != nullptr && gauges->is_object())
      for (const auto& [k, v] : gauges->object)
        std::printf("  gauge     %-38s %.6g\n", k.c_str(), v.num);
    if (const json::Value* histograms = metrics->find("histograms");
        histograms != nullptr && histograms->is_object())
      for (const auto& [k, v] : histograms->object)
        std::printf("  histogram %-38s count %.0f p50 %.6g p99 %.6g\n",
                    k.c_str(), pm_num(v.find("count")), pm_num(v.find("p50")),
                    pm_num(v.find("p99")));
  }

  if (const json::Value* recorder = doc.find("flight_recorder");
      recorder != nullptr && recorder->is_array()) {
    std::printf("\nflight recorder (%zu records, oldest first):\n",
                recorder->array.size());
    for (const json::Value& rec : recorder->array) {
      if (!rec.is_object()) continue;
      const json::Value* level = rec.find("level");
      const json::Value* subsystem = rec.find("subsystem");
      const json::Value* msg = rec.find("msg");
      std::printf(
          "  [%9.3fs] tid %-3.0f %-5s %-7s %s\n",
          pm_num(rec.find("ts_ns")) / 1e9, pm_num(rec.find("tid")),
          level != nullptr && level->is_string() ? level->str.c_str() : "?",
          subsystem != nullptr && subsystem->is_string()
              ? subsystem->str.c_str()
              : "?",
          msg != nullptr && msg->is_string() ? msg->str.c_str() : "");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  if (std::strcmp(argv[1], "show") == 0 && argc == 3)
    return cmd_show(argv[2]);
  if (std::strcmp(argv[1], "diff") == 0)
    return cmd_diff(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "tail") == 0)
    return cmd_tail(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "watch") == 0)
    return cmd_watch(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "postmortem") == 0 && argc == 3)
    return cmd_postmortem(argv[2]);
  return usage();
}
