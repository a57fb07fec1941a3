// rftc-campaign: run an attack or TVLA campaign over chunked trace stores,
// either single-process (the run_attack / run_tvla reference paths) or
// distributed over rftc-worker processes (src/dist) — and write one
// deterministic report.json either way, so CI can diff the two modes
// byte for byte (docs/DISTRIBUTED.md).
//
//   rftc-campaign attack --store <s.rtst> --key <32-hex>
//       [--workers N] [--dir D] [--retries R] [--worker PATH]
//       [--checkpoints a,b,c]
//       [--leakage last_round_hd|first_round_hw] [--downsample K]
//       [--bytes i,j,...] [--report PATH]
//
//   rftc-campaign tvla --fixed <f.rtst> --random <r.rtst>
//       [--workers N] [--dir D] [--retries R] [--worker PATH]
//       [--report PATH]
//
// --workers 0 (the default) runs the campaign in-process through the exact
// single-process code paths — the baseline the distributed result must be
// bit-identical to.  --workers N >= 1 requires --dir; the directory is the
// resume token (rerun the same command after a crash and completed shards
// are reused).  --worker overrides the rftc-worker binary (default:
// RFTC_WORKER_BIN, else rftc-worker next to this executable).
//
// The report is strict JSON with shortest-round-trip doubles: identical
// results produce identical bytes.
//
// Exit codes: 0 = OK, 1 = campaign failed, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/tvla.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "trace/trace_store.hpp"
#include "util/env.hpp"

namespace {

using namespace rftc;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "rftc-campaign: %s\n", why);
  std::fprintf(stderr,
               "usage: rftc-campaign attack --store <s.rtst> --key <32-hex> "
               "[--workers N] [--dir D] ...\n"
               "       rftc-campaign tvla --fixed <f.rtst> --random <r.rtst> "
               "[--workers N] [--dir D] ...\n");
  std::exit(2);
}

std::vector<std::size_t> parse_size_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto v = env::parse_u64(item);
    if (!v) usage(("bad number in list: " + item).c_str());
    out.push_back(static_cast<std::size_t>(*v));
  }
  return out;
}

std::string attack_report_json(const analysis::AttackOutcome& out) {
  std::ostringstream os;
  os << "{\"kind\":\"attack\",\"checkpoints\":[";
  for (std::size_t i = 0; i < out.checkpoints.size(); ++i)
    os << (i ? "," : "") << out.checkpoints[i];
  os << "],\"success\":[";
  for (std::size_t i = 0; i < out.success.size(); ++i)
    os << (i ? "," : "") << (out.success[i] ? "true" : "false");
  os << "],\"mean_rank\":[";
  for (std::size_t i = 0; i < out.mean_rank.size(); ++i)
    os << (i ? "," : "") << obs::json::number(out.mean_rank[i]);
  os << "],\"peak_corr\":[";
  for (std::size_t i = 0; i < out.peak_corr.size(); ++i)
    os << (i ? "," : "") << obs::json::number(out.peak_corr[i]);
  os << "]}\n";
  return os.str();
}

std::string tvla_report_json(const analysis::TvlaResult& res) {
  std::ostringstream os;
  os << "{\"kind\":\"tvla\",\"max_abs_t\":" << obs::json::number(res.max_abs_t)
     << ",\"worst_sample\":" << res.worst_sample
     << ",\"leaking_samples\":" << res.leaking_samples << ",\"convergence\":[";
  for (std::size_t i = 0; i < res.convergence.size(); ++i)
    os << (i ? "," : "") << "[" << res.convergence[i].first << ","
       << obs::json::number(res.convergence[i].second) << "]";
  os << "],\"t_values\":[";
  for (std::size_t i = 0; i < res.t_values.size(); ++i)
    os << (i ? "," : "") << obs::json::number(res.t_values[i]);
  os << "]}\n";
  return os.str();
}

struct Cli {
  dist::CampaignSpec spec;
  dist::CoordinatorOptions options;
  std::size_t workers = 0;  // 0 = single-process baseline
  std::string report;
};

Cli parse_cli(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  Cli cli;
  const std::string sub = argv[1];
  if (sub == "attack")
    cli.spec.kind = dist::CampaignKind::kAttack;
  else if (sub == "tvla")
    cli.spec.kind = dist::CampaignKind::kTvla;
  else
    usage(("unknown subcommand: " + sub).c_str());
  cli.spec.name = sub;
  cli.options.retries = 1;

  const auto need = [&](int i) -> std::string {
    if (i + 1 >= argc) usage((std::string(argv[i]) + " needs a value").c_str());
    return argv[i + 1];
  };
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = need(i);
    if (flag == "--store") {
      cli.spec.store = value;
    } else if (flag == "--key") {
      cli.spec.key_hex = value;
    } else if (flag == "--fixed") {
      cli.spec.fixed_store = value;
    } else if (flag == "--random") {
      cli.spec.random_store = value;
    } else if (flag == "--workers") {
      const auto v = env::parse_u64(value);
      if (!v) usage("--workers needs a non-negative integer");
      cli.workers = static_cast<std::size_t>(*v);
    } else if (flag == "--dir") {
      cli.options.dir = value;
    } else if (flag == "--retries") {
      const auto v = env::parse_u64(value);
      if (!v) usage("--retries needs a non-negative integer");
      cli.options.retries = static_cast<std::size_t>(*v);
    } else if (flag == "--worker") {
      cli.options.worker_binary = value;
    } else if (flag == "--checkpoints") {
      cli.spec.checkpoints = parse_size_list(value);
    } else if (flag == "--bytes") {
      for (const std::size_t b : parse_size_list(value)) {
        if (b > 15) usage("--bytes entries must be in [0, 15]");
        cli.spec.byte_positions.push_back(static_cast<int>(b));
      }
    } else if (flag == "--leakage") {
      if (value == "last_round_hd")
        cli.spec.leakage = aes::LeakageModel::kLastRoundHd;
      else if (value == "first_round_hw")
        cli.spec.leakage = aes::LeakageModel::kFirstRoundHw;
      else
        usage("--leakage must be last_round_hd or first_round_hw");
    } else if (flag == "--downsample") {
      const auto v = env::parse_u64(value);
      if (!v || *v == 0) usage("--downsample needs a positive integer");
      cli.spec.downsample = static_cast<std::size_t>(*v);
    } else if (flag == "--report") {
      cli.report = value;
    } else {
      usage(("unknown flag: " + flag).c_str());
    }
  }

  if (cli.spec.kind == dist::CampaignKind::kAttack) {
    if (cli.spec.store.empty()) usage("attack needs --store");
    if (cli.spec.key_hex.empty()) usage("attack needs --key");
    try {
      (void)cli.spec.key();
    } catch (const std::exception& e) {
      usage(e.what());
    }
  } else {
    if (cli.spec.fixed_store.empty() || cli.spec.random_store.empty())
      usage("tvla needs --fixed and --random");
  }
  if (cli.workers > 0 && cli.options.dir.empty())
    usage("--workers N >= 1 needs --dir");
  if (cli.report.empty())
    cli.report =
        cli.options.dir.empty() ? "report.json" : cli.options.dir + "/report.json";
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_from_env();
  const Cli cli = parse_cli(argc, argv);
  try {
    std::string report;
    if (cli.workers == 0) {
      // Single-process baseline through the reference code paths.
      if (cli.spec.kind == dist::CampaignKind::kAttack) {
        const trace::TraceStore store(cli.spec.store);
        const analysis::AttackOutcome out =
            analysis::run_attack(store, cli.spec.key(), cli.spec.attack_params());
        report = attack_report_json(out);
      } else {
        trace::StoredTvlaCapture capture{
            trace::TraceStore(cli.spec.fixed_store),
            trace::TraceStore(cli.spec.random_store)};
        const analysis::TvlaResult res = analysis::run_tvla(capture);
        report = tvla_report_json(res);
      }
    } else {
      dist::CoordinatorOptions options = cli.options;
      options.workers = cli.workers;
      const dist::CampaignResult result = dist::run_campaign(cli.spec, options);
      std::fprintf(stderr,
                   "rftc-campaign: %zu shards (%zu reused, %zu restarts); "
                   "worker accumulate %.3f s, write %.3f s, sync %.3f s\n",
                   result.shards_total, result.shards_reused,
                   result.worker_restarts,
                   1e-6 * static_cast<double>(result.accumulate_us),
                   1e-6 * static_cast<double>(result.write_us),
                   1e-6 * static_cast<double>(result.sync_us));
      report = cli.spec.kind == dist::CampaignKind::kAttack
                   ? attack_report_json(result.attack)
                   : tvla_report_json(result.tvla);
    }
    dist::write_file_atomic(cli.report, report);
    std::printf("%s", report.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rftc-campaign: %s\n", e.what());
    return 1;
  }
  return 0;
}
