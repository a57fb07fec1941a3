// Observability readers under random byte mutations: obs::json::parse and
// the heartbeat-line parser see files a crashed or half-written run left
// behind, so every mutation of a valid document must end in a typed error,
// a clean rejection or a well-formed value — never an untyped exception,
// a crash or (under -fsanitize=float-cast-overflow) an undefined cast.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mutation.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "obs/sampler.hpp"
#include "pbt/pbt.hpp"
#include "scratch.hpp"

namespace rftc::obs {
namespace {

using fuzz::BlobMutation;

/// Text mutations never reseal: a CRC trailer means nothing in JSON.
bool mutations_keep(
    const std::string& name, std::uint64_t seed, const std::string& valid,
    const std::function<std::optional<std::string>(std::string_view)>&
        contract) {
  const std::vector<unsigned char> bytes(valid.begin(), valid.end());
  return pbt::check<BlobMutation>(
      name,
      [&](pbt::Rng& rng) {
        BlobMutation m = fuzz::random_mutation(rng, bytes.size(), bytes.size());
        m.reseal = false;
        return m;
      },
      [&](const BlobMutation& m) {
        const std::vector<unsigned char> cand = fuzz::mutated(bytes, m);
        return contract(std::string_view(
            reinterpret_cast<const char*>(cand.data()), cand.size()));
      },
      pbt::Config::from_env(seed, 10'000), fuzz::shrink_mutation,
      fuzz::describe_mutation);
}

std::optional<std::string> json_parse_contract(std::string_view cand) {
  try {
    (void)json::parse(cand);
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    return std::string("json::parse threw an untyped error: ") + e.what();
  }
  return std::nullopt;
}

std::optional<std::string> heartbeat_contract(std::string_view cand) {
  HeartbeatSnapshot snap;
  try {
    if (parse_heartbeat_line(cand, snap) && snap.schema != kHeartbeatSchema)
      return "accepted a line as schema " + std::to_string(snap.schema);
  } catch (const std::exception& e) {
    return std::string("parse_heartbeat_line threw: ") + e.what();
  }
  return std::nullopt;
}

/// A BENCH_*.json document with every section a run record writes.
std::string bench_document() {
  Registry::global().reset_values();
  Registry::global().counter("trace.traces_captured").inc(24'000);
  Registry::global().counter("analysis.traces_attacked").inc(8'000);
  set_campaign_total(168'000.0);
  publish_checkpoint("tvla", 1'000.0, {{"max_abs_t", 3.25}});

  RunManifest report("pbt_obs_json");
  report.seed(7);
  report.throughput(11'430.5, "traces/s");
  report.metric("setup_s", 0.347, "s");
  report.metric("peak_rss_mib", 39.0, "MiB");
  report.note("scale", "fast");
  report.checkpoint("tvla", 1'000.0, {{"max_abs_t", 3.25}});
  return report.to_json();
}

/// A real heartbeat tick line, from the sampler (after bench_document()
/// has published its counters and checkpoint).
std::string heartbeat_line() {
  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  if (!sampler.configure(test::scratch_path("heartbeat.jsonl")) ||
      !sampler.tick_now())
    return {};
  std::vector<char> buf(1 << 16);
  return std::string(buf.data(), last_heartbeat_line(buf.data(), buf.size()));
}

TEST(PbtObsJson, ParsersThrowTypedOrParseUnderRandomMutations) {
  const std::string bench = bench_document();
  ASSERT_NO_THROW((void)json::parse(bench));
  EXPECT_TRUE(mutations_keep("bench_json_mutation", 0x0B5E0001, bench,
                             json_parse_contract));

  const std::string line = heartbeat_line();
  HeartbeatSnapshot snap;
  ASSERT_TRUE(parse_heartbeat_line(line, snap)) << line;
  EXPECT_TRUE(mutations_keep("heartbeat_line_mutation", 0x0B5E0002, line,
                             heartbeat_contract));
  EXPECT_TRUE(mutations_keep("heartbeat_line_json_mutation", 0x0B5E0003,
                             line, json_parse_contract));
}

/// Every number token of `doc`, swapped for every boundary number, keeps
/// `contract`; returns how many documents that checked.
std::size_t boundary_numbers_keep(
    const std::string& doc,
    const std::function<std::optional<std::string>(std::string_view)>&
        contract) {
  std::size_t checked = 0;
  for (const auto& token : fuzz::json_number_tokens(doc)) {
    for (const std::string& value : fuzz::boundary_numbers()) {
      const std::string cand = fuzz::with_number(doc, token, value);
      const std::optional<std::string> bad = contract(cand);
      EXPECT_FALSE(bad) << *bad << "\n  in: " << cand;
      ++checked;
    }
  }
  return checked;
}

TEST(PbtObsJson, ParsersKeepTheirContractOnBoundaryNumbers) {
  // Token-aware: each number of a valid document becomes -1, 1.5, 1e30 and
  // 2^64 in turn, the values an integer field must reject rather than
  // cast (a heartbeat schema of 1.5 must not read as schema 1).
  const std::string bench = bench_document();
  EXPECT_GT(boundary_numbers_keep(bench, json_parse_contract), 20u);
  const std::string line = heartbeat_line();
  ASSERT_FALSE(line.empty());
  const std::size_t swaps = boundary_numbers_keep(line, heartbeat_contract);
  EXPECT_GT(swaps, 8u);
  EXPECT_EQ(boundary_numbers_keep(line, json_parse_contract), swaps);
  // The integer fields themselves reject every boundary number: a schema
  // or sequence number of -1, 1.5, 1e30 or 2^64 is no heartbeat line.
  std::size_t integer_fields = 0;
  for (const auto& token : fuzz::json_number_tokens(line)) {
    const std::size_t colon = line.rfind(':', token.first);
    const std::size_t close = line.rfind('"', colon);
    const std::size_t open = line.rfind('"', close - 1);
    const std::string key = line.substr(open + 1, close - open - 1);
    if (key != "heartbeat_schema" && key != "seq") continue;
    ++integer_fields;
    for (const std::string& value : fuzz::boundary_numbers()) {
      HeartbeatSnapshot snap;
      EXPECT_FALSE(
          parse_heartbeat_line(fuzz::with_number(line, token, value), snap))
          << key << " = " << value;
    }
  }
  EXPECT_EQ(integer_fields, 2u) << line;
}

}  // namespace
}  // namespace rftc::obs
