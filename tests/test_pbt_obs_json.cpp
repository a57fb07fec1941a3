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

TEST(PbtObsJson, ParsersThrowTypedOrParseUnderRandomMutations) {
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
  const std::string bench = report.to_json();
  ASSERT_NO_THROW((void)json::parse(bench));
  EXPECT_TRUE(mutations_keep("bench_json_mutation", 0x0B5E0001, bench,
                             json_parse_contract));

  HeartbeatSampler& sampler = HeartbeatSampler::global();
  sampler.stop();
  ASSERT_TRUE(sampler.configure(test::scratch_path("heartbeat.jsonl")));
  ASSERT_TRUE(sampler.tick_now());
  std::vector<char> buf(1 << 16);
  const std::string line(buf.data(),
                         last_heartbeat_line(buf.data(), buf.size()));
  HeartbeatSnapshot snap;
  ASSERT_TRUE(parse_heartbeat_line(line, snap)) << line;
  EXPECT_TRUE(mutations_keep("heartbeat_line_mutation", 0x0B5E0002, line,
                             heartbeat_contract));
  EXPECT_TRUE(mutations_keep("heartbeat_line_json_mutation", 0x0B5E0003,
                             line, json_parse_contract));
}

}  // namespace
}  // namespace rftc::obs
