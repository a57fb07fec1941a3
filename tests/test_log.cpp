// rftc::obs::log — RFTC_LOG spec parsing edge cases, per-subsystem level
// floors, the JSONL file sink (single-line validity, including under
// concurrent multi-threaded writers), and the flight-recorder ring the
// post-mortem bundle reads.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "scratch.hpp"

namespace rftc::obs::log {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

/// Saves and restores the process-global logger configuration, and mutes
/// the stderr sink so flooding tests stay quiet.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = current_spec();
    set_stderr_sink(false);
  }
  void TearDown() override {
    set_file_sink("");
    configure(saved_);
    set_stderr_sink(true);
  }
  LevelSpec saved_;
};

TEST_F(LogTest, ParseLevelRoundTrips) {
  for (const Level l : {Level::kTrace, Level::kDebug, Level::kInfo,
                        Level::kWarn, Level::kError, Level::kOff}) {
    Level out = Level::kInfo;
    EXPECT_TRUE(parse_level(level_name(l), out));
    EXPECT_EQ(out, l);
  }
  Level out = Level::kWarn;
  EXPECT_FALSE(parse_level("warning", out));
  EXPECT_FALSE(parse_level("", out));
  EXPECT_FALSE(parse_level("INFO", out));
  EXPECT_EQ(out, Level::kWarn);  // untouched on failure
}

TEST_F(LogTest, ParseSpecEmptyYieldsDefaults) {
  const LevelSpec spec = parse_spec("");
  EXPECT_EQ(spec.default_level, Level::kInfo);
  EXPECT_TRUE(spec.overrides.empty());
  EXPECT_EQ(spec.for_subsystem("clk"), Level::kInfo);
}

TEST_F(LogTest, ParseSpecDefaultAndOverrides) {
  const LevelSpec spec = parse_spec("warn,clk=debug,fault=trace");
  EXPECT_EQ(spec.default_level, Level::kWarn);
  ASSERT_EQ(spec.overrides.size(), 2u);
  EXPECT_EQ(spec.for_subsystem("clk"), Level::kDebug);
  EXPECT_EQ(spec.for_subsystem("fault"), Level::kTrace);
  EXPECT_EQ(spec.for_subsystem("simd"), Level::kWarn);
}

TEST_F(LogTest, ParseSpecSkipsMalformedElements) {
  // Unknown bare level, unparseable override level, empty subsystem key
  // and empty elements are all skipped without disturbing the rest.
  const LevelSpec spec = parse_spec("verbose,,clk=loud,=debug,fault=error,");
  EXPECT_EQ(spec.default_level, Level::kInfo);
  ASSERT_EQ(spec.overrides.size(), 1u);
  EXPECT_EQ(spec.for_subsystem("fault"), Level::kError);
  EXPECT_EQ(spec.for_subsystem("clk"), Level::kInfo);
}

TEST_F(LogTest, ParseSpecAcceptsUnknownSubsystem) {
  // An override for a subsystem that never logs is harmless by contract.
  const LevelSpec spec = parse_spec("info,no_such_subsystem=trace");
  EXPECT_EQ(spec.for_subsystem("no_such_subsystem"), Level::kTrace);
  EXPECT_EQ(spec.for_subsystem("clk"), Level::kInfo);
}

TEST_F(LogTest, ParseSpecDuplicateKeysLastWins) {
  const LevelSpec spec = parse_spec("clk=debug,clk=error");
  EXPECT_EQ(spec.for_subsystem("clk"), Level::kError);
  // Also when the duplicates straddle other elements.
  const LevelSpec spec2 = parse_spec("clk=trace,fault=warn,clk=off");
  EXPECT_EQ(spec2.for_subsystem("clk"), Level::kOff);
  EXPECT_EQ(spec2.for_subsystem("fault"), Level::kWarn);
}

TEST_F(LogTest, EnabledRespectsConfiguredFloors) {
  configure(parse_spec("warn,clk=debug"));
  EXPECT_TRUE(enabled("clk", Level::kDebug));
  EXPECT_FALSE(enabled("clk", Level::kTrace));
  EXPECT_TRUE(enabled("simd", Level::kWarn));
  EXPECT_FALSE(enabled("simd", Level::kInfo));

  configure(parse_spec("off"));
  EXPECT_FALSE(enabled("clk", Level::kError));
}

TEST_F(LogTest, DisabledEmitRecordsNothing) {
  configure(parse_spec("off"));
  const std::uint64_t before = records_emitted();
  emit(Level::kError, "clk", "should be filtered");
  EXPECT_EQ(records_emitted(), before);
}

TEST_F(LogTest, FileSinkWritesValidJsonlWithArgs) {
  configure(parse_spec("trace"));
  const std::string path = test::scratch_path("jsonl");
  ASSERT_TRUE(set_file_sink(path));
  EXPECT_EQ(file_sink_path(), path);
  warn("clk", "lock failed", {kv("mmcm", 1.0), kv("cfg", "m\"8\"\n")});
  info("fault", "plain message");
  set_file_sink("");

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  const json::Value first = json::parse(lines[0]);
  ASSERT_TRUE(first.is_object());
  EXPECT_EQ(first.find("level")->str, "warn");
  EXPECT_EQ(first.find("subsystem")->str, "clk");
  EXPECT_EQ(first.find("msg")->str, "lock failed");
  const json::Value* args = first.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("mmcm")->num, 1.0);
  // The string value survives JSON escaping (quote + newline) intact.
  EXPECT_EQ(args->find("cfg")->str, "m\"8\"\n");
  const json::Value second = json::parse(lines[1]);
  EXPECT_EQ(second.find("msg")->str, "plain message");
  EXPECT_EQ(second.find("args"), nullptr);
  std::filesystem::remove(path);
}

TEST_F(LogTest, ConcurrentWritersEmitOneValidObjectPerLine) {
  configure(parse_spec("debug"));
  const std::string path = test::scratch_path("concurrent");
  ASSERT_TRUE(set_file_sink(path));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        debug("test", "concurrent record",
              {kv("thread", static_cast<double>(t)),
               kv("i", static_cast<double>(i))});
    });
  }
  for (std::thread& w : workers) w.join();
  set_file_sink("");

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (const std::string& line : lines) {
    const json::Value doc = json::parse(line);  // throws on torn output
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("msg")->str, "concurrent record");
  }
  std::filesystem::remove(path);
}

TEST_F(LogTest, FlightRecorderKeepsMostRecentAcrossThreads) {
  configure(parse_spec("debug"));
  const std::uint64_t before = records_emitted();
  // A dedicated thread gets a fresh ring; 10 records from it are the most
  // recent in the whole process once it joins.
  std::thread([] {
    for (int i = 0; i < 10; ++i)
      debug("test", "tail-" + std::to_string(i));
  }).join();
  EXPECT_EQ(records_emitted() - before, 10u);

  const std::vector<Record> tail = flight_recorder_tail(5);
  ASSERT_EQ(tail.size(), 5u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(tail[i].seq, tail[i - 1].seq);  // oldest first
    }
    EXPECT_STREQ(tail[i].subsystem, "test");
    EXPECT_EQ(std::string(tail[i].text),
              "tail-" + std::to_string(5 + i));
    EXPECT_EQ(tail[i].level, Level::kDebug);
  }
}

TEST_F(LogTest, RingBoundsRecordsPerThread) {
  configure(parse_spec("debug"));
  // Flood a fresh thread's ring 100 records past capacity: only the most
  // recent kLogRingRecords survive, and the tail never exceeds what was
  // asked for.
  constexpr std::size_t kFlood = kLogRingRecords + 100;
  std::thread([] {
    for (std::size_t i = 0; i < kFlood; ++i)
      debug("test", "flood-" + std::to_string(i));
  }).join();

  const std::vector<Record> tail = flight_recorder_tail(16);
  ASSERT_EQ(tail.size(), 16u);
  // The 16 most recent are exactly the last 16 floods, in order.
  for (std::size_t i = 0; i < tail.size(); ++i)
    EXPECT_EQ(std::string(tail[i].text),
              "flood-" + std::to_string(kFlood - 16 + i));
  // Asking for more than one ring holds still yields only the flood
  // ring's kLogRingRecords survivors: flood-100 .. the last, in order.
  std::vector<std::string> survivors;
  for (const Record& rec : flight_recorder_tail(kLogRingRecords + 64))
    if (std::string_view(rec.text).starts_with("flood-"))
      survivors.emplace_back(rec.text);
  ASSERT_EQ(survivors.size(), kLogRingRecords);
  for (std::size_t i = 0; i < survivors.size(); ++i)
    EXPECT_EQ(survivors[i], "flood-" + std::to_string(100 + i));
}

TEST_F(LogTest, LongMessagesAndSubsystemsAreTruncatedSafely) {
  configure(parse_spec("debug"));
  const std::string path = test::scratch_path("trunc");
  ASSERT_TRUE(set_file_sink(path));
  const std::string long_msg(400, 'x');
  emit(Level::kInfo, "a_subsystem_name_way_past_the_cap", long_msg);
  set_file_sink("");

  const std::vector<Record> tail = flight_recorder_tail(1);
  ASSERT_EQ(tail.size(), 1u);
  // Bounded record: NUL-terminated within the fixed-size POD fields.
  EXPECT_LT(std::string(tail.back().subsystem).size(), kSubsystemCap);
  EXPECT_LT(std::string(tail.back().text).size(), kRecordTextCap);
  // The JSONL sink carries the full message (it is not ring-bounded).
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(json::parse(lines[0]).find("msg")->str, long_msg);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rftc::obs::log
