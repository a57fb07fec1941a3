// The shared RFTC_* knob parser (util/env.hpp): a value is either a single
// complete token that parses cleanly or the knob falls back — no silent
// half-parses.  Also covers the env-level behaviour of
// obs::checkpoints_from_env, the pbt Config knobs and the CPA tile size,
// which ride on the same helper.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "analysis/cpa.hpp"
#include "obs/checkpoints.hpp"
#include "obs/run_manifest.hpp"
#include "pbt/pbt.hpp"
#include "util/env.hpp"

namespace rftc {
namespace {

/// Sets an environment variable for one test and restores the previous
/// value on destruction.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_value_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

// ------------------------------------------------------------ parse_u64 --

TEST(EnvParse, U64ParsesPlainDecimal) {
  EXPECT_EQ(env::parse_u64("0"), 0u);
  EXPECT_EQ(env::parse_u64("42"), 42u);
  EXPECT_EQ(env::parse_u64("18446744073709551615"),
            18446744073709551615ull);  // UINT64_MAX
}

TEST(EnvParse, U64ParsesHexWithPrefix) {
  EXPECT_EQ(env::parse_u64("0x10"), 16u);
  EXPECT_EQ(env::parse_u64("0XdeadBEEF"), 0xdeadbeefu);
  EXPECT_EQ(env::parse_u64("0xffffffffffffffff"), ~0ull);
}

TEST(EnvParse, U64ToleratesSurroundingWhitespace) {
  EXPECT_EQ(env::parse_u64("  7 "), 7u);
  EXPECT_EQ(env::parse_u64("\t0x20\n"), 32u);
}

TEST(EnvParse, U64RejectsEmptyAndWhitespaceOnly) {
  EXPECT_FALSE(env::parse_u64("").has_value());
  EXPECT_FALSE(env::parse_u64("   ").has_value());
  EXPECT_FALSE(env::parse_u64("\t\n").has_value());
  EXPECT_FALSE(env::parse_u64("0x").has_value());
}

TEST(EnvParse, U64RejectsTrailingJunk) {
  EXPECT_FALSE(env::parse_u64("4x").has_value());
  EXPECT_FALSE(env::parse_u64("12 34").has_value());
  EXPECT_FALSE(env::parse_u64("1,000").has_value());
  EXPECT_FALSE(env::parse_u64("10MB").has_value());
  EXPECT_FALSE(env::parse_u64("-1").has_value());
  EXPECT_FALSE(env::parse_u64("+1").has_value());
}

TEST(EnvParse, U64RejectsOverflow) {
  // UINT64_MAX + 1.
  EXPECT_FALSE(env::parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(env::parse_u64("0x10000000000000000").has_value());
  EXPECT_FALSE(env::parse_u64("999999999999999999999999").has_value());
}

// ------------------------------------------------------------ parse_i64 --

TEST(EnvParse, I64ParsesSignedValues) {
  EXPECT_EQ(env::parse_i64("-12"), -12);
  EXPECT_EQ(env::parse_i64("+12"), 12);
  EXPECT_EQ(env::parse_i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(env::parse_i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(EnvParse, I64RejectsOverflowAndJunk) {
  EXPECT_FALSE(env::parse_i64("9223372036854775808").has_value());
  EXPECT_FALSE(env::parse_i64("-9223372036854775809").has_value());
  EXPECT_FALSE(env::parse_i64("12-").has_value());
  EXPECT_FALSE(env::parse_i64("--5").has_value());
  EXPECT_FALSE(env::parse_i64("").has_value());
}

TEST(EnvParse, I64BitWidthBoundariesNeverWrap) {
  // The INT64_MIN corner: |INT64_MIN| does not fit in int64_t, so the
  // magnitude must be accumulated unsigned and the limit adjusted per sign
  // — and magnitudes past uint64_t must be rejected outright, not wrap
  // back into acceptance.
  EXPECT_EQ(env::parse_i64("+9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(env::parse_i64(" -9223372036854775808 "),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(env::parse_i64("-0"), 0);
  EXPECT_EQ(env::parse_i64("+0"), 0);
  EXPECT_FALSE(env::parse_i64("+9223372036854775808").has_value());
  // UINT64_MAX, UINT64_MAX + 1, and far beyond.
  EXPECT_FALSE(env::parse_i64("-18446744073709551615").has_value());
  EXPECT_FALSE(env::parse_i64("-18446744073709551616").has_value());
  EXPECT_FALSE(env::parse_i64("-99999999999999999999999").has_value());
  // A lone sign is not a number.
  EXPECT_FALSE(env::parse_i64("-").has_value());
  EXPECT_FALSE(env::parse_i64("+").has_value());
}

// ----------------------------------------------------------- parse_real --

TEST(EnvParse, RealParsesFloatingFormats) {
  EXPECT_DOUBLE_EQ(env::parse_real("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(env::parse_real("-3e2").value(), -300.0);
  EXPECT_DOUBLE_EQ(env::parse_real(" 1.5 ").value(), 1.5);
}

TEST(EnvParse, RealRejectsJunkOverflowAndNonFinite) {
  EXPECT_FALSE(env::parse_real("0.1s").has_value());
  EXPECT_FALSE(env::parse_real("1e999").has_value());  // overflows to inf
  EXPECT_FALSE(env::parse_real("nan").has_value());
  EXPECT_FALSE(env::parse_real("inf").has_value());
  EXPECT_FALSE(env::parse_real("").has_value());
  EXPECT_FALSE(env::parse_real("..5").has_value());
}

// -------------------------------------------------------- read_* wrappers --

TEST(EnvRead, UnsetFallsBack) {
  EnvGuard guard("RFTC_TEST_KNOB", nullptr);
  EXPECT_EQ(env::read_u64("RFTC_TEST_KNOB", 7), 7u);
  EXPECT_EQ(env::read_i64("RFTC_TEST_KNOB", -7), -7);
  EXPECT_DOUBLE_EQ(env::read_real("RFTC_TEST_KNOB", 0.5), 0.5);
  EXPECT_EQ(env::read_count("RFTC_TEST_KNOB", 9), 9u);
}

TEST(EnvRead, EmptyAndMalformedFallBack) {
  for (const char* bad : {"", "  ", "4x", "1e999", "0x"}) {
    EnvGuard guard("RFTC_TEST_KNOB", bad);
    EXPECT_EQ(env::read_count("RFTC_TEST_KNOB", 9), 9u) << "value: '" << bad
                                                        << "'";
    EXPECT_EQ(env::read_u64("RFTC_TEST_KNOB", 7), 7u);
  }
}

TEST(EnvRead, CountRejectsZero) {
  EnvGuard guard("RFTC_TEST_KNOB", "0");
  EXPECT_EQ(env::read_count("RFTC_TEST_KNOB", 5), 5u);
  // ...but read_u64 passes zero through: it is only counts where zero is
  // meaningless.
  EXPECT_EQ(env::read_u64("RFTC_TEST_KNOB", 5), 0u);
}

TEST(EnvRead, ValidValuesWin) {
  EnvGuard guard("RFTC_TEST_KNOB", " 48 ");
  EXPECT_EQ(env::read_count("RFTC_TEST_KNOB", 5), 48u);
}

// ------------------------------------------------------ RFTC_CPA_BATCH --

TEST(CpaBatchEnv, ProvenanceStampsTheEngineDefault) {
  EnvGuard guard("RFTC_CPA_BATCH", nullptr);
  EXPECT_EQ(obs::Provenance::collect().batch,
            analysis::CpaEngine::default_batch_size());
  EXPECT_EQ(obs::Provenance{}.batch, analysis::CpaEngine::default_batch_size());
}

TEST(CpaBatchEnv, ProvenanceFollowsTheKnob) {
  EnvGuard guard("RFTC_CPA_BATCH", "256");
  EXPECT_EQ(analysis::CpaEngine::default_batch_size(), 256u);
  EXPECT_EQ(obs::Provenance::collect().batch, 256u);
}

TEST(CpaBatchEnv, OversizedBatchIsRejectedNotWrapped) {
  // 2^61 traces of 8 samples (or of 16 class bytes) wraps the tile size to
  // 0; 2^32 overflows the class sort's uint32_t index.  Either must throw
  // before a tile is sized, never memcpy into an empty one.
  for (const char* value : {"2305843009213693952", "4294967296"}) {
    EnvGuard guard("RFTC_CPA_BATCH", value);
    EXPECT_EQ(analysis::CpaEngine::default_batch_size(),
              std::stoull(value));
    EXPECT_THROW(analysis::CpaEngine(8, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15}),
                 std::invalid_argument)
        << value;
  }
}

// ------------------------------------------------- checkpoints_from_env --

TEST(CheckpointsEnv, UnsetYieldsLogSpacedDefault) {
  EnvGuard guard("RFTC_OBS_CHECKPOINTS", nullptr);
  EXPECT_EQ(obs::checkpoints_from_env(1000), obs::log_spaced_checkpoints(1000));
}

TEST(CheckpointsEnv, ExplicitListIsParsed) {
  EnvGuard guard("RFTC_OBS_CHECKPOINTS", "10,50,200");
  EXPECT_EQ(obs::checkpoints_from_env(1000),
            (std::vector<std::size_t>{10, 50, 200, 1000}));
}

TEST(CheckpointsEnv, MalformedSpecFallsBackToLogSpaced) {
  for (const char* bad : {"", "   ", "10,abc", "10;20", "log:", "log:0",
                          "10,,20", "1e3"}) {
    EnvGuard guard("RFTC_OBS_CHECKPOINTS", bad);
    EXPECT_EQ(obs::checkpoints_from_env(500),
              obs::log_spaced_checkpoints(500))
        << "spec: '" << bad << "'";
  }
}

TEST(CheckpointsEnv, OverflowingCountFallsBack) {
  EnvGuard guard("RFTC_OBS_CHECKPOINTS", "99999999999999999999999999");
  EXPECT_EQ(obs::checkpoints_from_env(500), obs::log_spaced_checkpoints(500));
}

TEST(CheckpointsEnv, LogSpecOverridesDensity) {
  EnvGuard guard("RFTC_OBS_CHECKPOINTS", "log:2");
  EXPECT_EQ(obs::checkpoints_from_env(1000),
            obs::log_spaced_checkpoints(1000, 2));
}

// ------------------------------------------------------------ pbt knobs --

TEST(PbtConfigEnv, DefaultsWhenUnset) {
  EnvGuard cases("RFTC_PBT_CASES", nullptr);
  EnvGuard seed("RFTC_PBT_SEED", nullptr);
  const pbt::Config cfg = pbt::Config::from_env(0xABCD, 120);
  EXPECT_EQ(cfg.cases, 120u);
  EXPECT_EQ(cfg.seed, 0xABCDu);
}

TEST(PbtConfigEnv, EnvOverridesBoth) {
  EnvGuard cases("RFTC_PBT_CASES", "17");
  EnvGuard seed("RFTC_PBT_SEED", "0x3f2a");
  const pbt::Config cfg = pbt::Config::from_env(0xABCD, 120);
  EXPECT_EQ(cfg.cases, 17u);
  EXPECT_EQ(cfg.seed, 0x3f2au);
}

TEST(PbtConfigEnv, MalformedKnobsFallBack) {
  EnvGuard cases("RFTC_PBT_CASES", "0");     // zero cases is meaningless
  EnvGuard seed("RFTC_PBT_SEED", "1 seed");  // trailing junk
  const pbt::Config cfg = pbt::Config::from_env(0xABCD, 120);
  EXPECT_EQ(cfg.cases, 120u);
  EXPECT_EQ(cfg.seed, 0xABCDu);
}

}  // namespace
}  // namespace rftc
