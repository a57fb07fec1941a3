// Post-mortem bundles: phase introspection accessors, direct bundle writes,
// and the real crash path — a forked child raising SIGSEGV inside a named
// PhaseScope whose parent then parses the bundle the handler wrote.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/postmortem.hpp"
#include "scratch.hpp"

namespace rftc::obs {
namespace {

json::Value parse_bundle(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream body;
  body << in.rdbuf();
  return json::parse(body.str());
}

TEST(PhaseIntrospection, CurrentPhaseTracksInnermostScope) {
  EXPECT_EQ(current_phase(), nullptr);
  {
    PhaseScope outer(kPhaseCapture);
    EXPECT_STREQ(current_phase(), kPhaseCapture);
    {
      PhaseScope inner(kPhaseDtw);
      EXPECT_STREQ(current_phase(), kPhaseDtw);
    }
    EXPECT_STREQ(current_phase(), kPhaseCapture);
  }
  EXPECT_EQ(current_phase(), nullptr);
  // The process-wide fallback remembers the most recent entry.
  EXPECT_STREQ(process_phase(), kPhaseCapture);
}

TEST(PhaseIntrospection, PhaseStackIsOutermostFirstAndBounded) {
  const char* stack[4];
  EXPECT_EQ(current_phase_stack(stack, 4), 0);
  PhaseScope a(kPhaseCapture);
  PhaseScope b(kPhaseStoreIo);
  PhaseScope c(kPhaseDtw);
  ASSERT_EQ(current_phase_stack(stack, 4), 3);
  EXPECT_STREQ(stack[0], kPhaseCapture);
  EXPECT_STREQ(stack[1], kPhaseStoreIo);
  EXPECT_STREQ(stack[2], kPhaseDtw);
  // When truncating, the innermost scopes survive.
  ASSERT_EQ(current_phase_stack(stack, 2), 2);
  EXPECT_STREQ(stack[0], kPhaseStoreIo);
  EXPECT_STREQ(stack[1], kPhaseDtw);
}

TEST(Postmortem, ArmResolvesPathAndDisarms) {
  EXPECT_FALSE(write_postmortem("unarmed", 0, nullptr));
  const std::string path = test::scratch_path("arm");
  ASSERT_TRUE(arm_postmortem(path));
  EXPECT_TRUE(postmortem_armed());
  EXPECT_EQ(postmortem_path(), path);
  disarm_postmortem();
  EXPECT_FALSE(postmortem_armed());
  EXPECT_EQ(postmortem_path(), "");
  EXPECT_FALSE(write_postmortem("disarmed", 0, nullptr));
}

TEST(Postmortem, WriteBundleContainsProcessState) {
  const std::string path = test::scratch_path("direct");
  ASSERT_TRUE(arm_postmortem(path));
  Registry::global().counter("test.postmortem.bump").inc(7);
  log::configure(log::parse_spec("debug"));
  log::set_stderr_sink(false);
  log::debug("test", "pre-dump marker");
  {
    PhaseScope scope(kPhaseCapture);
    // Calling write_postmortem() directly (rather than via
    // notify_fault_recovery_exhausted) keeps this test independent of the
    // once-per-process notify flag that other tests may consume first.
    ASSERT_TRUE(write_postmortem("test-reason", 0, "unit test"));
  }
  log::set_stderr_sink(true);
  disarm_postmortem();

  const json::Value doc = parse_bundle(path);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("postmortem_schema")->num, kPostmortemSchema);
  EXPECT_EQ(doc.find("reason")->str, "test-reason");
  EXPECT_EQ(doc.find("signal")->num, 0.0);
  EXPECT_EQ(doc.find("detail")->str, "unit test");
  EXPECT_EQ(doc.find("active_phase")->str, kPhaseCapture);
  EXPECT_GT(doc.find("ts_ns")->num, 0.0);
  const json::Value* prov = doc.find("provenance");
  ASSERT_NE(prov, nullptr);
  EXPECT_TRUE(prov->is_object());
  const json::Value* tracer = doc.find("tracer");
  ASSERT_NE(tracer, nullptr);
  EXPECT_NE(tracer->find("recorded"), nullptr);
  EXPECT_NE(tracer->find("dropped"), nullptr);
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("test.postmortem.bump")->num, 7.0);
  const json::Value* fr = doc.find("flight_recorder");
  ASSERT_NE(fr, nullptr);
  ASSERT_TRUE(fr->is_array());
  bool saw_marker = false;
  for (const json::Value& rec : fr->array)
    if (rec.find("msg") != nullptr &&
        rec.find("msg")->str == "pre-dump marker")
      saw_marker = true;
  EXPECT_TRUE(saw_marker);
  std::filesystem::remove(path);
}

TEST(Postmortem, SecondWriteOverwritesFirst) {
  const std::string path = test::scratch_path("overwrite");
  ASSERT_TRUE(arm_postmortem(path));
  ASSERT_TRUE(write_postmortem("first", 0, nullptr));
  ASSERT_TRUE(write_postmortem("second", 0, nullptr));
  disarm_postmortem();
  EXPECT_EQ(parse_bundle(path).find("reason")->str, "second");
  std::filesystem::remove(path);
}

// The death test proper: the child takes a real SIGSEGV inside a named
// PhaseScope and the async-signal-safe handler must leave behind a bundle
// the parent can parse and attribute.
TEST(Postmortem, ForkedSigsegvProducesBundleNamingThePhase) {
  const std::string path = test::scratch_path("sigsegv");
  // Arm in the parent so singleton construction, path resolution and
  // provenance serialization happen before fork(); the child inherits the
  // handlers and the pre-reserved buffers.
  ASSERT_TRUE(arm_postmortem(path));
  log::configure(log::parse_spec("debug"));
  log::set_stderr_sink(false);
  log::debug("test", "before crash");
  { PhaseScope warm(kPhaseReport); }  // warm PerfCounters pre-fork

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die inside a named scope.  _exit on any unexpected survival
    // so gtest bookkeeping never runs twice.
    PhaseScope scope(kPhaseDtw);
    ::raise(SIGSEGV);
    _exit(97);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  log::set_stderr_sink(true);
  disarm_postmortem();
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const json::Value doc = parse_bundle(path);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("postmortem_schema")->num, kPostmortemSchema);
  EXPECT_EQ(doc.find("reason")->str, "SIGSEGV");
  EXPECT_EQ(doc.find("signal")->num, SIGSEGV);
  EXPECT_EQ(doc.find("active_phase")->str, kPhaseDtw);
  const json::Value* stack = doc.find("phase_stack");
  ASSERT_NE(stack, nullptr);
  ASSERT_TRUE(stack->is_array());
  bool stack_names_phase = false;
  for (const json::Value& entry : stack->array)
    if (entry.str == kPhaseDtw) stack_names_phase = true;
  EXPECT_TRUE(stack_names_phase);
  const json::Value* fr = doc.find("flight_recorder");
  ASSERT_NE(fr, nullptr);
  bool saw_marker = false;
  for (const json::Value& rec : fr->array)
    if (rec.find("msg") != nullptr &&
        rec.find("msg")->str == "before crash")
      saw_marker = true;
  EXPECT_TRUE(saw_marker);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rftc::obs
