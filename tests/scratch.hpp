// Hermetic scratch paths for tests that touch the filesystem.
//
// ctest runs every gtest case in its own process, many at once, so a fixed
// name under the temp directory is shared by every case that uses it and
// one case's cleanup deletes another's files.  Every path here lives under
// a directory unique to the process (<tmp>/rftc-test-<pid>), which is
// removed when the process exits:
//
//   scratch_path(name)         <root>/<Suite.Test>/<name>, unique per test;
//                              the test's directory is removed when the
//                              test ends.
//   shared_scratch_path(name)  <root>/shared/<name>, for fixtures built once
//                              per process and used by several tests.
//
// Both remove any previous entry at the returned path, so a test can ask
// for the same name twice to start over.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace rftc::test {

namespace scratch_detail {

namespace fs = std::filesystem;

/// <tmp>/rftc-test-<pid>.
inline fs::path root_path() {
  return fs::temp_directory_path() /
         ("rftc-test-" + std::to_string(::getpid()));
}

/// root_path(), created on first use and removed when the creating process
/// exits (a forked child that exits normally leaves it alone).  A leftover
/// from a dead process with the same pid is cleared first.
inline const fs::path& process_root() {
  struct Root {
    pid_t owner = ::getpid();
    fs::path path = root_path();
    Root() {
      fs::remove_all(path);
      fs::create_directories(path);
    }
    ~Root() {
      std::error_code ec;
      if (::getpid() == owner) fs::remove_all(path, ec);
    }
  };
  static const Root root;
  return root.path;
}

/// Directory name of test `info` ("Suite.Test", '/' of parameterized
/// names replaced), or "no-test" for nullptr (outside any test).
inline std::string test_dir_name(const ::testing::TestInfo* info) {
  if (info == nullptr) return "no-test";
  std::string name =
      std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name)
    if (c == '/') c = '_';
  return name;
}

/// Removes the finished test's directory.
class Cleanup : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::error_code ec;
    fs::remove_all(root_path() / test_dir_name(&info), ec);
  }
};

inline const bool kCleanupRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new Cleanup);
  return true;
}();

inline std::string fresh(const fs::path& dir, const std::string& name) {
  fs::create_directories(dir);
  const fs::path p = dir / name;
  fs::remove_all(p);
  return p.string();
}

}  // namespace scratch_detail

/// Path `name` in the running test's own scratch directory.
inline std::string scratch_path(const std::string& name) {
  return scratch_detail::fresh(
      scratch_detail::process_root() /
          scratch_detail::test_dir_name(
              ::testing::UnitTest::GetInstance()->current_test_info()),
      name);
}

/// Path `name` in the process-wide scratch directory, for fixtures that
/// outlive one test.
inline std::string shared_scratch_path(const std::string& name) {
  return scratch_detail::fresh(scratch_detail::process_root() / "shared",
                               name);
}

}  // namespace rftc::test
