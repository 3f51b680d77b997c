// Per-process scratch directories for tests that write files.
//
// A fixed name under the temp directory is shared by every run of the
// tests on one machine, so two concurrent runs delete each other's files.
// The process id in the path keeps them apart; the process's whole tree
// is removed when it exits normally.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace msys::testing {

/// temp_directory_path()/msys-test-<pid>/<suite>/<test> for the running
/// test.  The directory is not created.
inline std::filesystem::path scratch_dir() {
  struct ProcessRoot {
    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("msys-test-" + std::to_string(::getpid()));
    ~ProcessRoot() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ProcessRoot root;
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return root.path / test->test_suite_name() / test->name();
}

}  // namespace msys::testing
