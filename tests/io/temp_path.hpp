// Scratch file names for the io test fixtures.
//
// gtest_discover_tests runs every test case as its own ctest process, so
// under `ctest -j` the cases of one fixture run at the same time and a
// fixed file name lets them overwrite each other's file. Each name here
// carries the running test's suite and case name plus the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace lbmib {

/// TempDir() + "<stem>_<Suite>.<Case>_<pid><ext>". Call it while a test
/// runs; a fixture's member initializer does.
inline std::string test_temp_path(const std::string& stem,
                                  const std::string& ext) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + stem + "_" + name + "_" +
         std::to_string(::getpid()) + ext;
}

}  // namespace lbmib
