#pragma once
// Per-test scratch directories. gtest_discover_tests runs every test as its
// own process, and ctest -j runs those concurrently, so a fixture that
// shares one fixed temp path lets one test's cleanup delete another test's
// files mid-run. unique_test_dir() keys the directory on the running test's
// suite and name plus the process id, so no two live tests share it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace pulse::testutil {

/// Creates and returns an empty <temp>/pulse_<suite>.<test>_<pid> directory.
inline std::filesystem::path unique_test_dir() {
  const ::testing::TestInfo* const info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "pulse_";
  name += info != nullptr ? std::string(info->test_suite_name()) + "." + info->name() : "test";
  name += '_';
  name += std::to_string(::getpid());
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized test names
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A unique_test_dir() removed again when the object goes out of scope.
class TempDir {
 public:
  TempDir() : path_(unique_test_dir()) {}
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace pulse::testutil
