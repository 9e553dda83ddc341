// TempDir: a fresh directory under the system temp directory, created by
// mkdtemp(3) and removed with everything in it on destruction. Every
// instance gets its own name, so fixtures never share (or delete) each
// other's files when ctest runs tests in parallel.
#pragma once

#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace reldev::test {

class TempDir {
 public:
  /// Creates <temp>/<prefix>-XXXXXX. Throws std::system_error on failure,
  /// which gtest reports as a failed test.
  explicit TempDir(const std::string& prefix = "reldev") {
    std::string name =
        (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX"))
            .string();
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(), "mkdtemp");
    }
    path_ = name;
  }

  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace reldev::test
