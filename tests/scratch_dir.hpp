// Per-process unique scratch directories for suites that attach a disk tier.
//
// ctest -j runs every test (and every parameterized instance) as its own
// process, so two processes handed the same fixed directory name would
// remove and refill each other's files. A ScratchDir is mkdtemp'd under the
// working directory (ctest runs inside the build tree, so nothing leaks
// outside it) and removed, contents and all, when it goes out of scope. It
// is a std::filesystem::path, so call sites use it as one.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace privid::testutil {

class ScratchDir : public std::filesystem::path {
 public:
  explicit ScratchDir(const std::string& prefix) : path(make(prefix)) {}
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(*this, ignored);
  }

 private:
  static std::filesystem::path make(const std::string& prefix) {
    std::string name =
        (std::filesystem::current_path() / (prefix + "_XXXXXX")).string();
    if (mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + name);
    }
    return name;
  }
};

}  // namespace privid::testutil
