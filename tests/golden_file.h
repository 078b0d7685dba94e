// Byte comparison of a test's output against a checked-in file under
// tests/golden/. With CELLFI_UPDATE_GOLDEN=1 in the environment the file is
// rewritten from the actual output instead (the test then passes).
// Needs CELLFI_SOURCE_DIR defined to the source tree (tests/CMakeLists.txt).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace cellfi {

/// Compares `actual` plus a trailing newline with tests/golden/<name>.
inline void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(CELLFI_SOURCE_DIR) + "/tests/golden/" + name;
  const std::string text = actual + "\n";
  if (std::getenv("CELLFI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << text;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing " << path
                            << " — regenerate with CELLFI_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), text)
      << path << " drifted; if the change is intentional regenerate with "
      << "CELLFI_UPDATE_GOLDEN=1";
}

}  // namespace cellfi
