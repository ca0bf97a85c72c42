//===- tests/test_helpers.h - Shared test utilities ------------*- C++ -*-===//

#ifndef CMARKS_TESTS_TEST_HELPERS_H
#define CMARKS_TESTS_TEST_HELPERS_H

#include "api/scheme.h"
#include "reader/reader.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

namespace cmk {

/// Evaluates \p Src and expects the written result \p Expected.
inline void expectEval(SchemeEngine &E, const std::string &Src,
                       const std::string &Expected) {
  std::string Got = E.evalToString(Src);
  EXPECT_TRUE(E.ok()) << "eval failed: " << E.lastError() << "\n  src: "
                      << Src;
  EXPECT_EQ(Got, Expected) << "  src: " << Src;
}

/// Evaluates \p Src and expects a runtime or compile error whose message
/// contains \p Fragment.
inline void expectError(SchemeEngine &E, const std::string &Src,
                        const std::string &Fragment) {
  E.eval(Src);
  ASSERT_FALSE(E.ok()) << "expected an error from: " << Src;
  EXPECT_NE(E.lastError().find(Fragment), std::string::npos)
      << "error was: " << E.lastError();
}

/// Reads the first datum in \p Src (for compiler-level tests).
inline Value readOne(SchemeEngine &E, const std::string &Src) {
  std::vector<Value> Forms = readAllFromString(E.heap(), Src);
  EXPECT_EQ(Forms.size(), 1u);
  return Forms.empty() ? Value::undefined() : Forms[0];
}

/// Sets environment variable \p Name to \p Value for the guard's
/// lifetime, then restores its previous value (or unsets it).
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    setenv(Name, Value, 1);
  }
  ~ScopedEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), 1);
    else
      unsetenv(Name);
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  const char *Name;
  std::optional<std::string> Saved;
};

} // namespace cmk

#endif // CMARKS_TESTS_TEST_HELPERS_H
