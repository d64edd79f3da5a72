// Tests for the typed environment-variable helper (src/common/env.h):
// parsing, fallback-on-malformed, range clamping, and the one-shot warning
// counter. Each test uses a unique variable name so tests can run in any
// order without cross-talk.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/common/env.h"

namespace flb::common {
namespace {

class ScopedSetenv {
 public:
  ScopedSetenv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedSetenv() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

TEST(EnvTest, StrFallsBackWhenUnset) {
  ::unsetenv("FLB_TEST_STR_UNSET");
  EXPECT_EQ(Env::Str("FLB_TEST_STR_UNSET"), "");
  EXPECT_EQ(Env::Str("FLB_TEST_STR_UNSET", "fallback"), "fallback");
  EXPECT_FALSE(Env::Has("FLB_TEST_STR_UNSET"));
}

TEST(EnvTest, StrReadsValue) {
  ScopedSetenv guard("FLB_TEST_STR_SET", "hello");
  EXPECT_EQ(Env::Str("FLB_TEST_STR_SET", "fallback"), "hello");
  EXPECT_TRUE(Env::Has("FLB_TEST_STR_SET"));
}

TEST(EnvTest, FlagSemantics) {
  ::unsetenv("FLB_TEST_FLAG_UNSET");
  EXPECT_FALSE(Env::Flag("FLB_TEST_FLAG_UNSET"));
  EXPECT_TRUE(Env::Flag("FLB_TEST_FLAG_UNSET", true));
  {
    ScopedSetenv guard("FLB_TEST_FLAG", "1");
    EXPECT_TRUE(Env::Flag("FLB_TEST_FLAG"));
  }
  for (const char* falsy : {"0", "false", "FALSE", "off", "no", ""}) {
    ScopedSetenv guard("FLB_TEST_FLAG_FALSY", falsy);
    EXPECT_FALSE(Env::Flag("FLB_TEST_FLAG_FALSY", true)) << falsy;
  }
  {
    ScopedSetenv guard("FLB_TEST_FLAG_TRUTHY", "yes");
    EXPECT_TRUE(Env::Flag("FLB_TEST_FLAG_TRUTHY"));
  }
}

TEST(EnvTest, IntParsesAndClamps) {
  {
    ScopedSetenv guard("FLB_TEST_INT", "42");
    EXPECT_EQ(Env::Int("FLB_TEST_INT", 7), 42);
  }
  ::unsetenv("FLB_TEST_INT_UNSET");
  EXPECT_EQ(Env::Int("FLB_TEST_INT_UNSET", 7), 7);
  {
    // Malformed values warn and fall back, never crash or half-parse.
    ScopedSetenv guard("FLB_TEST_INT_BAD", "4x2");
    EXPECT_EQ(Env::Int("FLB_TEST_INT_BAD", 7), 7);
  }
  {
    ScopedSetenv guard("FLB_TEST_INT_RANGE", "1000000");
    EXPECT_EQ(Env::Int("FLB_TEST_INT_RANGE", 0, 0, 65535), 65535);
  }
  {
    ScopedSetenv guard("FLB_TEST_INT_LOW", "-5");
    EXPECT_EQ(Env::Int("FLB_TEST_INT_LOW", 1, 0, 100), 0);
  }
}

TEST(EnvTest, ParseIntIsStrict) {
  int value = 0;
  EXPECT_TRUE(Env::ParseInt("123", &value));
  EXPECT_EQ(value, 123);
  EXPECT_TRUE(Env::ParseInt("-7", &value));
  EXPECT_EQ(value, -7);
  EXPECT_FALSE(Env::ParseInt("", &value));
  EXPECT_FALSE(Env::ParseInt("12abc", &value));
  EXPECT_FALSE(Env::ParseInt("abc", &value));
  EXPECT_FALSE(Env::ParseInt("99999999999999999999", &value));
}

TEST(EnvTest, MalformedValuesCountWarnings) {
  testing::internal::CaptureStderr();
  {
    ScopedSetenv guard("FLB_TEST_WARN_ONCE", "zzz");
    EXPECT_EQ(Env::Int("FLB_TEST_WARN_ONCE", 3), 3);
    // The same (name, value) pair warns only once.
    EXPECT_EQ(Env::Int("FLB_TEST_WARN_ONCE", 3), 3);
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[env] WARN: FLB_TEST_WARN_ONCE='zzz' is not an integer; using "
            "3\n");
}

}  // namespace
}  // namespace flb::common
