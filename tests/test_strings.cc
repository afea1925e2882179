// Unit tests for src/base: strings, path helpers, errno names, stats, PRNG.
#include <gtest/gtest.h>

#include "src/base/errno_codes.h"
#include "src/base/prng.h"
#include "src/base/stats.h"
#include "src/base/strings.h"

namespace ia {
namespace {

TEST(Strings, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(Split("a,,c", ',', /*keep_empty=*/true),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_TRUE(Split("", ',').empty());
  EXPECT_EQ(Split("", ',', true), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",,", ',', true), (std::vector<std::string>{"", "", ""}));
}

TEST(Strings, CountFieldsMatchesSplit) {
  for (const std::string_view text :
       {"", ",", ",,", ",a", "a,", ",a,", "a,,b", ",,a,,,b,,", "abc", "a,b,c", "a"}) {
    EXPECT_EQ(CountFields(text, ','), Split(text, ',').size()) << "'" << text << "'";
  }
  EXPECT_EQ(CountFields("", ','), 0U);
  EXPECT_EQ(CountFields(",", ','), 0U);
  EXPECT_EQ(CountFields(",,a,,,b,,", ','), 2U);
  EXPECT_EQ(CountFields("no separator here", ','), 1U);
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> pieces{"usr", "local", "bin"};
  EXPECT_EQ(Join(pieces, "/"), "usr/local/bin");
  EXPECT_EQ(Join({}, "/"), "");
  EXPECT_EQ(Join({"one"}, "/"), "one");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("/usr/bin", "/usr"));
  EXPECT_FALSE(StartsWith("/us", "/usr"));
  EXPECT_TRUE(EndsWith("file.txt", ".txt"));
  EXPECT_FALSE(EndsWith("txt", "file.txt"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(Strings, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%s", std::string(500, 'a').c_str()), std::string(500, 'a'));
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

struct PathCase {
  const char* input;
  const char* clean;
  const char* basename;
  const char* dirname;
};

// Prints the case by its input path, so the parameter's printed form (which
// test discovery folds into the test name) does not depend on load addresses.
void PrintTo(const PathCase& c, std::ostream* os) { *os << "input=" << c.input; }

class PathParamTest : public ::testing::TestWithParam<PathCase> {};

TEST_P(PathParamTest, LexicalOps) {
  const PathCase& c = GetParam();
  EXPECT_EQ(path::LexicallyClean(c.input), c.clean) << c.input;
  EXPECT_EQ(path::Basename(c.input), c.basename) << c.input;
  EXPECT_EQ(path::Dirname(c.input), c.dirname) << c.input;
}

INSTANTIATE_TEST_SUITE_P(
    Paths, PathParamTest,
    ::testing::Values(PathCase{"/a/b/c", "/a/b/c", "c", "/a/b"},
                      PathCase{"/a//b///c", "/a/b/c", "c", "/a//b"},
                      PathCase{"/a/./b/./c", "/a/b/c", "c", "/a/./b/."},
                      PathCase{"a/b", "a/b", "b", "a"},
                      PathCase{"/", "/", "/", "/"},
                      PathCase{"c", "c", "c", "."},
                      PathCase{"/a/", "/a", "a", "/"},
                      PathCase{"./x", "x", "x", "."}));

TEST(Paths, Components) {
  EXPECT_EQ(path::Components("/a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(path::Components("a//b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(path::Components("/").empty());
}

TEST(Paths, JoinPath) {
  EXPECT_EQ(path::JoinPath("/a", "b"), "/a/b");
  EXPECT_EQ(path::JoinPath("/a/", "/b"), "/a/b");
  EXPECT_EQ(path::JoinPath("/a", "/b"), "/a/b");
  EXPECT_EQ(path::JoinPath("", "b"), "b");
  EXPECT_EQ(path::JoinPath("/a", ""), "/a");
}

TEST(Paths, IsAbsolute) {
  EXPECT_TRUE(path::IsAbsolute("/x"));
  EXPECT_FALSE(path::IsAbsolute("x"));
  EXPECT_FALSE(path::IsAbsolute(""));
}

TEST(ErrnoNames, KnownAndUnknown) {
  EXPECT_EQ(ErrnoName(kENoent), "ENOENT");
  EXPECT_EQ(ErrnoName(-kENoent), "ENOENT");
  EXPECT_EQ(ErrnoName(kEPerm), "EPERM");
  EXPECT_EQ(ErrnoName(9999), "EUNKNOWN");
  EXPECT_EQ(ErrnoDescription(kEIsdir), "Is a directory");
  EXPECT_EQ(ErrnoName(0), "OK");
}

TEST(Stats, Moments) {
  RunningStats stats;
  EXPECT_EQ(stats.Mean(), 0.0);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_EQ(stats.Min(), 2.0);
  EXPECT_EQ(stats.Max(), 9.0);
  EXPECT_NEAR(stats.StdDev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(stats.Median(), 4.5);
}

TEST(Stats, PercentSlowdown) {
  EXPECT_DOUBLE_EQ(PercentSlowdown(10.0, 12.0), 20.0);
  EXPECT_DOUBLE_EQ(PercentSlowdown(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(PercentSlowdown(0.0, 5.0), 0.0);  // guarded
}

TEST(Prng, DeterministicAndBounded) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Prng c(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(c.Below(17), 17u);
    const double d = c.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

}  // namespace
}  // namespace ia
