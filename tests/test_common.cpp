// Unit tests for the deterministic PRNG, the string helpers, the strict
// number parsers and the JSON encoder.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace psmgen::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniformReal();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
  // Parameterized form.
  Rng rng2(14);
  double s = 0.0;
  for (int i = 0; i < kN; ++i) s += rng2.gaussian(5.0, 2.0);
  EXPECT_NEAR(s / kN, 5.0, 0.1);
}

TEST(Rng, ChanceFrequency) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BitsDensity) {
  Rng rng(17);
  const BitVector v = rng.bits(4096);
  EXPECT_EQ(v.width(), 4096u);
  EXPECT_NEAR(static_cast<double>(v.popcount()), 2048.0, 150.0);
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  // Whitespace is exactly what std::isspace accepts in the "C" locale.
  for (int c = 0; c < 256; ++c) {
    const std::string s{'x', static_cast<char>(c), 'x'};
    const bool space = std::isspace(c) != 0;
    EXPECT_EQ(trim(s.substr(1)), space ? "x" : s.substr(1)) << c;
    EXPECT_EQ(trim(s.substr(0, 2)), space ? "x" : s.substr(0, 2)) << c;
  }
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(startsWith("ks_subkey", "ks_"));
  EXPECT_FALSE(startsWith("k", "ks_"));
}

TEST(Strings, FormatAndPad) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(padLeft("x", 3), "  x");
  EXPECT_EQ(padRight("x", 3), "x  ");
  EXPECT_EQ(padLeft("xyz", 2), "xyz");
}

TEST(Strings, ErrnoMessageMatchesStrerror) {
  // Single-threaded, so std::strerror is a safe reference here; the
  // point of errnoMessage is that it stays correct *concurrently*.
  for (int errnum : {EINVAL, ENOENT, EAGAIN, 0}) {
    EXPECT_EQ(errnoMessage(errnum), std::string(std::strerror(errnum)))
        << "errnum " << errnum;
  }
  EXPECT_FALSE(errnoMessage(EINVAL).empty());
}

TEST(Strings, ErrnoMessageConcurrentCallsDoNotInterfere) {
  // Hammer two distinct errnos from two threads; with std::strerror's
  // shared static buffer this interleaving can yield torn text. Each
  // thread must always see exactly its own message.
  const std::string inval = errnoMessage(EINVAL);
  const std::string noent = errnoMessage(ENOENT);
  ASSERT_NE(inval, noent);
  std::atomic<bool> mismatch{false};
  auto hammer = [&](int errnum, const std::string& expected) {
    for (int i = 0; i < 5000 && !mismatch.load(); ++i) {
      if (errnoMessage(errnum) != expected) mismatch.store(true);
    }
  };
  std::thread a(hammer, EINVAL, inval);
  std::thread b(hammer, ENOENT, noent);
  a.join();
  b.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(Strings, ParseIntegerAcceptsOnlyWholeInRangeIntegers) {
  EXPECT_EQ(parseInteger("0", 0, 10), 0);
  EXPECT_EQ(parseInteger("10", 0, 10), 10);
  EXPECT_EQ(parseInteger("-3", -5, 5), -3);
  EXPECT_EQ(parseInteger("9223372036854775807", 0,
                         std::numeric_limits<long long>::max()),
            std::numeric_limits<long long>::max());
  for (const char* bad : {"", " 1", "1 ", "+1", "abc", "12abc", "1.0", "0x10",
                          "-", "99999999999999999999"}) {
    EXPECT_FALSE(parseInteger(bad, std::numeric_limits<long long>::min(),
                              std::numeric_limits<long long>::max()))
        << '"' << bad << '"';
  }
  // Out of range on either side.
  EXPECT_FALSE(parseInteger("-1", 0, 1024));
  EXPECT_FALSE(parseInteger("1025", 0, 1024));
  EXPECT_FALSE(parseInteger("65536", 0, 65535));
}

TEST(Strings, ParseRealAcceptsOnlyWholeInRangeNumbers) {
  EXPECT_EQ(parseReal("2.5", 1.0, 30.0), 2.5);
  EXPECT_EQ(parseReal("1", 1.0, 30.0), 1.0);
  EXPECT_EQ(parseReal("30", 1.0, 30.0), 30.0);
  EXPECT_EQ(parseReal("1e-9", 0.0, 1.0), 1e-9);
  EXPECT_EQ(parseReal("-0.5", -1.0, 1.0), -0.5);
  const double max = std::numeric_limits<double>::max();
  for (const char* bad : {"", " 1", "1 ", "+1", "abc", "2.5x", "nan", "inf",
                          "-inf", "1e999", "0x1p3"}) {
    EXPECT_FALSE(parseReal(bad, -max, max)) << '"' << bad << '"';
  }
  EXPECT_FALSE(parseReal("0.99", 1.0, 30.0));
  EXPECT_FALSE(parseReal("30.01", 1.0, 30.0));
  EXPECT_FALSE(parseReal("0", std::numeric_limits<double>::denorm_min(), max));
}

TEST(Json, StringEscapesQuotesBackslashesAndEveryControlByte) {
  std::string control;
  for (int c = 0x00; c <= 0x1F; ++c) control += static_cast<char>(c);
  std::string expected = "\"";
  for (int c = 0x00; c <= 0x1F; ++c) {
    switch (c) {
      case '\n': expected += "\\n"; break;
      case '\r': expected += "\\r"; break;
      case '\t': expected += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        expected += buf;
      }
    }
  }
  expected += "\"";
  std::string out;
  appendJsonString(out, control);
  EXPECT_EQ(out, expected);

  out.clear();
  appendJsonString(out, "say \"hi\" \\ bye");
  EXPECT_EQ(out, "\"say \\\"hi\\\" \\\\ bye\"");

  // Multi-byte UTF-8 (a 2-byte, a 3-byte and a 4-byte sequence) and
  // DEL pass through untouched.
  const std::string utf8 = "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x94\x8B\x7F";
  out.clear();
  appendJsonString(out, utf8);
  EXPECT_EQ(out, '"' + utf8 + '"');
}

TEST(Json, NumbersUseNineSignificantDigitsAndZeroForNonFinite) {
  std::string out;
  appendJsonNumber(out, 0.1);
  EXPECT_EQ(out, "0.1");
  out.clear();
  appendJsonNumber(out, 1.0 / 3.0);
  EXPECT_EQ(out, "0.333333333");
  out.clear();
  appendJsonNumber(out, 1e21);
  EXPECT_EQ(out, "1e+21");
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    out.clear();
    appendJsonNumber(out, v);
    EXPECT_EQ(out, "0");
  }
}

}  // namespace
}  // namespace psmgen::common
