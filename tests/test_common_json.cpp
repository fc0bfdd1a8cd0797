#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <random>
#include <vector>

#include "common/strings.hpp"

namespace rw::json {
namespace {

// Reference for the writer's number rule, spelled with printf and strtod:
// %.15g when it reads back exactly, else %.17g.
std::string reference_double(double v) {
  if (!std::isfinite(v)) return "null";
  char s17[64];
  char s15[64];
  std::snprintf(s17, sizeof s17, "%.17g", v);
  std::snprintf(s15, sizeof s15, "%.15g", v);
  return std::strtod(s15, nullptr) == v ? s15 : s17;
}

std::string reference_fixed6(double v) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

// Reference escaping: one push per byte, printf for control characters.
std::string reference_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string write_double(double v) {
  Writer w(/*pretty=*/false);
  w.value(v);
  return w.str();
}

// Fixed-seed doubles of every shape the exporters and benches emit.
std::vector<double> sample_doubles() {
  std::mt19937_64 rng(0x5eed2009);
  std::vector<double> out;
  // Finite random bit patterns: every exponent, subnormals included.
  while (out.size() < 100000) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) out.push_back(v);
  }
  // Picosecond timestamps and durations scaled to microseconds.
  for (int i = 0; i < 50000; ++i)
    out.push_back(static_cast<double>(rng() >> (i % 40)) * 1e-6);
  // Ratios of counters (utilizations, speedups).
  for (int i = 0; i < 25000; ++i) {
    const std::uint64_t a = rng() % 1000000;
    const std::uint64_t b = rng() % 1000000 + 1;
    out.push_back(static_cast<double>(a) / static_cast<double>(b));
  }
  // Integers, exact up to 2^53 and beyond.
  for (int i = 0; i < 25000; ++i) {
    const auto n = static_cast<std::int64_t>(rng() >> (i % 64));
    out.push_back(static_cast<double>(i % 2 == 0 ? n : -n));
  }
  // %g switches between fixed and exponent form around these, and the
  // 15/17-digit choice flips near powers of ten.
  for (const double p : {1e-5, 1e-4, 1e15, 1e16, 1e17, 1e21}) {
    double lo = p;
    double hi = p;
    for (int i = 0; i < 64; ++i) {
      for (const double v : {lo, hi, -lo, -hi}) out.push_back(v);
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, HUGE_VAL);
    }
  }
  for (const double v : {0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1e-6, 123456.789})
    out.push_back(v);
  return out;
}

TEST(JsonWriter, DoublesMatchThePrintfRule) {
  const std::vector<double> values = sample_doubles();
  ASSERT_GE(values.size(), 200000u);
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = reference_double(v);
    const std::string got = write_double(v);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "bits " << std::hex
                    << std::bit_cast<std::uint64_t>(v) << ": wrote " << got
                    << ", printf rule " << want;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonWriter, CsvFixedSixMatchesPrintf) {
  std::vector<double> values = sample_doubles();
  for (const double v : {DBL_MAX, -DBL_MAX, DBL_MIN, 5e-324, 0.0000005,
                         0.0000015, 0.9999995, 2.5e-7})
    values.push_back(v);
  std::size_t mismatches = 0;
  for (const double v : values) {
    std::string got;
    append_chars(got, v, std::chars_format::fixed, 6);
    const std::string want = reference_fixed6(v);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "bits " << std::hex
                    << std::bit_cast<std::uint64_t>(v) << ": wrote " << got
                    << ", printf " << want;
  }
  EXPECT_EQ(mismatches, 0u);
}

// Re-reading the 15-digit form of these is out of range for strtod
// (ERANGE): each must still emit JSON that reads back to itself.
TEST(JsonWriter, ExtremeDoublesRoundTripWithoutThrowing) {
  for (const double v : {5e-324, 1e-310, DBL_MIN, DBL_MAX, -DBL_MAX,
                         -5e-324}) {
    std::string doc;
    ASSERT_NO_THROW(doc = write_double(v)) << v;
    const auto parsed = parse(doc);
    ASSERT_TRUE(parsed.ok()) << doc;
    ASSERT_TRUE(parsed.value().is_number()) << doc;
    EXPECT_EQ(parsed.value().number(), v) << doc;
  }
  EXPECT_EQ(write_double(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(write_double(5e-324), "4.94065645841247e-324");
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  EXPECT_EQ(write_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(write_double(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(write_double(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriter, IntegerExtremes) {
  Writer w(/*pretty=*/false);
  w.begin_array();
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::uint64_t{0});
  w.end_array();
  EXPECT_EQ(w.str(), "[18446744073709551615,0]");
  const auto parsed = parse(
      "[18446744073709551615,-9223372036854775808,9223372036854775807,0,-1]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().at(0).u64(), UINT64_MAX);
  EXPECT_EQ(parsed.value().at(1).raw_number(), "-9223372036854775808");
}

// Joins pieces with append; GCC 12's -Wrestrict misfires on a chain of
// operator+ over a short std::string.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view p : parts) out += p;
  return out;
}

TEST(JsonWriter, EscapesEveryByteAloneAndInRuns) {
  for (int b = 0; b < 256; ++b) {
    const std::string byte(1, static_cast<char>(b));
    for (const std::string& s : {byte, cat({"abc", byte}), cat({byte, "xyz"}),
                                 cat({"ab", byte, byte, "cd"})}) {
      Writer w(/*pretty=*/false);
      w.begin_object();
      w.key(s).value(s);
      w.end_object();
      const std::string e = reference_escape(s);
      EXPECT_EQ(w.str(), cat({"{\"", e, "\":\"", e, "\"}"})) << "byte " << b;
      // The parser reads every escape back to the original bytes.
      const auto parsed = parse(w.str());
      ASSERT_TRUE(parsed.ok()) << "byte " << b;
      EXPECT_EQ(parsed.value().get_string(s, "<missing>"), s) << "byte " << b;
    }
  }
}

TEST(JsonWriter, EscapesAllBytesInOneString) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  Writer w(/*pretty=*/false);
  w.value(all);
  EXPECT_EQ(w.str(), cat({"\"", reference_escape(all), "\""}));
}

TEST(JsonWriter, PrettyLayoutIsStable) {
  Writer w;
  w.begin_object();
  w.key("a\"b").value(1.5);
  w.key("list").begin_array();
  w.value(true).value("x");
  w.end_array();
  w.key("empty").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"a\\\"b\": 1.5,\n  \"list\": [\n    true,\n"
            "    \"x\"\n  ],\n  \"empty\": {}\n}");
}

}  // namespace
}  // namespace rw::json
