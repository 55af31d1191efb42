// SolveReport ↔ JSON (core/report_json.hpp) and the util::Json document type
// underneath it. Contracts:
//   * round trip is lossless — every double returns bit-identical (including
//     NaN regrets / best objectives via the null mapping) and quantized
//     profiles survive;
//   * the serialized form is stable — a golden file in tests/data/ catches
//     accidental schema or formatting drift (the serving cache's
//     byte-identical-replay guarantee rides on deterministic rendering);
//   * the parser rejects malformed documents with exact offsets and the
//     report deserializer rejects schema violations.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <utility>

#include "core/report_json.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "util/json.hpp"

namespace cnash::core {
namespace {

bool same_bits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  // All NaNs compare equal here: JSON null cannot carry a payload, so the
  // round trip guarantees "a NaN", not a specific one.
  if (std::isnan(a) && std::isnan(b)) return true;
  return ba == bb;
}

/// The hand-built report behind the golden file: dyadic values (exact in
/// decimal), one sample with a quantized profile, one invalid sample with a
/// NaN regret.
SolveReport golden_report() {
  SolveReport report;
  report.backend = "hardware-sa";
  report.game_name = "golden game";
  SolveSample good;
  good.p = {0.25, 0.75};
  good.q = {1.0, 0.0};
  good.objective = 0.125;
  good.valid = true;
  good.is_nash = true;
  good.regret = 0.0078125;
  good.fallback = true;  // exercises the resilient-path sample flag
  good.profile = game::QuantizedProfile{
      game::QuantizedStrategy(std::vector<std::uint32_t>{1, 3}, 4),
      game::QuantizedStrategy(std::vector<std::uint32_t>{4, 0}, 4)};
  SolveSample bad;
  bad.p = {0.5, 0.5};
  bad.q = {0.5, 0.5};
  bad.objective = 1.5;
  bad.valid = false;
  bad.is_nash = false;
  bad.regret = std::numeric_limits<double>::quiet_NaN();
  report.samples = {good, bad};
  report.nash_count = 1;
  report.valid_count = 1;
  report.best_objective = 0.125;
  report.modeled_time_s = 1.25e-06;
  report.wall_clock_s = 0.03125;
  report.degraded = true;  // exercises the robustness accounting fields
  report.units_total = 4;
  report.units_completed = 3;
  report.fallback_count = 1;
  return report;
}

void expect_reports_equal(const SolveReport& a, const SolveReport& b) {
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.game_name, b.game_name);
  EXPECT_EQ(a.nash_count, b.nash_count);
  EXPECT_EQ(a.valid_count, b.valid_count);
  EXPECT_TRUE(same_bits(a.best_objective, b.best_objective));
  EXPECT_TRUE(same_bits(a.modeled_time_s, b.modeled_time_s));
  EXPECT_TRUE(same_bits(a.wall_clock_s, b.wall_clock_s));
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.units_total, b.units_total);
  EXPECT_EQ(a.units_completed, b.units_completed);
  EXPECT_EQ(a.fallback_count, b.fallback_count);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const SolveSample& sa = a.samples[i];
    const SolveSample& sb = b.samples[i];
    ASSERT_EQ(sa.p.size(), sb.p.size());
    for (std::size_t j = 0; j < sa.p.size(); ++j)
      EXPECT_TRUE(same_bits(sa.p[j], sb.p[j])) << "sample " << i << " p " << j;
    ASSERT_EQ(sa.q.size(), sb.q.size());
    for (std::size_t j = 0; j < sa.q.size(); ++j)
      EXPECT_TRUE(same_bits(sa.q[j], sb.q[j])) << "sample " << i << " q " << j;
    EXPECT_TRUE(same_bits(sa.objective, sb.objective)) << "sample " << i;
    EXPECT_EQ(sa.valid, sb.valid) << "sample " << i;
    EXPECT_EQ(sa.is_nash, sb.is_nash) << "sample " << i;
    EXPECT_TRUE(same_bits(sa.regret, sb.regret)) << "sample " << i;
    EXPECT_EQ(sa.fallback, sb.fallback) << "sample " << i;
    EXPECT_EQ(sa.profile.has_value(), sb.profile.has_value()) << "sample " << i;
    if (sa.profile && sb.profile) {
      EXPECT_EQ(*sa.profile, *sb.profile);
    }
  }
}

TEST(ReportJson, RoundTripIsLossless) {
  const SolveReport report = golden_report();
  const std::string wire = report_to_json(report).dump();
  const SolveReport back = report_from_json(util::Json::parse(wire));
  expect_reports_equal(report, back);
  // Re-serialization is byte-identical (deterministic rendering).
  EXPECT_EQ(report_to_json(back).dump(), wire);
}

TEST(ReportJson, RoundTripsARealSolverReport) {
  SolveRequest req(game::battle_of_sexes());
  req.backend = "hardware-sa";
  req.runs = 4;
  req.seed = 7;
  req.sa.iterations = 400;
  const SolveReport report =
      SolverRegistry::global().at("hardware-sa").solve(req);
  ASSERT_EQ(report.samples.size(), 4u);
  ASSERT_TRUE(report.samples[0].profile.has_value());

  const SolveReport back =
      report_from_json(util::Json::parse(report_to_json(report).dump()));
  expect_reports_equal(report, back);
  // The stable dedup keys (quantized profiles) survive the round trip.
  for (std::size_t i = 0; i < report.samples.size(); ++i)
    EXPECT_EQ(report.samples[i].key(), back.samples[i].key());
}

TEST(ReportJson, GoldenFileStaysStable) {
  const std::string path =
      std::string(CNASH_SOURCE_DIR) + "/tests/data/solve_report_golden.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream text;
  text << in.rdbuf();

  // Serialize the hand-built report: must match the checked-in bytes.
  EXPECT_EQ(report_to_json(golden_report()).pretty() + "\n", text.str())
      << "solve_report JSON schema or formatting drifted; if intentional, "
         "regenerate tests/data/solve_report_golden.json";

  // And the golden bytes parse back into the same report.
  expect_reports_equal(golden_report(),
                       report_from_json(util::Json::parse(text.str())));
}

TEST(ReportJson, RejectsSchemaViolations) {
  const SolveReport report = golden_report();
  util::Json json = report_to_json(report);

  util::Json no_backend = util::Json::parse(json.dump());
  no_backend.set("backend", util::Json::null());
  EXPECT_THROW(report_from_json(no_backend), util::JsonError);

  // Profile ticks that do not sum to the interval count.
  util::Json bad_profile = util::Json::parse(
      R"({"backend":"b","game":"g","nash_count":0,"valid_count":0,
          "best_objective":0,"modeled_time_s":0,"wall_clock_s":0,
          "samples":[{"p":[1.0],"q":[1.0],"objective":0,"valid":true,
                      "is_nash":false,"regret":0,
                      "profile":{"intervals":4,"p":[1],"q":[4]}}]})");
  EXPECT_THROW(report_from_json(bad_profile), util::JsonError);
}

TEST(Json, ParserHandlesEscapesAndNesting) {
  const util::Json v = util::Json::parse(
      R"({"s":"a\"b\\c\ndAé","arr":[1,-2.5e3,true,false,null],"o":{}})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nd" "A" "\xc3\xa9");
  EXPECT_EQ(v.at("arr").size(), 5u);
  EXPECT_EQ(v.at("arr").at(std::size_t{1}).as_number(), -2500.0);
  EXPECT_TRUE(v.at("arr").at(std::size_t{4}).is_null());
  EXPECT_TRUE(v.at("o").is_object());
  // Dump → parse → dump is a fixpoint.
  EXPECT_EQ(util::Json::parse(v.dump()).dump(), v.dump());
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(util::Json::parse(""), util::JsonError);
  EXPECT_THROW(util::Json::parse("{"), util::JsonError);
  EXPECT_THROW(util::Json::parse("{\"a\":1,}"), util::JsonError);
  EXPECT_THROW(util::Json::parse("[1 2]"), util::JsonError);
  EXPECT_THROW(util::Json::parse("nul"), util::JsonError);
  EXPECT_THROW(util::Json::parse("1.2.3"), util::JsonError);
  EXPECT_THROW(util::Json::parse("\"unterminated"), util::JsonError);
  EXPECT_THROW(util::Json::parse("{} trailing"), util::JsonError);
  try {
    util::Json::parse("[true, xyz]");
    FAIL();
  } catch (const util::JsonError& e) {
    EXPECT_EQ(e.offset(), 7u);  // points at the bad token
  }
  // Depth bomb: fails cleanly instead of blowing the stack.
  EXPECT_THROW(util::Json::parse(std::string(5000, '[')), util::JsonError);
}

TEST(Json, NumbersRenderWithRoundTripPrecision) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, -0.0, 12345.0,
                         std::numeric_limits<double>::min()}) {
    const std::string text = util::Json::number(v).dump();
    EXPECT_TRUE(same_bits(util::Json::parse(text).as_number(), v)) << text;
  }
  EXPECT_EQ(util::Json::number(std::nan("")).dump(), "null");
  EXPECT_EQ(util::Json::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
  // The exact bytes: goldens, stored reports and cached responses hold them.
  using limits = std::numeric_limits<double>;
  const std::pair<double, const char*> pinned[] = {
      {0.1, "0.1"},
      {1.0 / 3.0, "0.33333333333333331"},
      {1.0 / 12.0, "0.083333333333333329"},
      {123456.0, "123456"},
      {1234567.0, "1234567"},
      {1e6, "1e+06"},
      {1e-4, "0.0001"},
      {1e-5, "1e-05"},
      {1e21, "1e+21"},
      {9007199254740992.0, "9007199254740992"},  // 2^53
      {-0.0, "-0"},
      {limits::denorm_min(), "4.94066e-324"},
      {limits::min(), "2.2250738585072014e-308"},
      {limits::max(), "1.7976931348623157e+308"},
      {0.35623840099999998, "0.35623840099999998"},
  };
  for (const auto& [v, text] : pinned)
    EXPECT_EQ(util::Json::number(v).dump(), text);
}

/// The number rule util::Json implements, written with the C library: %g
/// when that parses back to the same double, else %.17g.
std::string printf_number(double v) {
  if (!std::isfinite(v)) return "null";
  char shorter[40], full[40];
  std::snprintf(shorter, sizeof shorter, "%g", v);
  std::snprintf(full, sizeof full, "%.17g", v);
  return std::strtod(shorter, nullptr) == v ? shorter : full;
}

TEST(Json, NumbersRenderAsThePrintfRuleDoes) {
  std::mt19937_64 rng(0xC0FFEE);
  std::size_t mismatches = 0;
  auto check = [&](double v) {
    const std::string got = util::Json::number(v).dump();
    const std::string want = printf_number(v);
    if (got != want && ++mismatches <= 10)
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v) << ": got "
                    << got << ", want " << want;
  };
  // Every kind of double: random bit patterns, NaN and infinity included.
  for (int i = 0; i < 100000; ++i) check(std::bit_cast<double>(rng()));
  // What reports hold: profile probabilities k/n (k/12 at the default
  // intervals), tick and sample counts, small objectives and timings.
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t r = rng();
    switch (i % 4) {
      case 0: {
        const std::uint64_t n = 1 + r % 64;
        check(static_cast<double>((r >> 8) % (n + 1)) / static_cast<double>(n));
        break;
      }
      case 1:
        check(static_cast<double>(r % 10000000));
        break;
      case 2:
        check(-static_cast<double>(r % 100000) /
              static_cast<double>(1 + (r >> 32) % 144));
        break;
      default:
        check(static_cast<double>(r >> 11) * 0x1.0p-53 * 10.0);
        break;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace cnash::core
