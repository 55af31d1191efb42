#include <gtest/gtest.h>

#include <string>

#include "game/games.hpp"
#include "game/parse.hpp"
#include "game/verify.hpp"

namespace cnash::game {
namespace {

constexpr const char* kBos = R"(# Battle of the Sexes
name: BoS
M:
2 0
0 1
N:
1 0
0 2
)";

TEST(Parse, ParsesWellFormedGame) {
  const BimatrixGame g = parse_game_text(kBos);
  EXPECT_EQ(g.name(), "BoS");
  EXPECT_EQ(g.num_actions1(), 2u);
  EXPECT_DOUBLE_EQ(g.payoff1()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.payoff2()(1, 1), 2.0);
  EXPECT_TRUE(is_nash_equilibrium(g, {1, 0}, {1, 0}));
}

TEST(Parse, CommentsAndBlankLinesIgnored) {
  const BimatrixGame g = parse_game_text(
      "\n# header\n\nM:\n# inner comment\n1 0\n0 1\n\nN:\n1 0\n0 1\n");
  EXPECT_EQ(g.num_actions1(), 2u);
}

TEST(Parse, DefaultNameWhenMissing) {
  const BimatrixGame g = parse_game_text("M:\n1\nN:\n1\n");
  EXPECT_EQ(g.name(), "unnamed");
}

TEST(Parse, NegativeAndFractionalPayoffs) {
  const BimatrixGame g =
      parse_game_text("M:\n-1.5 2e2\nN:\n0.25 -3\n");
  EXPECT_DOUBLE_EQ(g.payoff1()(0, 1), 200.0);
  EXPECT_DOUBLE_EQ(g.payoff2()(0, 0), 0.25);
}

TEST(Parse, ErrorsCarryLineNumbers) {
  try {
    parse_game_text("M:\n1 0\n0 x\nN:\n1 0\n0 1\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(Parse, RejectsStructuralErrors) {
  EXPECT_THROW(parse_game_text("1 2\n"), ParseError);       // row before header
  EXPECT_THROW(parse_game_text("M:\n1 2\n"), ParseError);   // missing N
  EXPECT_THROW(parse_game_text("M:\n1 2\n3\nN:\n1 2\n3 4\n"),
               ParseError);                                  // ragged M
  EXPECT_THROW(parse_game_text("M:\n1 2\nN:\n1 2 3\n"), ParseError);  // shapes
  EXPECT_THROW(parse_game_text("M:\nN:\n1\n"), ParseError);  // empty M
}

TEST(Parse, ErrorMessagesNameLineAndCause) {
  // The solve_file driver prints e.what() verbatim to the user, so the
  // message must locate the problem: a 1-based line number plus the cause.
  try {
    parse_game_text("M:\n1 2\nN:\n1 b\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("non-numeric"), std::string::npos) << msg;
  }
}

TEST(Parse, EveryMalformedInputThrowsParseError) {
  // The solve_file CLI path maps ParseError to "parse error in <file>: ..."
  // with exit code 2 — so malformed input must never surface as any other
  // exception type (or worse, a silently garbage game).
  const char* malformed[] = {
      "",                          // empty stream
      "name: x\n",                 // no matrices at all
      "1 2\n",                     // payoff row before any header
      "M:\n1 2\n",                 // missing N
      "N:\n1 2\n",                 // missing M
      "M:\nN:\n1\n",               // empty M
      "M:\n1 2\n3\nN:\n1 2\n3 4\n",  // ragged M
      "M:\n1 2\nN:\n1 2 3\n",      // M and N shapes differ
      "M:\n1 x\nN:\n1 2\n",        // non-numeric payoff
      "M:\n1 2\n\n \nN:\n1 2e\n",  // trailing junk on a number
      "M:\n1.2.3\nN:\n1 2\n",      // two points, not the row [1.2, 0.3]
      "M:\n1e5.5\nN:\n1 2\n",      // fractional exponent, not [1e5, 0.5]
      "M:\n1e-400 2\nN:\n1 2\n",   // underflows a double, not [0, 2]
  };
  for (const char* text : malformed) {
    try {
      parse_game_text(text);
      FAIL() << "accepted malformed input: " << text;
    } catch (const ParseError&) {
      // expected — the one type the CLI reports cleanly
    } catch (const std::exception& e) {
      FAIL() << "wrong exception type for: " << text << " — " << e.what();
    }
  }
}

TEST(Parse, PayoffTokensAreSignedFiniteDecimals) {
  // Accepted: an optional sign, digits with an optional point and exponent.
  const BimatrixGame g =
      parse_game_text("M:\n+2 .25 5. -0 1e-310\nN:\n1 2 3 4 5\n");
  EXPECT_EQ(g.payoff1()(0, 0), 2.0);
  EXPECT_EQ(g.payoff1()(0, 1), 0.25);
  EXPECT_EQ(g.payoff1()(0, 2), 5.0);
  EXPECT_EQ(g.payoff1()(0, 3), 0.0);
  EXPECT_EQ(g.payoff1()(0, 4), 1e-310);  // subnormal, still in range
  // Rejected: non-finite, out of range, hex, doubled signs.
  for (const char* token :
       {"inf", "-inf", "nan", "infinity", "1e400", "0x10", "+-3", "--3", "+"}) {
    const std::string text = std::string("M:\n1 ") + token + "\nN:\n1 2\n";
    EXPECT_THROW(parse_game_text(text), ParseError) << token;
  }
}

TEST(Parse, SerializeRoundTripsLibraryGames) {
  for (const auto& g :
       {battle_of_sexes(), bird_game(), modified_prisoners_dilemma(),
        matching_pennies(), chicken()}) {
    const BimatrixGame back = parse_game_text(serialize_game(g));
    EXPECT_EQ(back.name(), g.name());
    ASSERT_EQ(back.num_actions1(), g.num_actions1());
    ASSERT_EQ(back.num_actions2(), g.num_actions2());
    for (std::size_t r = 0; r < g.num_actions1(); ++r)
      for (std::size_t c = 0; c < g.num_actions2(); ++c) {
        EXPECT_DOUBLE_EQ(back.payoff1()(r, c), g.payoff1()(r, c));
        EXPECT_DOUBLE_EQ(back.payoff2()(r, c), g.payoff2()(r, c));
      }
  }
}

}  // namespace
}  // namespace cnash::game
