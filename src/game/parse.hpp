#pragma once
// Plain-text bimatrix game format, so the solver binaries can load games that
// are not compiled in:
//
//   # comment lines and blank lines are ignored
//   name: Battle of the Sexes
//   M:
//   2 0
//   0 1
//   N:
//   1 0
//   0 2
//
// Both matrices must be present and share the same shape. A payoff token is a
// decimal number with an optional sign ("-1.5", "+2", "2e2", ".25"), finite
// and inside the range of a double; anything else in a row ("1.2.3", "inf",
// "1e-400", "0x10") is a ParseError. `serialize_game` writes the same format
// back (round-trip stable).

#include <istream>
#include <string>

#include "game/game.hpp"

namespace cnash::game {

/// Thrown with a 1-based line number on malformed input.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message);
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

BimatrixGame parse_game(std::istream& in);
BimatrixGame parse_game_text(const std::string& text);

std::string serialize_game(const BimatrixGame& game, int precision = 6);

}  // namespace cnash::game
