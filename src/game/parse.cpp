#include "game/parse.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string_view>
#include <system_error>
#include <vector>

namespace cnash::game {

ParseError::ParseError(std::size_t line, const std::string& message)
    : std::runtime_error("line " + std::to_string(line) + ": " + message),
      line_(line) {}

namespace {

constexpr std::string_view kLineSpace = " \t\r\n";

/// Separators between payoff tokens: isspace in the C locale.
bool is_token_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(kLineSpace);
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(kLineSpace);
  return s.substr(begin, end - begin + 1);
}

/// Reads the payoff number that starts at `first`: an optional sign, decimal
/// digits with an optional point and exponent, finite and inside the range of
/// a double. Returns where the number ends, or nullptr when there is none.
const char* read_payoff(const char* first, const char* last, double& out) {
  // from_chars takes no '+' sign but reads "inf" and "nan"; the token grammar
  // is the other way round.
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return nullptr;
  }
  const auto [end, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && std::isfinite(out) ? end : nullptr;
}

/// The numbers of one payoff row; each must be a whole token.
std::vector<double> parse_row(std::string_view line, std::size_t line_no) {
  std::vector<double> row;
  const char* p = line.data();
  const char* const last = p + line.size();
  for (;;) {
    while (p != last && is_token_space(*p)) ++p;
    if (p == last) return row;
    double v = 0.0;
    p = read_payoff(p, last, v);
    if (p == nullptr || (p != last && !is_token_space(*p)))
      throw ParseError(line_no, "non-numeric token in payoff row");
    row.push_back(v);
  }
}

la::Matrix rows_to_matrix(const std::vector<std::vector<double>>& rows,
                          std::size_t first_line, const char* which) {
  if (rows.empty())
    throw ParseError(first_line, std::string("matrix ") + which + " is empty");
  const std::size_t cols = rows.front().size();
  la::Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != cols)
      throw ParseError(first_line, std::string("ragged rows in matrix ") + which);
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

BimatrixGame parse_text(std::string_view text) {
  std::string name = "unnamed";
  std::vector<std::vector<double>> m_rows, n_rows;
  std::vector<std::vector<double>>* current = nullptr;
  std::size_t m_line = 0, n_line = 0;

  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (line.starts_with("name:")) {
      name = std::string(trim(line.substr(5)));
      continue;
    }
    if (line == "M:") {
      current = &m_rows;
      m_line = line_no;
      continue;
    }
    if (line == "N:") {
      current = &n_rows;
      n_line = line_no;
      continue;
    }
    if (current == nullptr)
      throw ParseError(line_no, "payoff row before any 'M:' or 'N:' header");
    std::vector<double> row = parse_row(line, line_no);
    if (row.empty()) throw ParseError(line_no, "empty payoff row");
    current->push_back(std::move(row));
  }
  if (m_rows.empty()) throw ParseError(line_no, "missing matrix M");
  if (n_rows.empty()) throw ParseError(line_no, "missing matrix N");
  la::Matrix m = rows_to_matrix(m_rows, m_line, "M");
  la::Matrix n = rows_to_matrix(n_rows, n_line, "N");
  if (m.rows() != n.rows() || m.cols() != n.cols())
    throw ParseError(line_no, "M and N have different shapes");
  return BimatrixGame(std::move(m), std::move(n), name);
}

}  // namespace

BimatrixGame parse_game(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return parse_text(text);
}

BimatrixGame parse_game_text(const std::string& text) {
  return parse_text(text);
}

std::string serialize_game(const BimatrixGame& game, int precision) {
  std::string out = "name: " + game.name() + "\n";
  char buf[64];
  auto emit = [&](const la::Matrix& m, const char* header) {
    out += header;
    out += "\n";
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, m(r, c));
        out += buf;
        out += (c + 1 < m.cols()) ? ' ' : '\n';
      }
    }
  };
  emit(game.payoff1(), "M:");
  emit(game.payoff2(), "N:");
  return out;
}

}  // namespace cnash::game
