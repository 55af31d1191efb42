#include "store/codec.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace cnash::store {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 0x7F + kMinMatch;  // 131
constexpr std::size_t kMaxLiteralRun = 128;
constexpr std::size_t kMaxOffset = 0xFFFF;
constexpr std::size_t kHashBits = 14;
constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

}  // namespace

bool lz_compress(std::string_view input, std::string& output) {
  output.clear();
  const std::size_t n = input.size();
  if (n < kMinMatch + 2) return false;  // no room for a match to win
  output.reserve(n);
  const auto* src = reinterpret_cast<const unsigned char*>(input.data());

  // Single-slot hash table over 4-byte prefixes: the most recent position
  // that hashed there. Greedy parse — good enough for JSON-shaped data and
  // one pass with no backtracking.
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, kEmpty);
  const auto hash4 = [src](std::size_t pos) {
    std::uint32_t v;
    std::memcpy(&v, src + pos, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  };

  std::size_t literal_start = 0;
  const auto flush_literals = [&](std::size_t end) {
    for (std::size_t pos = literal_start; pos < end;) {
      const std::size_t run = std::min(kMaxLiteralRun, end - pos);
      output.push_back(static_cast<char>(run - 1));
      output.append(input.data() + pos, run);
      pos += run;
    }
  };

  std::size_t pos = 0;
  while (pos + kMinMatch <= n) {
    const std::uint32_t h = hash4(pos);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(pos);
    if (cand != kEmpty && pos - cand <= kMaxOffset &&
        std::memcmp(src + cand, src + pos, kMinMatch) == 0) {
      std::size_t len = kMinMatch;
      const std::size_t max_len = std::min(n - pos, kMaxMatch);
      while (len < max_len && src[cand + len] == src[pos + len]) ++len;
      flush_literals(pos);
      const std::size_t offset = pos - cand;
      output.push_back(static_cast<char>(0x80 | (len - kMinMatch)));
      output.push_back(static_cast<char>(offset & 0xFF));
      output.push_back(static_cast<char>((offset >> 8) & 0xFF));
      pos += len;
      literal_start = pos;
      if (output.size() >= n) return false;  // already losing: store raw
    } else {
      ++pos;
    }
  }
  flush_literals(n);
  return output.size() < n;
}

void lz_decompress(std::string_view input, std::size_t expected_size,
                   std::string& output) {
  output.clear();
  output.reserve(expected_size);
  const std::size_t n = input.size();
  std::size_t pos = 0;
  while (pos < n) {
    const auto control = static_cast<unsigned char>(input[pos++]);
    if (control < 0x80) {
      const std::size_t run = std::size_t{control} + 1;
      if (pos + run > n) throw CodecError("literal run past end of stream");
      if (output.size() + run > expected_size)
        throw CodecError("literal run overruns declared size");
      output.append(input.data() + pos, run);
      pos += run;
    } else {
      const std::size_t len = std::size_t{control & 0x7Fu} + kMinMatch;
      if (pos + 2 > n) throw CodecError("match offset past end of stream");
      const std::size_t offset =
          static_cast<unsigned char>(input[pos]) |
          (std::size_t{static_cast<unsigned char>(input[pos + 1])} << 8);
      pos += 2;
      if (offset == 0 || offset > output.size())
        throw CodecError("match offset outside produced output");
      if (output.size() + len > expected_size)
        throw CodecError("match overruns declared size");
      // Byte-at-a-time on purpose: offsets < len overlap and replicate.
      std::size_t from = output.size() - offset;
      for (std::size_t i = 0; i < len; ++i)
        output.push_back(output[from + i]);
    }
  }
  if (output.size() != expected_size)
    throw CodecError("decoded size does not match record header");
}

}  // namespace cnash::store
