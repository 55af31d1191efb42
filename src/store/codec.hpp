#pragma once
// store — the block codec that sits between a record's value bytes and the
// log segment they are written to. Mirrors the QATzip pattern of a
// transparent compression layer with a software fallback: lz_compress() is
// best-effort — when the encoded form would not be strictly smaller than the
// input, the caller stores the raw bytes instead and tags the record
// kCodecStored. Decoding therefore never guesses: the record header says
// which method produced the value bytes and what size they decode to.
//
// The one real codec is an LZ77-style byte codec (lz_compress /
// lz_decompress) chosen for zero dependencies and unambiguous decoding, not
// for ratio records. Its stream is a sequence of ops, each introduced by one
// control byte:
//
//   0x00..0x7F  literal run: (byte + 1) literal bytes follow (1..128)
//   0x80..0xFF  match: length = (byte & 0x7F) + 4 (4..131), followed by a
//               16-bit little-endian back-offset (1..65535) into the output
//               produced so far; offsets smaller than the length overlap and
//               replicate (RLE falls out for free)
//
// Solve reports are JSON with heavily repeated member names and digit
// patterns, so this comfortably clears 2x on the serving workload while
// decompressing with a branch per op and no tables.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cnash::store {

/// Thrown by lz_decompress() on a malformed or truncated stream, and by the
/// store on a codec tag it does not know (a CRC-valid record can still be
/// undecodable if the writer was buggy; the store treats this the same as a
/// corrupt record — skip, never crash).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& message)
      : std::runtime_error("store codec: " + message) {}
};

/// Method tags recorded in each record header.
inline constexpr unsigned char kCodecStored = 0;  // value bytes are raw
inline constexpr unsigned char kCodecLz = 1;      // lz_compress() stream

/// Encode `input` into `output` (cleared first). Returns false when the
/// encoded form is not strictly smaller than the input — the caller then
/// stores the raw bytes with tag kCodecStored (`output` is unspecified).
/// Stateless and thread-safe.
bool lz_compress(std::string_view input, std::string& output);

/// Decode into `output` (cleared first); `expected_size` comes from the
/// record header and the result must match it exactly. Throws CodecError.
void lz_decompress(std::string_view input, std::size_t expected_size,
                   std::string& output);

}  // namespace cnash::store
