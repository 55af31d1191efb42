#pragma once
// serve — the newline-delimited JSON wire protocol of the Nash-serving
// gateway. One request per line, one response per line; requests carry an
// optional "id" echoed verbatim so pipelining clients can correlate
// out-of-order completions.
//
// Methods:
//   {"method":"solve","id":1,"game_text":"name: g\nM:\n...","backend":"...",
//    "runs":32,"iterations":2000,"intervals":12,"seed":51966,"scale":1.0,
//    "tile_rows":64,"tile_cols":1024,"report_best":false,"no_cache":false}
//     — `game_text` is the solve_file text format; alternatively
//       "game":{"name":"g","m":[[...]],"n":[[...]]} with row-major payoff
//       matrices. Every parameter except the game is optional.
//     → {"ok":true,"id":1,"cached":false,"report":{...}}   (report_json.hpp)
//   {"method":"status"}       → queue depths, drain flag, connection count
//   {"method":"stats"}        → cache / admission / store / served counters
//     — "cache" is the RAM tier (hits/misses/insertions/evictions/
//       oversize_rejects/entries/bytes/byte_budget), "store" the persistent
//       tier-2 disk store (enabled, hits/misses/appends/tombstones/
//       evictions/oversize_rejects/compactions, entries/segments,
//       live_raw_bytes/live_stored_bytes/dead_stored_bytes, codec split,
//       recovery counters, byte_budget, compression_ratio; all-zero with
//       "enabled":false when the gateway runs without --store-dir). A RAM
//       miss that the store answers counts as cache.misses + store.hits, so
//       tier-1 vs tier-2 hit ratios are directly observable.
//   {"method":"list-backends"}→ registered backend keys + descriptions
//   {"method":"metrics"}      → full instrument registry snapshot (counters,
//     gauges, histogram quantiles) as {"metrics":{...}}; with
//     {"format":"text"} the response instead carries the Prometheus text
//     exposition as {"metrics_text":"..."}. Safe to scrape while solves run.
//
// Errors are structured, never a closed connection:
//   {"ok":false,"id":1,"error":{"code":"bad_request","message":"..."}}
//   codes: bad_request   malformed JSON / schema / game / solve parameters
//          overloaded    admission shed; response carries "retry_after_s"
//          draining      server is shutting down; carries "retry_after_s"
//          internal      solver-side failure
//
// A second, length-prefixed binary framing carries the same JSON bodies with
// the method lifted into a one-byte frame type (see "Binary framing" below);
// a solve with "progress":true additionally streams interim progress frames
// before the final one (anytime serving).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/backend.hpp"
#include "core/service.hpp"
#include "util/json.hpp"

namespace cnash::serve {

/// Schema violation (or unsupported method) while parsing a request line.
/// Carries the request's echoed id when the enclosing JSON object parsed far
/// enough to yield one, so even error responses honour the id-echo contract.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }
  const util::Json& id() const { return id_; }
  void set_id(util::Json id) { id_ = std::move(id); }

 private:
  std::string code_;
  util::Json id_;  // null unless the request carried one
};

/// One parsed request line.
struct WireRequest {
  std::string method;
  util::Json id;  // echoed verbatim; null when absent
  bool no_cache = false;
  /// Solve only: client opted into interim best-so-far `progress` frames
  /// (wire field `"progress":true`). The final frame always follows.
  bool progress = false;
  /// Metrics only: {"format":"text"} → Prometheus text exposition instead of
  /// the JSON instrument snapshot.
  bool metrics_text = false;
  /// Present iff method == "solve".
  std::optional<core::SolveRequest> solve;
};

/// Per-connection parse/render state reused across requests (the QATzip
/// QzSession pattern): memoized backend resolution — repeat requests for the
/// connection's usual backend skip the registry lookup — plus a recycled
/// render buffer, so steady-state request handling allocates for the report,
/// not the plumbing.
struct ParseSession {
  /// Registry to resolve backend keys against; nullptr = global().
  const core::SolverRegistry* registry = nullptr;
  /// Backend memo: key and resolution of this connection's last solve.
  std::string backend_key;
  const core::SolverBackend* backend = nullptr;
  /// Scratch for the render_*_body helpers (cleared, then filled).
  std::string body;
};

/// Parse + validate one request line. Throws ProtocolError (code
/// "bad_request") on malformed JSON, schema violations, malformed games or
/// invalid solve parameters. Solve parameter defaults are sized for an
/// interactive gateway (32 runs × 2000 iterations), not the paper's batch
/// sweeps. `session` (optional) memoizes backend resolution across calls.
WireRequest parse_request(const std::string& line,
                          ParseSession* session = nullptr);

// ---- Binary framing --------------------------------------------------------
//
// 8-byte header, then the payload:
//
//   offset  0     1     2         3       4..7
//           0xCE  0x4E  version   type    payload length (u32 LE)
//
// The payload is the same compact JSON body as the JSON-lines framing minus
// the trailing newline; request frames imply the method by type, so a
// "method" field in the payload is ignored. Framing is negotiated per
// connection on the first byte received — 0xCE can never start a JSON-lines
// request, so existing clients keep working unchanged.

inline constexpr unsigned char kFrameMagic0 = 0xCE;
inline constexpr unsigned char kFrameMagic1 = 0x4E;  // 'N'
inline constexpr unsigned char kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 8;

enum FrameType : unsigned char {
  // Requests (client → server), mirroring the JSON "method" values.
  kFrameSolve = 0x01,
  kFrameStatus = 0x02,
  kFrameStats = 0x03,
  kFrameListBackends = 0x04,
  kFrameMetrics = 0x05,
  // Responses (server → client); the high bit distinguishes final / interim /
  // error without parsing the payload.
  kFrameFinal = 0x81,
  kFrameProgress = 0x82,
  kFrameError = 0x83,
};

/// A connection speaks binary iff its first byte is the frame magic.
inline bool looks_binary(unsigned char first_byte) {
  return first_byte == kFrameMagic0;
}

/// Decoded frame header.
struct FrameHeader {
  unsigned char type = 0;
  std::uint32_t length = 0;  // payload bytes following the header
};

/// Decode the frame header at the front of `buf`. Returns nullopt when fewer
/// than kFrameHeaderSize bytes are buffered; throws ProtocolError
/// ("bad_request") on bad magic, unsupported version, or a payload length
/// above `max_payload`.
std::optional<FrameHeader> peek_frame(const std::string& buf,
                                      std::size_t max_payload);

/// Append one complete frame (header + payload) to `out`.
void encode_frame(unsigned char type, std::string_view payload,
                  std::string& out);

/// JSON "method" equivalent of a request frame type; nullptr when `type` is
/// not a request frame.
const char* frame_method(unsigned char type);

/// Parse + validate one binary request frame's payload (requests only).
/// Errors as parse_request; an empty payload is an empty object (the natural
/// encoding for status/stats/list-backends).
WireRequest parse_frame_request(unsigned char type, const std::string& payload,
                                ParseSession* session = nullptr);

// ---- Response rendering ----------------------------------------------------
//
// The *_body variants render the compact JSON body with no trailing newline
// into `body` (cleared first), so a connection reuses one buffer and wraps it
// in its negotiated framing: JSON-lines appends '\n', binary wraps it in a
// frame.

void render_solve_ok_body(std::string& body, const util::Json& id, bool cached,
                          const core::SolveReport& report);
/// Interim anytime frame: {"ok":true,"id":...,"progress":{units_total,
/// units_completed, nash_count, valid_count, best_objective, elapsed_s}}.
/// best_objective is null until the first valid sample.
void render_progress_body(std::string& body, const util::Json& id,
                          const core::ProgressSnapshot& snapshot);
void render_error_body(std::string& body, const util::Json& id,
                       const std::string& code, const std::string& message,
                       std::optional<double> retry_after_s = std::nullopt);
/// Generic success envelope: {"ok":true,"id":...,<key>:<payload>}.
void render_ok_body(std::string& body, const util::Json& id,
                    const std::string& key, util::Json payload);

}  // namespace cnash::serve
