#include "serve/protocol.hpp"

#include <cmath>
#include <utility>

#include "core/report_json.hpp"
#include "game/parse.hpp"

namespace cnash::serve {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw ProtocolError("bad_request", message);
}

double number_field(const util::Json& obj, const char* key, double fallback) {
  const util::Json* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_number()) bad(std::string("\"") + key + "\" must be a number");
  return v->as_number();
}

std::size_t size_field(const util::Json& obj, const char* key,
                       std::size_t fallback) {
  // 2^53: the largest range in which every integer has an exact double
  // representation — the documented wire limit for seeds and counts.
  constexpr double kMaxExactInteger = 9007199254740992.0;
  const double v = number_field(obj, key, static_cast<double>(fallback));
  if (v < 0.0 || v != std::floor(v) || v > kMaxExactInteger)
    bad(std::string("\"") + key + "\" must be a non-negative integer <= 2^53");
  return static_cast<std::size_t>(v);
}

bool bool_field(const util::Json& obj, const char* key, bool fallback) {
  const util::Json* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_bool()) bad(std::string("\"") + key + "\" must be a boolean");
  return v->as_bool();
}

la::Matrix matrix_field(const util::Json& game, const char* key) {
  const util::Json* rows = game.find(key);
  if (!rows || !rows->is_array() || rows->size() == 0)
    bad(std::string("game.") + key + " must be a non-empty array of rows");
  const std::size_t n = rows->size();
  const util::Json& first = rows->at(std::size_t{0});
  if (!first.is_array() || first.size() == 0)
    bad(std::string("game.") + key + " rows must be non-empty number arrays");
  const std::size_t m = first.size();
  la::Matrix out(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    const util::Json& row = rows->at(r);
    if (!row.is_array() || row.size() != m)
      bad(std::string("game.") + key + " rows must all have the same length");
    for (std::size_t c = 0; c < m; ++c) {
      const util::Json& cell = row.at(c);
      if (!cell.is_number())
        bad(std::string("game.") + key + " entries must be numbers");
      out(r, c) = cell.as_number();
    }
  }
  return out;
}

game::BimatrixGame game_from_request(const util::Json& root) {
  const util::Json* text = root.find("game_text");
  const util::Json* obj = root.find("game");
  if (text && obj) bad("pass either \"game_text\" or \"game\", not both");
  try {
    if (text) {
      if (!text->is_string()) bad("\"game_text\" must be a string");
      return game::parse_game_text(text->as_string());
    }
    if (obj) {
      if (!obj->is_object()) bad("\"game\" must be an object");
      std::string name;
      if (const util::Json* n = obj->find("name")) name = n->as_string();
      return game::BimatrixGame(matrix_field(*obj, "m"),
                                matrix_field(*obj, "n"), name);
    }
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    bad(std::string("invalid game: ") + e.what());
  }
  bad("solve needs a game: \"game_text\" (solve_file text format) or "
      "\"game\" {name, m, n}");
}

core::SolveRequest solve_from_request(const util::Json& root,
                                      ParseSession* session) {
  core::SolveRequest req(game_from_request(root));
  if (const util::Json* b = root.find("backend")) {
    if (!b->is_string()) bad("\"backend\" must be a string");
    req.backend = b->as_string();
  }
  req.runs = size_field(root, "runs", 32);
  req.sa.iterations = size_field(root, "iterations", 2000);
  const std::size_t intervals = size_field(root, "intervals", 12);
  if (intervals == 0 || intervals > 4096) bad("\"intervals\" must be in [1, 4096]");
  req.intervals = static_cast<std::uint32_t>(intervals);
  // Seeds are full uint64 in core; JSON numbers are doubles, so the wire
  // loses precision beyond 2^53 — fine for a backoff/cache key as long as
  // clients are told (README). Negative seeds are rejected.
  req.seed = static_cast<std::uint64_t>(
      size_field(root, "seed", static_cast<std::size_t>(0xC0FFEE)));
  const double scale = number_field(root, "scale", 1.0);
  if (!(scale > 0.0) || !std::isfinite(scale))
    bad("\"scale\" must be a positive number");
  req.hardware.value_scale = scale;
  req.chip.tile_rows = size_field(root, "tile_rows", req.chip.tile_rows);
  req.chip.tile_cols = size_field(root, "tile_cols", req.chip.tile_cols);
  req.report_best = bool_field(root, "report_best", false);
  // SA mode knobs (SA backends only; others ignore them, like `iterations`).
  if (const util::Json* m = root.find("sa_mode")) {
    if (!m->is_string()) bad("\"sa_mode\" must be a string");
    const std::string mode = m->as_string();
    if (mode == "independent") {
      req.sa.mode = core::SaMode::kIndependent;
    } else if (mode == "replica-exchange") {
      req.sa.mode = core::SaMode::kReplicaExchange;
    } else {
      bad("\"sa_mode\" must be \"independent\" or \"replica-exchange\"");
    }
  }
  req.sa.batch_lanes = size_field(root, "batch_lanes", req.sa.batch_lanes);
  req.sa.replicas = size_field(root, "replicas", req.sa.replicas);
  req.sa.exchange_interval =
      size_field(root, "exchange_interval", req.sa.exchange_interval);
  const double ladder =
      number_field(root, "ladder_ratio", req.sa.ladder_ratio);
  if (!std::isfinite(ladder) || !(ladder > 0.0))
    bad("\"ladder_ratio\" must be a positive number");
  req.sa.ladder_ratio = ladder;
  // Robustness knobs (PR 7): anytime deadline, resilient-primary selection
  // and the deterministic fault plan. Absent fields leave the defaults (no
  // deadline, no faults); range/backend compatibility checks live in
  // validate_request below, which this parser maps to bad_request.
  if (const util::Json* d = root.find("deadline_s")) {
    if (!d->is_number()) bad("\"deadline_s\" must be a number");
    const double deadline = d->as_number();
    if (!std::isfinite(deadline) || !(deadline > 0.0))
      bad("\"deadline_s\" must be a positive number");
    req.deadline_s = deadline;
  }
  if (const util::Json* p = root.find("primary")) {
    if (!p->is_string()) bad("\"primary\" must be a string");
    req.resilient_primary = p->as_string();
  }
  if (const util::Json* f = root.find("fault")) {
    if (!f->is_object()) bad("\"fault\" must be an object");
    req.fault.seed = static_cast<std::uint64_t>(size_field(*f, "seed", 0));
    req.fault.unit_failure_rate = number_field(*f, "unit_rate", 0.0);
    req.fault.tile_failure_rate = number_field(*f, "tile_rate", 0.0);
    req.fault.unit_delay_rate = number_field(*f, "delay_rate", 0.0);
    req.fault.unit_delay_s = number_field(*f, "delay_s", 0.0);
  }
  try {
    // Resolve the backend key up front (at() throws naming the registered
    // keys) so an unknown backend is a bad_request here, not an "internal"
    // failure after it consumed an admission slot and a solver job. A
    // session memoizes the resolution: a connection's usual backend skips
    // the registry map on every request after the first.
    if (!session || !session->backend || session->backend_key != req.backend) {
      const core::SolverRegistry& registry =
          (session && session->registry) ? *session->registry
                                         : core::SolverRegistry::global();
      const core::SolverBackend* resolved = &registry.at(req.backend);
      if (session) {
        session->backend_key = req.backend;
        session->backend = resolved;
      }
    }
    core::validate_request(req);
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    bad(e.what());
  }
  return req;
}

/// Shared tail of both framings: `root` is the parsed request object,
/// `forced_method` non-null when the method came from a frame type.
WireRequest request_from_json(const util::Json& root,
                              const char* forced_method,
                              ParseSession* session) {
  WireRequest req;
  if (const util::Json* id = root.find("id")) req.id = *id;
  try {
    if (forced_method) {
      req.method = forced_method;
    } else {
      const util::Json* method = root.find("method");
      if (!method || !method->is_string())
        bad("request needs a string \"method\"");
      req.method = method->as_string();
    }

    if (req.method == "solve") {
      req.no_cache = bool_field(root, "no_cache", false);
      req.progress = bool_field(root, "progress", false);
      req.solve = solve_from_request(root, session);
    } else if (req.method == "metrics") {
      if (const util::Json* fmt = root.find("format")) {
        if (!fmt->is_string() ||
            (fmt->as_string() != "json" && fmt->as_string() != "text"))
          bad("metrics \"format\" must be \"json\" or \"text\"");
        req.metrics_text = fmt->as_string() == "text";
      }
    } else if (req.method != "status" && req.method != "stats" &&
               req.method != "list-backends") {
      bad("unknown method \"" + req.method +
          "\" (expected solve, status, stats, list-backends or metrics)");
    }
  } catch (ProtocolError& e) {
    e.set_id(req.id);  // the id parsed fine; echo it on the error
    throw;
  }
  return req;
}

}  // namespace

WireRequest parse_request(const std::string& line, ParseSession* session) {
  util::Json root;
  try {
    root = util::Json::parse(line);
  } catch (const util::JsonError& e) {
    bad(e.what());
  }
  if (!root.is_object()) bad("request must be a JSON object");
  return request_from_json(root, nullptr, session);
}

// ---- Binary framing --------------------------------------------------------

std::optional<FrameHeader> peek_frame(const std::string& buf,
                                      std::size_t max_payload) {
  if (buf.size() < kFrameHeaderSize) return std::nullopt;
  const auto* b = reinterpret_cast<const unsigned char*>(buf.data());
  if (b[0] != kFrameMagic0 || b[1] != kFrameMagic1) bad("bad frame magic");
  if (b[2] != kFrameVersion)
    bad("unsupported frame version " + std::to_string(b[2]) + " (expected " +
        std::to_string(kFrameVersion) + ")");
  FrameHeader header;
  header.type = b[3];
  header.length = static_cast<std::uint32_t>(b[4]) |
                  (static_cast<std::uint32_t>(b[5]) << 8) |
                  (static_cast<std::uint32_t>(b[6]) << 16) |
                  (static_cast<std::uint32_t>(b[7]) << 24);
  if (header.length > max_payload)
    bad("frame payload of " + std::to_string(header.length) +
        " bytes exceeds the " + std::to_string(max_payload) + "-byte limit");
  return header;
}

void encode_frame(unsigned char type, std::string_view payload,
                  std::string& out) {
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  const char header[kFrameHeaderSize] = {
      static_cast<char>(kFrameMagic0),
      static_cast<char>(kFrameMagic1),
      static_cast<char>(kFrameVersion),
      static_cast<char>(type),
      static_cast<char>(n & 0xFF),
      static_cast<char>((n >> 8) & 0xFF),
      static_cast<char>((n >> 16) & 0xFF),
      static_cast<char>((n >> 24) & 0xFF),
  };
  out.append(header, kFrameHeaderSize);
  out.append(payload.data(), payload.size());
}

const char* frame_method(unsigned char type) {
  switch (type) {
    case kFrameSolve: return "solve";
    case kFrameStatus: return "status";
    case kFrameStats: return "stats";
    case kFrameListBackends: return "list-backends";
    case kFrameMetrics: return "metrics";
    default: return nullptr;
  }
}

WireRequest parse_frame_request(unsigned char type, const std::string& payload,
                                ParseSession* session) {
  const char* method = frame_method(type);
  if (!method)
    bad("unknown request frame type " + std::to_string(type) +
        " (expected 0x01 solve, 0x02 status, 0x03 stats, 0x04 list-backends, "
        "0x05 metrics)");
  util::Json root = util::Json::object();
  if (!payload.empty()) {
    try {
      root = util::Json::parse(payload);
    } catch (const util::JsonError& e) {
      bad(e.what());
    }
    if (!root.is_object()) bad("frame payload must be a JSON object");
  }
  return request_from_json(root, method, session);
}

void render_solve_ok_body(std::string& body, const util::Json& id, bool cached,
                          const core::SolveReport& report) {
  util::Json out = util::Json::object();
  out.set("ok", true);
  out.set("id", id);
  out.set("cached", cached);
  out.set("report", core::report_to_json(report));
  body.clear();
  body += out.dump();
}

void render_progress_body(std::string& body, const util::Json& id,
                          const core::ProgressSnapshot& snapshot) {
  util::Json out = util::Json::object();
  out.set("ok", true);
  out.set("id", id);
  util::Json p = util::Json::object();
  p.set("units_total", static_cast<double>(snapshot.units_total));
  p.set("units_completed", static_cast<double>(snapshot.units_completed));
  p.set("nash_count", static_cast<double>(snapshot.nash_count));
  p.set("valid_count", static_cast<double>(snapshot.valid_count));
  p.set("best_objective", snapshot.best_objective);  // NaN dumps as null
  p.set("elapsed_s", snapshot.elapsed_s);
  out.set("progress", std::move(p));
  body.clear();
  body += out.dump();
}

void render_error_body(std::string& body, const util::Json& id,
                       const std::string& code, const std::string& message,
                       std::optional<double> retry_after_s) {
  util::Json out = util::Json::object();
  out.set("ok", false);
  out.set("id", id);
  util::Json err = util::Json::object();
  err.set("code", code);
  err.set("message", message);
  out.set("error", std::move(err));
  if (retry_after_s) out.set("retry_after_s", *retry_after_s);
  body.clear();
  body += out.dump();
}

void render_ok_body(std::string& body, const util::Json& id,
                    const std::string& key, util::Json payload) {
  util::Json out = util::Json::object();
  out.set("ok", true);
  out.set("id", id);
  out.set(key, std::move(payload));
  body.clear();
  body += out.dump();
}

}  // namespace cnash::serve
