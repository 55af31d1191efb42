#include "serve/canonical.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

namespace cnash::serve {

void KeyBuilder::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    digest_ ^= p[i];
    digest_ *= 1099511628211ULL;  // FNV prime
  }
  blob_.append(reinterpret_cast<const char*>(data), size);
}

void KeyBuilder::u32(std::uint32_t v) { bytes(&v, sizeof v); }
void KeyBuilder::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void KeyBuilder::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void KeyBuilder::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

namespace {

using Pair = std::pair<double, double>;

/// (M, N) entry pair at (r, c) — the unit the canonical order is built from.
Pair entry(const game::BimatrixGame& g, std::size_t r, std::size_t c) {
  return {g.payoff1()(r, c), g.payoff2()(r, c)};
}

/// Canonical action order of a game (see header for the three sorting
/// passes). Returns {row_perm, col_perm} with canonical index i ← original
/// index perm[i].
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
canonical_order(const game::BimatrixGame& g) {
  const std::size_t n = g.num_actions1(), m = g.num_actions2();

  // Pass 1: rank rows by a column-order-invariant signature.
  std::vector<std::vector<Pair>> row_sig(n);
  for (std::size_t r = 0; r < n; ++r) {
    row_sig[r].reserve(m);
    for (std::size_t c = 0; c < m; ++c) row_sig[r].push_back(entry(g, r, c));
    std::sort(row_sig[r].begin(), row_sig[r].end());
  }
  std::vector<std::uint32_t> row_perm(n);
  std::iota(row_perm.begin(), row_perm.end(), 0u);
  std::stable_sort(row_perm.begin(), row_perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return row_sig[a] < row_sig[b];
                   });

  // Pass 2: sort columns lexicographically under the pass-1 row order.
  auto col_less = [&](std::uint32_t a, std::uint32_t b) {
    for (std::size_t i = 0; i < n; ++i) {
      const Pair ea = entry(g, row_perm[i], a), eb = entry(g, row_perm[i], b);
      if (ea != eb) return ea < eb;
    }
    return false;
  };
  std::vector<std::uint32_t> col_perm(m);
  std::iota(col_perm.begin(), col_perm.end(), 0u);
  std::stable_sort(col_perm.begin(), col_perm.end(), col_less);

  // Pass 3: re-sort rows lexicographically under the fixed column order
  // (resolves pass-1 signature ties deterministically).
  auto row_less = [&](std::uint32_t a, std::uint32_t b) {
    for (std::size_t j = 0; j < m; ++j) {
      const Pair ea = entry(g, a, col_perm[j]), eb = entry(g, b, col_perm[j]);
      if (ea != eb) return ea < eb;
    }
    return false;
  };
  std::stable_sort(row_perm.begin(), row_perm.end(), row_less);

  return {std::move(row_perm), std::move(col_perm)};
}

game::BimatrixGame permuted_game(const game::BimatrixGame& g,
                                 const std::vector<std::uint32_t>& row_perm,
                                 const std::vector<std::uint32_t>& col_perm) {
  const std::size_t n = g.num_actions1(), m = g.num_actions2();
  la::Matrix pm(n, m), pn(n, m);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c) {
      pm(r, c) = g.payoff1()(row_perm[r], col_perm[c]);
      pn(r, c) = g.payoff2()(row_perm[r], col_perm[c]);
    }
  return game::BimatrixGame(std::move(pm), std::move(pn), "");
}

GameKey request_key(const core::SolveRequest& req) {
  KeyBuilder kb;
  // Version salt: bump when the key schema (or anything that changes solver
  // results for identical key bytes) changes, so stale processes never mix
  // cache entries across schemas.
  kb.str("cnash-gamekey-v2");
  kb.str(req.backend);
  kb.u64(req.runs);
  kb.u64(req.seed);
  kb.u32(req.intervals);
  // SA schedule.
  kb.u64(req.sa.iterations);
  kb.u32(static_cast<std::uint32_t>(req.sa.init));
  kb.f64(req.sa.t_start_rel);
  kb.f64(req.sa.t_end_rel);
  kb.f64(req.sa.both_players_prob);
  // SA mode: replica-exchange knobs change results, so they key the cache.
  // batch_lanes is deliberately absent — it only groups runs into work
  // units, and run r's streams depend on r alone (see SaPreparedJob).
  kb.u32(static_cast<std::uint32_t>(req.sa.mode));
  kb.u64(req.sa.replicas);
  kb.u64(req.sa.exchange_interval);
  kb.f64(req.sa.ladder_ratio);
  kb.u32(req.report_best ? 1u : 0u);
  kb.f64(req.nash_eps);
  // Hardware-model knobs exposed through the protocol. (max_parallelism is
  // deliberately absent: it is guaranteed not to change results.)
  kb.f64(req.hardware.value_scale);
  kb.u32(req.hardware.adc_bits);
  kb.f64(req.hardware.adc_noise_rel);
  kb.u32(req.hardware.cells_per_element);
  kb.u32(req.hardware.levels_per_cell);
  kb.u32(req.hardware.incremental ? 1u : 0u);
  // The evaluators' refresh period, a request knob until it became one
  // constant; writing it keeps stored keys valid without a salt bump.
  kb.u64(core::kRefreshInterval);
  // Chip / tiling knobs.
  kb.u64(req.chip.tile_rows);
  kb.u64(req.chip.tile_cols);
  // Two retired chip knobs (a readout mode and an H-tree noise level) keyed
  // here; the wire never set them, so every stored key holds these bytes.
  // Writing them keeps those keys valid without a salt bump.
  kb.u32(0);
  kb.f64(0.0);
  // Robustness knobs. The deadline keys the cache even though degraded
  // reports are never inserted: a pending (coalescable) solve's result set
  // depends on it, so two requests differing only in deadline must never
  // coalesce. The fault plan changes which units fall back; delay knobs key
  // too (they shift wall time, and keeping all solver-side fields keyed is
  // cheaper than reasoning about which are observable).
  kb.f64(req.deadline_s);
  kb.str(req.resilient_primary);
  kb.u64(req.fault.seed);
  kb.f64(req.fault.unit_failure_rate);
  kb.f64(req.fault.tile_failure_rate);
  kb.f64(req.fault.unit_delay_rate);
  kb.f64(req.fault.unit_delay_s);
  // Canonical payoffs last (the big part).
  kb.u64(req.game.num_actions1());
  kb.u64(req.game.num_actions2());
  for (const double v : req.game.payoff1().data()) kb.f64(v);
  for (const double v : req.game.payoff2().data()) kb.f64(v);

  GameKey key;
  key.digest = kb.digest();
  key.blob = kb.take_blob();
  return key;
}

la::Vector unpermute(const la::Vector& v,
                     const std::vector<std::uint32_t>& perm) {
  la::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[perm[i]] = v[i];
  return out;
}

game::QuantizedStrategy unpermute(const game::QuantizedStrategy& s,
                                  const std::vector<std::uint32_t>& perm) {
  std::vector<std::uint32_t> counts(s.counts().size());
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[perm[i]] = s.counts()[i];
  return game::QuantizedStrategy(std::move(counts), s.intervals());
}

bool is_identity(const std::vector<std::uint32_t>& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    if (perm[i] != i) return false;
  return true;
}

}  // namespace

CanonicalRequest canonicalize(core::SolveRequest request) {
  ReportMapping mapping;
  mapping.original_name = request.game.name();
  auto [row_perm, col_perm] = canonical_order(request.game);
  request.game = permuted_game(request.game, row_perm, col_perm);
  mapping.row_perm = std::move(row_perm);
  mapping.col_perm = std::move(col_perm);
  GameKey key = request_key(request);
  return CanonicalRequest{std::move(request), std::move(mapping),
                          std::move(key)};
}

core::SolveReport map_to_original(const ReportMapping& mapping,
                                  core::SolveReport report) {
  report.game_name = mapping.original_name;
  if (is_identity(mapping.row_perm) && is_identity(mapping.col_perm))
    return report;
  for (core::SolveSample& s : report.samples) {
    s.p = unpermute(s.p, mapping.row_perm);
    s.q = unpermute(s.q, mapping.col_perm);
    if (s.profile)
      s.profile = game::QuantizedProfile{
          unpermute(s.profile->p, mapping.row_perm),
          unpermute(s.profile->q, mapping.col_perm)};
  }
  return report;
}

}  // namespace cnash::serve
