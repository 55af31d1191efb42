// Tier-2 store benchmark: drives src/store/ with real solved reports — the
// exact bytes the serving gateway persists — across a mixed 5-class backend /
// game-size load, and measures the three paths that matter in production:
//
//   * cold write   — put() throughput (records/s, raw MB/s) writing every
//                    report through the codec into fresh segments;
//   * warm restart — close, reopen the same directory (recovery scan timed
//                    separately) and read every key back, verifying each
//                    value byte-identical to what was written;
//   * compact      — supersede half the keys to build dead weight, then
//                    compact and report reclaimed bytes and wall time.
//
// The headline `compression_ratio` (live raw bytes over live stored bytes)
// must exceed 1.0 on this load: report JSON is repetitive enough that the
// LZ codec has to win. A ratio at or below 1.0 fails the bench.
//
// Usage: bench_store [reports-per-class] [--json <path>]  (BENCH_store.json)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/report_json.hpp"
#include "game/random_games.hpp"
#include "serve/canonical.hpp"
#include "store/store.hpp"

namespace {

using cnash::util::Json;

struct LoadClass {
  std::string label;
  std::string backend;
  std::size_t actions;
  std::size_t runs;
  std::size_t iterations;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string temp_store_dir() {
  std::string tmpl = "/tmp/cnash_bench_store_XXXXXX";
  if (!::mkdtemp(tmpl.data())) {
    std::perror("bench_store: mkdtemp");
    std::exit(1);
  }
  return tmpl;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cnash;
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const std::size_t per_class = cli.runs > 0 ? cli.runs : 16;
  bench::JsonReport report("store", cli);

  // Same production-mix shape as bench_serve_throughput: cheap exact solves,
  // a pivoting solver, and the hardware-model backends, across game sizes —
  // so the stored values span the report-size spectrum.
  const std::vector<LoadClass> classes = {
      {"exact_sa_2", "exact-sa", 2, 8, 400},
      {"exact_sa_16", "exact-sa", 16, 4, 400},
      {"lemke_howson_12", "lemke-howson", 12, 1, 0},
      {"hardware_sa_4", "hardware-sa", 4, 4, 300},
      {"hardware_sa_tiled_8", "hardware-sa-tiled", 8, 2, 300},
  };

  // Solve the whole load up front (solver time must not pollute store
  // timings); keep (key, value) exactly as serve/cache.cpp would persist it.
  util::Rng rng(0xCA5CADE);
  std::vector<std::pair<serve::GameKey, std::string>> load;
  load.reserve(classes.size() * per_class);
  std::size_t raw_bytes = 0;
  for (const LoadClass& cls : classes)
    for (std::size_t i = 0; i < per_class; ++i) {
      game::BimatrixGame g =
          cls.backend.rfind("hardware", 0) == 0
              ? game::random_integer_game(cls.actions, cls.actions, rng)
              : game::random_covariant_game(cls.actions, cls.actions, 0.0, rng);
      core::SolveRequest req(g);
      req.backend = cls.backend;
      req.runs = cls.runs;
      req.seed = 1000 + i;
      if (cls.iterations > 0) req.sa.iterations = cls.iterations;
      serve::CanonicalRequest canonical = serve::canonicalize(std::move(req));
      const core::SolveReport solved =
          core::SolverRegistry::global().at(cls.backend).solve(
              canonical.request);
      std::string value = core::report_to_json(solved).dump();
      raw_bytes += value.size();
      load.emplace_back(std::move(canonical.key), std::move(value));
    }

  const std::string dir = temp_store_dir();
  Json& root = report.root();
  root.set("reports_per_class", per_class);
  root.set("records", load.size());
  root.set("raw_bytes", raw_bytes);
  Json classes_json = Json::array();
  for (const LoadClass& cls : classes) {
    Json& c = classes_json.push(Json::object());
    c.set("label", cls.label);
    c.set("backend", cls.backend);
    c.set("actions", cls.actions);
  }
  root.set("classes", std::move(classes_json));

  bool ok = true;
  double compression_ratio = 0.0;

  // ---- cold write ----
  {
    store::SolutionStore store(dir);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [key, value] : load)
      store.put(key.digest, key.blob, value);
    const double wall = seconds_since(t0);
    store.sync();
    const store::StoreStats s = store.stats();
    compression_ratio = s.compression_ratio();
    Json cold = Json::object();
    cold.set("wall_s", wall);
    cold.set("puts_per_sec", wall > 0 ? load.size() / wall : 0.0);
    cold.set("raw_mb_per_sec",
             wall > 0 ? raw_bytes / (wall * 1024.0 * 1024.0) : 0.0);
    cold.set("segments", s.segments);
    cold.set("live_raw_bytes", s.live_raw_bytes);
    cold.set("live_stored_bytes", s.live_stored_bytes);
    cold.set("compressed_records", s.compressed_records);
    cold.set("stored_records", s.stored_records);
    cold.set("compression_ratio", compression_ratio);
    root.set("cold_write", std::move(cold));
    std::printf("cold write : %5zu records in %.4f s (%8.0f put/s), "
                "%.2fx compression (%zu lz / %zu stored)\n",
                load.size(), wall, load.size() / (wall > 0 ? wall : 1.0),
                compression_ratio, s.compressed_records, s.stored_records);
    ok = ok && s.entries == load.size();
  }  // destructor closes every fd: the reopen below is a true cold start

  // ---- warm restart read ----
  {
    const auto t_open = std::chrono::steady_clock::now();
    store::SolutionStore store(dir);
    const double open_wall = seconds_since(t_open);
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t verified = 0;
    for (const auto& [key, value] : load) {
      const auto got = store.get(key.digest, key.blob);
      if (got && *got == value) verified++;
    }
    const double wall = seconds_since(t0);
    const store::StoreStats s = store.stats();
    Json warm = Json::object();
    warm.set("open_wall_s", open_wall);
    warm.set("read_wall_s", wall);
    warm.set("reads_per_sec", wall > 0 ? load.size() / wall : 0.0);
    warm.set("raw_mb_per_sec",
             wall > 0 ? raw_bytes / (wall * 1024.0 * 1024.0) : 0.0);
    warm.set("byte_identical", verified);
    root.set("warm_restart_read", std::move(warm));
    std::printf("warm read  : %5zu records in %.4f s (%8.0f get/s), "
                "open+recover %.4f s, %zu/%zu byte-identical\n",
                load.size(), wall, load.size() / (wall > 0 ? wall : 1.0),
                open_wall, verified, load.size());
    ok = ok && verified == load.size() && s.hits == load.size() &&
         s.torn_tail_truncations == 0 && s.corrupt_records_skipped == 0;
  }

  // ---- compact ----
  {
    store::SolutionStore store(dir);
    // Supersede half the load: every second key rewritten → dead weight.
    for (std::size_t i = 0; i < load.size(); i += 2)
      store.put(load[i].first.digest, load[i].first.blob, load[i].second);
    const std::size_t dead_before = store.stats().dead_stored_bytes;
    const auto t0 = std::chrono::steady_clock::now();
    store.compact();
    const double wall = seconds_since(t0);
    const store::StoreStats s = store.stats();
    Json compact = Json::object();
    compact.set("wall_s", wall);
    compact.set("reclaimed_bytes", dead_before);
    compact.set("segments_after", s.segments);
    compact.set("entries_after", s.entries);
    root.set("compact", std::move(compact));
    std::printf("compact    : reclaimed %zu dead bytes in %.4f s "
                "(%zu entries, %zu segments)\n",
                dead_before, wall, s.entries, s.segments);
    ok = ok && s.dead_stored_bytes == 0 && s.entries == load.size();
    // Post-compact spot check: everything still byte-identical.
    for (const auto& [key, value] : load) {
      const auto got = store.get(key.digest, key.blob);
      ok = ok && got && *got == value;
    }
  }

  root.set("compression_ratio", compression_ratio);
  report.finish(static_cast<double>(3 * load.size()));

  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);

  if (compression_ratio <= 1.0) {
    std::fprintf(stderr,
                 "bench_store: FAILED — compression ratio %.3f <= 1.0\n",
                 compression_ratio);
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "bench_store: FAILED (verification — see above)\n");
    return 1;
  }
  std::printf("compression ratio: %.3fx\n", compression_ratio);
  return 0;
}
