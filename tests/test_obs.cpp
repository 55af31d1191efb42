// The telemetry layer (src/obs/) and its gateway integration. Contracts
// under test:
//   * Histogram: log-linear bucket boundaries round-trip (bucket_index of a
//     bucket's lower bound is that bucket), percentiles of samples recorded
//     exactly at bucket lower bounds reproduce those values EXACTLY,
//     count/sum/min/max are exact, merge() is associative;
//   * Registry: get-or-create identity (stable instrument addresses),
//     scrape-time collect callbacks, JSON and Prometheus text exposition
//     shapes (one TYPE line per base name across labeled series);
//   * TraceRecorder/Span: a disabled recorder records nothing (the <2%
//     overhead contract starts here), spans nest and the exported Chrome
//     trace is timestamp-ordered;
//   * end-to-end: the `metrics` wire method returns every registered
//     instrument family in both JSON and text form while the server runs, a
//     replica-exchange solve surfaces nonzero swap counters, and a traced
//     run under --serve-threads 4 yields a deterministic per-request span
//     structure (every submitted solve's trace id carries the full
//     request → canonicalize → cache → admit → queue-wait → prepare/unit →
//     render → flush pipeline).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "game/games.hpp"
#include "game/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/line_client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cnash::obs {
namespace {

// ---- Histogram: bucket boundaries -------------------------------------------

TEST(Histogram, BucketLowerBoundsRoundTripThroughBucketIndex) {
  // Every finite bucket's lower bound must land back in that bucket — the
  // property that makes percentile() exact for boundary-valued samples.
  for (int i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const double lb = Histogram::bucket_lower_bound(i);
    EXPECT_EQ(Histogram::bucket_index(lb), i) << "bucket " << i << " lb " << lb;
  }
  // Lower bounds are strictly increasing over the finite range.
  for (int i = 1; i + 2 < Histogram::kBuckets; ++i)
    EXPECT_LT(Histogram::bucket_lower_bound(i),
              Histogram::bucket_lower_bound(i + 1));
}

TEST(Histogram, EdgeValuesBucketSanely) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMaxExp + 3)),
            Histogram::kBuckets - 1);
  // Far-underflow positives collapse into the underflow bucket too.
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMinExp - 8)),
            0);
}

TEST(Histogram, PercentilesAreExactForBoundaryValuedSamples) {
  // All ten samples sit exactly on bucket lower bounds (powers of two are
  // always a bucket's first sub-bucket), so every percentile must come back
  // bit-exact: lower-bound-of-bucket == the recorded value.
  const std::vector<double> samples = {0.25, 0.5, 1.0,  2.0,  4.0,
                                       8.0,  16.0, 32.0, 64.0, 128.0};
  Histogram h;
  for (double s : samples) h.record(s);

  ASSERT_EQ(h.count(), samples.size());
  // rank = ceil(q * 10): p50 → 5th smallest, p95/p99 → 10th.
  EXPECT_EQ(h.percentile(0.50), 4.0);
  EXPECT_EQ(h.percentile(0.95), 128.0);
  EXPECT_EQ(h.percentile(0.99), 128.0);
  EXPECT_EQ(h.percentile(0.10), 0.25);
  EXPECT_EQ(h.percentile(1.00), 128.0);
  EXPECT_EQ(h.min(), 0.25);
  EXPECT_EQ(h.max(), 128.0);
  double sum = 0.0;
  for (double s : samples) sum += s;
  EXPECT_EQ(h.sum(), sum);

  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.p50, 4.0);
  EXPECT_EQ(snap.p95, 128.0);
  EXPECT_EQ(snap.p99, 128.0);
}

TEST(Histogram, RepeatedSingleValueIsEveryPercentile) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(0.001953125);  // 2^-9, a boundary
  for (double q : {0.01, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(h.percentile(q), 0.001953125) << "q=" << q;
}

TEST(Histogram, UnderflowSamplesResolveToTheExactMin) {
  Histogram h;
  h.record(0.0);
  h.record(0.0);
  h.record(1.0);
  // Ranks 1 and 2 land in the underflow bucket, which reports the exact
  // recorded minimum rather than a fictitious bound.
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(1.0), 1.0);
  EXPECT_EQ(h.min(), 0.0);
}

TEST(Histogram, EmptyHistogramReportsNaN) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.percentile(0.5)));
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
}

TEST(Histogram, MergeIsAssociativeBucketForBucket) {
  util::Rng rng(1234);
  auto fill = [&](Histogram& h, int n) {
    for (int i = 0; i < n; ++i)
      h.record(std::ldexp(0.5 + rng.uniform(), static_cast<int>(
                                                   rng.uniform() * 40) -
                                                   20));
  };
  Histogram a, b, c;
  fill(a, 200);
  fill(b, 150);
  fill(c, 75);

  // (a + b) + c  vs  a + (b + c), rebuilt from identical streams — merge has
  // no subtraction, so replaying the same records yields identical state.
  util::Rng rng2(1234);
  auto fill2 = [&](Histogram& h, int n) {
    for (int i = 0; i < n; ++i)
      h.record(std::ldexp(0.5 + rng2.uniform(), static_cast<int>(
                                                    rng2.uniform() * 40) -
                                                    20));
  };
  Histogram a2, b2, c2;
  fill2(a2, 200);
  fill2(b2, 150);
  fill2(c2, 75);

  a.merge(b);   // a = a + b
  a.merge(c);   // a = (a + b) + c
  b2.merge(c2); // b2 = b + c
  a2.merge(b2); // a2 = a + (b + c)

  EXPECT_EQ(a.count(), a2.count());
  EXPECT_EQ(a.sum(), a2.sum());
  EXPECT_EQ(a.min(), a2.min());
  EXPECT_EQ(a.max(), a2.max());
  for (double q = 0.01; q <= 1.0; q += 0.01)
    EXPECT_EQ(a.percentile(q), a2.percentile(q)) << "q=" << q;
}

// ---- Registry ---------------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableIdenticalInstruments) {
  Registry reg;
  Counter& c1 = reg.counter("cnash_test_total");
  Counter& c2 = reg.counter("cnash_test_total");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);
  Histogram& h1 = reg.histogram("cnash_test_seconds");
  Histogram& h2 = reg.histogram("cnash_test_seconds");
  EXPECT_EQ(&h1, &h2);
  Gauge& g1 = reg.gauge("cnash_test_depth");
  Gauge& g2 = reg.gauge("cnash_test_depth");
  EXPECT_EQ(&g1, &g2);
}

TEST(Registry, CollectCallbacksRunBeforeEveryScrape) {
  Registry reg;
  int collects = 0;
  reg.on_collect([&] {
    collects++;
    reg.gauge("cnash_mirrored").set(42.0);
  });
  const util::Json json = reg.to_json();
  EXPECT_EQ(collects, 1);
  EXPECT_EQ(json.at("gauges").at("cnash_mirrored").as_number(), 42.0);
  const std::string text = reg.text_exposition();
  EXPECT_EQ(collects, 2);
  EXPECT_NE(text.find("cnash_mirrored 42"), std::string::npos);
}

TEST(Registry, JsonExpositionCarriesHistogramQuantiles) {
  Registry reg;
  Histogram& h = reg.histogram("cnash_latency_seconds");
  for (double v : {0.5, 1.0, 2.0, 4.0}) h.record(v);
  const util::Json json = reg.to_json();
  const util::Json& hist = json.at("histograms").at("cnash_latency_seconds");
  EXPECT_EQ(hist.at("count").as_number(), 4.0);
  EXPECT_EQ(hist.at("p50").as_number(), 1.0);
  EXPECT_EQ(hist.at("p99").as_number(), 4.0);
  EXPECT_EQ(hist.at("min").as_number(), 0.5);
  EXPECT_EQ(hist.at("max").as_number(), 4.0);
}

TEST(Registry, TextExpositionMergesLabeledSeriesUnderOneTypeLine) {
  Registry reg;
  reg.counter("cnash_jobs_total{backend=\"exact-sa\"}").add(2);
  reg.counter("cnash_jobs_total{backend=\"hardware-sa\"}").add(5);
  reg.gauge("cnash_depth").set(1.5);
  Histogram& h = reg.histogram("cnash_stage_seconds");
  h.record(1.0);

  const std::string text = reg.text_exposition();
  // Exactly one TYPE line for the labeled counter family.
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE cnash_jobs_total counter", pos)) !=
         std::string::npos) {
    type_lines++;
    pos++;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("cnash_jobs_total{backend=\"exact-sa\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cnash_jobs_total{backend=\"hardware-sa\"} 5"),
            std::string::npos);
  // Histogram renders as a summary with quantile labels + _sum/_count.
  EXPECT_NE(text.find("# TYPE cnash_stage_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("cnash_stage_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cnash_stage_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("cnash_stage_seconds_sum 1"), std::string::npos);
  // Every line is newline-terminated (Prometheus parsers require it).
  EXPECT_EQ(text.back(), '\n');
}

TEST(Registry, TextExpositionKeepsAFamilyTogetherAcrossLaterRegistrations) {
  // A labelled series registered after another family (a second backend's
  // first solve) still joins its family: Prometheus' text parser rejects a
  // second TYPE line for one family.
  Registry reg;
  reg.counter("a_total{k=\"x\"}").add(1);
  reg.counter("b_total").add(2);
  reg.counter("a_total{k=\"y\"}").add(3);
  EXPECT_EQ(reg.text_exposition(),
            "# TYPE a_total counter\n"
            "a_total{k=\"x\"} 1\n"
            "a_total{k=\"y\"} 3\n"
            "# TYPE b_total counter\n"
            "b_total 2\n");
}

// ---- TraceRecorder / Span ---------------------------------------------------

TEST(Trace, DisabledRecorderRecordsNothing) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  {
    Span s(&rec, "outer", "test", 1);
    Span t(nullptr, "null-recorder", "test", 2);
    EXPECT_FALSE(s.active());
    EXPECT_FALSE(t.active());
  }
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, NestedSpansExportEnclosedAndTimestampOrdered) {
  TraceRecorder rec;
  rec.enable();
  const std::uint64_t id = rec.new_trace_id();
  {
    Span outer(&rec, "outer", "test", id);
    {
      Span inner(&rec, "inner", "test", id);
    }
  }
  ASSERT_EQ(rec.event_count(), 2u);
  const util::Json trace = rec.chrome_trace();
  const util::Json& events = trace.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start: outer begins first (it opened first)...
  const util::Json& first = events.at(0);
  const util::Json& second = events.at(1);
  EXPECT_EQ(first.at("name").as_string(), "outer");
  EXPECT_EQ(second.at("name").as_string(), "inner");
  // ... and fully encloses inner.
  EXPECT_LE(first.at("ts").as_number(), second.at("ts").as_number());
  EXPECT_GE(first.at("ts").as_number() + first.at("dur").as_number(),
            second.at("ts").as_number() + second.at("dur").as_number());
  for (const util::Json* e : {&first, &second}) {
    EXPECT_EQ(e->at("ph").as_string(), "X");
    EXPECT_EQ(e->at("pid").as_number(), 1.0);
    EXPECT_EQ(e->at("args").at("request").as_number(),
              static_cast<double>(id));
  }
}

TEST(Trace, ExportIsTimestampOrderedAcrossThreads) {
  TraceRecorder rec;
  rec.enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < 50; ++i)
        Span(&rec, "work", "test", static_cast<std::uint64_t>(t)), (void)0;
    });
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(rec.event_count(), 200u);
  const util::Json trace = rec.chrome_trace();
  const util::Json& events = trace.at("traceEvents");
  double last = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double ts = events.at(i).at("ts").as_number();
    EXPECT_GE(ts, last);
    last = ts;
  }
}

}  // namespace
}  // namespace cnash::obs

// ---- End-to-end: the gateway's metrics method and pipeline tracing ----------

namespace cnash::serve {
namespace {

std::string solve_line(const game::BimatrixGame& g, int id,
                       const std::string& extra = "") {
  std::string line = "{\"method\":\"solve\",\"id\":" + std::to_string(id);
  line += ",\"game_text\":" +
          util::Json::string(game::serialize_game(g, /*precision=*/12)).dump();
  line += ",\"backend\":\"exact-sa\",\"runs\":4,\"iterations\":200,"
          "\"seed\":7";
  line += extra;
  line += "}";
  return line;
}

class ObsServerFixture {
 public:
  explicit ObsServerFixture(ServeOptions options = {}) : server_(options) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ObsServerFixture() { stop(); }
  void stop() {
    if (!thread_.joinable()) return;
    server_.request_stop();
    thread_.join();
  }
  NashServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }

 private:
  NashServer server_;
  std::thread thread_;
};

util::Json roundtrip(LineClient& client, const std::string& line) {
  EXPECT_TRUE(client.send_line(line));
  std::string response;
  EXPECT_TRUE(client.recv_line(response));
  return util::Json::parse(response);
}

TEST(ServeObservability, MetricsMethodReturnsEveryInstrumentFamily) {
  ObsServerFixture fixture;
  LineClient client;
  ASSERT_TRUE(client.connect_to("127.0.0.1", fixture.port()));

  // One miss-then-hit pair so cache counters and stage histograms have data.
  const game::BimatrixGame g = game::prisoners_dilemma();
  for (int i = 0; i < 2; ++i) {
    const util::Json r = roundtrip(client, solve_line(g, i));
    ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
  }

  const util::Json response = roundtrip(client, "{\"method\":\"metrics\"}");
  ASSERT_TRUE(response.at("ok").as_bool());
  const util::Json& metrics = response.at("metrics");
  const util::Json& counters = metrics.at("counters");
  const util::Json& gauges = metrics.at("gauges");
  const util::Json& histograms = metrics.at("histograms");

  for (const char* name :
       {"cnash_cache_hits_total", "cnash_cache_misses_total",
        "cnash_admission_admitted_total", "cnash_store_hits_total",
        "cnash_requests_total", "cnash_served_solves_ok_total",
        "cnash_re_swap_proposals_total", "cnash_re_swap_accepts_total",
        "cnash_fallback_samples_total", "cnash_degraded_reports_total",
        "cnash_solve_jobs_total{backend=\"exact-sa\"}"})
    EXPECT_NE(counters.find(name), nullptr) << name;
  for (const char* name :
       {"cnash_cache_entries", "cnash_service_threads", "cnash_connections",
        "cnash_uptime_seconds", "cnash_store_enabled",
        "cnash_re_swap_accept_rate", "cnash_pending_solves"})
    EXPECT_NE(gauges.find(name), nullptr) << name;
  for (const char* name :
       {"cnash_stage_parse_seconds", "cnash_stage_canonicalize_seconds",
        "cnash_stage_cache_lookup_seconds", "cnash_stage_admit_seconds",
        "cnash_stage_render_seconds", "cnash_stage_flush_seconds",
        "cnash_request_handle_seconds", "cnash_solve_wall_seconds",
        "cnash_stage_prepare_seconds", "cnash_stage_unit_seconds",
        "cnash_stage_queue_wait_seconds"})
    EXPECT_NE(histograms.find(name), nullptr) << name;

  // The solved pair must be visible in the mirrors and stage histograms.
  EXPECT_EQ(counters.at("cnash_cache_hits_total").as_number(), 1.0);
  EXPECT_EQ(counters.at("cnash_cache_misses_total").as_number(), 1.0);
  EXPECT_EQ(
      counters.at("cnash_solve_jobs_total{backend=\"exact-sa\"}").as_number(),
      1.0);
  EXPECT_GE(histograms.at("cnash_stage_parse_seconds").at("count").as_number(),
            3.0);  // two solves + this metrics request
  EXPECT_GE(histograms.at("cnash_stage_unit_seconds").at("count").as_number(),
            1.0);
  EXPECT_EQ(histograms.at("cnash_solve_wall_seconds").at("count").as_number(),
            1.0);

  // Text exposition via the wire: same instruments, Prometheus shape.
  const util::Json text_response =
      roundtrip(client, "{\"method\":\"metrics\",\"format\":\"text\"}");
  ASSERT_TRUE(text_response.at("ok").as_bool());
  const std::string text = text_response.at("metrics_text").as_string();
  EXPECT_NE(text.find("# TYPE cnash_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("cnash_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(
      text.find("cnash_stage_cache_lookup_seconds{quantile=\"0.99\"}"),
      std::string::npos);

  // Bad format selector is a structured error, not a closed connection.
  const util::Json bad =
      roundtrip(client, "{\"method\":\"metrics\",\"format\":\"xml\"}");
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").at("code").as_string(), "bad_request");
}

TEST(ServeObservability, ReplicaExchangeSwapRatesSurfaceInMetrics) {
  ObsServerFixture fixture;
  LineClient client;
  ASSERT_TRUE(client.connect_to("127.0.0.1", fixture.port()));

  const game::BimatrixGame g = game::matching_pennies();
  const util::Json r = roundtrip(
      client, solve_line(g, 1,
                         ",\"sa_mode\":\"replica-exchange\",\"replicas\":4"));
  ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();

  const util::Json metrics =
      roundtrip(client, "{\"method\":\"metrics\"}").at("metrics");
  const double proposals =
      metrics.at("counters").at("cnash_re_swap_proposals_total").as_number();
  const double accepts =
      metrics.at("counters").at("cnash_re_swap_accepts_total").as_number();
  EXPECT_GT(proposals, 0.0);
  EXPECT_GE(proposals, accepts);
  const double rate =
      metrics.at("gauges").at("cnash_re_swap_accept_rate").as_number();
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  if (proposals > 0.0) {
    EXPECT_EQ(rate, accepts / proposals);
  }
}

TEST(ServeObservability, StatusCarriesBuildAndDeploymentIdentity) {
  ServeOptions options;
  options.serve_threads = 2;
  ObsServerFixture fixture(options);
  LineClient client;
  ASSERT_TRUE(client.connect_to("127.0.0.1", fixture.port()));

  const util::Json response = roundtrip(client, "{\"method\":\"status\"}");
  ASSERT_TRUE(response.at("ok").as_bool());
  const util::Json& status = response.at("status");
  EXPECT_FALSE(status.at("git_sha").as_string().empty());
  const std::string simd = status.at("simd_level").as_string();
  EXPECT_TRUE(simd == "scalar" || simd == "avx2" || simd == "avx512") << simd;
  EXPECT_FALSE(status.at("store_enabled").as_bool());
  EXPECT_GE(status.at("uptime_s").as_number(), 0.0);
  EXPECT_EQ(status.at("serve_threads").as_number(), 2.0);
}

TEST(ServeObservability, DisabledTracingRecordsNoSpans) {
  ObsServerFixture fixture;
  LineClient client;
  ASSERT_TRUE(client.connect_to("127.0.0.1", fixture.port()));
  const game::BimatrixGame g = game::prisoners_dilemma();
  ASSERT_TRUE(roundtrip(client, solve_line(g, 1)).at("ok").as_bool());
  EXPECT_FALSE(fixture.server().trace_recorder().enabled());
  EXPECT_EQ(fixture.server().trace_recorder().event_count(), 0u);
}

TEST(ServeObservability, TracedRunUnderFourLoopsYieldsCompletePipelines) {
  const std::string trace_path =
      "/tmp/cnash_obs_trace_" + std::to_string(::getpid()) + ".json";
  {
    ServeOptions options;
    options.serve_threads = 4;
    options.service_threads = 2;
    options.trace_out = trace_path;
    ObsServerFixture fixture(options);

    // Several concurrent connections across the four loops, each its own
    // distinct game (no coalescing), so many request pipelines interleave.
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t)
      clients.emplace_back([&fixture, t] {
        LineClient client;
        ASSERT_TRUE(client.connect_to("127.0.0.1", fixture.port()));
        util::Rng rng(100 + t);
        for (int i = 0; i < 3; ++i) {
          la::Matrix m(3, 3), n(3, 3);
          for (std::size_t r = 0; r < 3; ++r)
            for (std::size_t c = 0; c < 3; ++c) {
              m(r, c) = rng.uniform();
              n(r, c) = rng.uniform();
            }
          std::string name = "t";
          name += std::to_string(t);
          name += 'g';
          name += std::to_string(i);
          const game::BimatrixGame g(std::move(m), std::move(n), name);
          const util::Json r =
              roundtrip(client, solve_line(g, t * 10 + i));
          ASSERT_TRUE(r.at("ok").as_bool()) << r.dump();
        }
      });
    for (std::thread& t : clients) t.join();
    fixture.stop();  // drain writes the trace file
  }

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const util::Json trace = util::Json::parse(buf.str());
  const util::Json& events = trace.at("traceEvents");
  ASSERT_GT(events.size(), 0u);

  // Group spans by request (trace id); ts ordering must hold globally.
  std::map<std::uint64_t, std::set<std::string>> by_request;
  double last_ts = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events.at(i);
    EXPECT_EQ(e.at("ph").as_string(), "X");
    const double ts = e.at("ts").as_number();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (const util::Json* args = e.find("args"))
      if (const util::Json* req = args->find("request"))
        by_request[static_cast<std::uint64_t>(req->as_number())].insert(
            e.at("name").as_string());
  }

  // Deterministic span structure: every request that reached the solver
  // carries the complete pipeline, regardless of which loop/worker ran it.
  std::size_t solved = 0;
  for (const auto& [id, names] : by_request) {
    if (!names.count("unit")) continue;  // status/metrics or hit-only id
    solved++;
    for (const char* stage :
         {"request", "parse", "canonicalize", "cache", "admit", "queue-wait",
          "prepare", "unit", "render", "flush"})
      EXPECT_TRUE(names.count(stage))
          << "request " << id << " missing span " << stage;
  }
  EXPECT_EQ(solved, 12u);  // 4 clients × 3 distinct games
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace cnash::serve
