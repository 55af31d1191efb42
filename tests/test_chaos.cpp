// Chaos scenarios against an in-process NashServer (the scripted twin of
// scripts/chaos_smoke.sh, which attacks a live binary). Contracts:
//   * a malformed-line flood gets structured {"ok":false,...} errors and
//     leaves every connection usable;
//   * slow-loris writers (a request dribbled one byte at a time across many
//     simultaneously-incomplete connections) all complete once their final
//     byte lands — no slow writer blocks the poll loop;
//   * a mid-request disconnect storm (half-written lines, peers vanishing
//     before their response) leaves the server coherent: later requests are
//     served and the dead fds are reaped;
//   * with an injected write-stall fault plan (every flush sends at most one
//     byte) responses still arrive intact via POLLOUT-driven drains;
//   * with an injected disconnect fault plan every response tears the
//     connection down — clients see EOF, the server counts the injections
//     and survives;
//   * degraded (deadline) and fallback (resilient) reports are never
//     inserted into the solution cache: the identical follow-up request is
//     solved again, not replayed.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "game/games.hpp"
#include "serve/line_client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace cnash::serve {
namespace {

class ServerFixture {
 public:
  explicit ServerFixture(ServeOptions options = {}) : server_(options) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerFixture() { stop(); }

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

const char kStatusLine[] = "{\"method\":\"status\",\"id\":7}";

std::string tiny_solve_line(int id, std::uint64_t seed) {
  return "{\"method\":\"solve\",\"id\":" + std::to_string(id) +
         ",\"game\":{\"name\":\"mp\",\"m\":[[1,-1],[-1,1]],"
         "\"n\":[[-1,1],[1,-1]]},\"backend\":\"exact-sa\",\"runs\":2,"
         "\"iterations\":80,\"seed\":" + std::to_string(seed) + "}";
}

util::Json request(LineClient& client, const std::string& line) {
  EXPECT_TRUE(client.send_line(line));
  std::string response;
  EXPECT_TRUE(client.recv_line(response));
  return util::Json::parse(response);
}

TEST(Chaos, MalformedFloodGetsStructuredErrorsOnUsableConnections) {
  ServerFixture fixture;
  const char* bad_lines[] = {
      "{not json at all",
      "{\"method\":42}",
      "{\"method\":\"no-such-method\",\"id\":3}",
      "{\"method\":\"solve\",\"id\":4,\"game\":{\"m\":[[1]],\"n\":[[1]]},"
      "\"runs\":-5}",
  };
  const std::size_t flood = 32;
  for (std::size_t i = 0; i < flood; ++i) {
    LineClient client;
    ASSERT_TRUE(client.connect_to(fixture.port())) << std::strerror(errno);
    const util::Json error = request(client, bad_lines[i % 4]);
    ASSERT_FALSE(error.at("ok").as_bool()) << "flood line " << i;
    EXPECT_TRUE(error.find("error")) << "unstructured error, line " << i;
    EXPECT_FALSE(error.at("error").at("message").as_string().empty());
    // The same socket still serves a good request afterwards.
    const util::Json status = request(client, kStatusLine);
    EXPECT_TRUE(status.at("ok").as_bool()) << "connection dead after error";
  }
  LineClient probe;
  ASSERT_TRUE(probe.connect_to(fixture.port()));
  const util::Json stats = request(probe, "{\"method\":\"stats\"}");
  EXPECT_GE(stats.at("stats").at("served").at("errors").as_number(),
            static_cast<double>(flood));
}

TEST(Chaos, SlowLorisDribbledRequestsAllComplete) {
  ServerFixture fixture;
  const std::size_t held = 48;
  std::vector<LineClient> conns(held);
  for (std::size_t i = 0; i < held; ++i)
    ASSERT_TRUE(conns[i].connect_to(fixture.port())) << std::strerror(errno);

  // Dribble one byte per connection per round: all connections sit incomplete
  // in the server's input buffers for the whole ramp.
  const std::string line = std::string(kStatusLine) + "\n";
  for (std::size_t pos = 0; pos < line.size(); ++pos)
    for (std::size_t i = 0; i < held; ++i)
      ASSERT_TRUE(conns[i].send_raw(line.data() + pos, 1))
          << "byte " << pos << " conn " << i;

  for (std::size_t i = 0; i < held; ++i) {
    std::string response;
    ASSERT_TRUE(conns[i].recv_line(response)) << "conn " << i;
    EXPECT_TRUE(util::Json::parse(response).at("ok").as_bool()) << response;
  }
}

TEST(Chaos, DisconnectStormLeavesTheServerCoherent) {
  ServerFixture fixture;
  for (std::size_t i = 0; i < 64; ++i) {
    LineClient client;
    ASSERT_TRUE(client.connect_to(fixture.port())) << std::strerror(errno);
    const std::string line = tiny_solve_line(static_cast<int>(i), 1000 + i);
    if (i % 2) {
      // Half a request, then vanish (destructor closes the socket).
      ASSERT_TRUE(client.send_raw(line.data(), line.size() / 2));
    } else {
      // A full solve whose response lands on a closed peer.
      ASSERT_TRUE(client.send_line(line));
    }
  }
  // The server survives and still serves: a fresh solve round-trips.
  LineClient probe;
  ASSERT_TRUE(probe.connect_to(fixture.port()));
  const util::Json solved = request(probe, tiny_solve_line(99, 424242));
  ASSERT_TRUE(solved.at("ok").as_bool());
  EXPECT_EQ(solved.at("report").at("backend").as_string(), "exact-sa");
}

TEST(Chaos, WriteStallFaultStillDeliversIntactResponses) {
  ServeOptions options;
  options.fault.seed = 7;
  options.fault.write_stall_rate = 1.0;  // every flush sends at most one byte
  ServerFixture fixture(options);

  LineClient client;
  ASSERT_TRUE(client.connect_to(fixture.port()));
  // A solve response is kilobytes: with every flush stalled it only reaches
  // the client through POLLOUT-driven drains, one stalled event at a time.
  const util::Json solved = request(client, tiny_solve_line(1, 5));
  ASSERT_TRUE(solved.at("ok").as_bool());
  EXPECT_EQ(solved.at("report").at("samples").size(), 2u);

  const util::Json stats = request(client, "{\"method\":\"stats\"}");
  EXPECT_GT(stats.at("stats").at("served").at("write_stalls").as_number(),
            0.0);
}

TEST(Chaos, InjectedDisconnectsTearConnectionsDownVisibly) {
  ServeOptions options;
  options.fault.seed = 11;
  options.fault.disconnect_rate = 1.0;  // every response aborts the connection
  ServerFixture fixture(options);

  for (int i = 0; i < 8; ++i) {
    LineClient client;
    ASSERT_TRUE(client.connect_to(fixture.port()));
    ASSERT_TRUE(client.send_line(kStatusLine));
    std::string response;
    EXPECT_FALSE(client.recv_line(response)) << "response survived the fault";
  }
  fixture.stop();  // single-threaded access to the counters from here on
  EXPECT_EQ(fixture.server()
                .stats()
                .at("served")
                .at("injected_disconnects")
                .as_number(),
            8.0);
}

TEST(Chaos, DegradedAndFallbackReportsAreNeverCached) {
  ServeOptions options;
  options.service_threads = 2;
  ServerFixture fixture(options);
  LineClient client;
  ASSERT_TRUE(client.connect_to(fixture.port()));

  // A 100% tile-fault resilient solve: every unit falls back to exact-sa.
  const std::string resilient_line =
      "{\"method\":\"solve\",\"id\":1,\"game\":{\"name\":\"mp\","
      "\"m\":[[1,-1],[-1,1]],\"n\":[[-1,1],[1,-1]]},\"backend\":\"resilient\","
      "\"primary\":\"hardware-sa-tiled\",\"runs\":4,\"iterations\":200,"
      "\"seed\":7,\"fault\":{\"seed\":11,\"tile_rate\":1.0}}";
  for (int round = 0; round < 2; ++round) {
    const util::Json solved = request(client, resilient_line);
    ASSERT_TRUE(solved.at("ok").as_bool()) << "round " << round;
    EXPECT_EQ(solved.at("report").at("fallback_count").as_number(), 4.0);
  }

  // A deadline solve degraded mid-flight (64 single-lane heavy units on a
  // 2-worker pool cannot finish in a quarter second).
  const std::string deadline_line =
      "{\"method\":\"solve\",\"id\":2,\"game\":{\"name\":\"mp\","
      "\"m\":[[1,-1],[-1,1]],\"n\":[[-1,1],[1,-1]]},\"backend\":\"exact-sa\","
      "\"runs\":64,\"iterations\":1000000,\"seed\":3,\"batch_lanes\":1,"
      "\"deadline_s\":0.25}";
  for (int round = 0; round < 2; ++round) {
    const util::Json solved = request(client, deadline_line);
    ASSERT_TRUE(solved.at("ok").as_bool()) << "round " << round;
    EXPECT_TRUE(solved.at("report").at("degraded").as_bool())
        << "round " << round;
  }

  // Neither report entered the cache: the repeats were re-solved, and all
  // four responses were counted as uncached.
  const util::Json stats = request(client, "{\"method\":\"stats\"}");
  const util::Json& served = stats.at("stats").at("served");
  EXPECT_EQ(served.at("cache_hits").as_number(), 0.0);
  EXPECT_EQ(served.at("uncached_reports").as_number(), 4.0);
  EXPECT_EQ(stats.at("stats").at("cache").at("insertions").as_number(), 0.0);
  EXPECT_EQ(served.at("jobs_submitted").as_number(), 4.0);
}

}  // namespace
}  // namespace cnash::serve
