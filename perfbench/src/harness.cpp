#include "harness.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/protocol.hpp"

extern char** environ;

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0
                 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

void fail(const std::string& message) {
  kill_all_children();
  std::fprintf(stderr, "perfbench: FATAL: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value))
    fail("metric " + name + " has no finite value (nothing was measured)");
  items_.push_back({name, {value, unit}});
}

cnash::util::Json Metrics::to_json() const {
  cnash::util::Json out = cnash::util::Json::object();
  for (const auto& [name, vu] : items_) {
    cnash::util::Json m = cnash::util::Json::object();
    m.set("value", vu.first);
    m.set("unit", vu.second);
    out.set(name, std::move(m));
  }
  return out;
}

// ---- Traced-run spans -------------------------------------------------------

std::vector<TraceEvent> trace_events(const cnash::obs::TraceRecorder& recorder) {
  std::vector<TraceEvent> out;
  const cnash::util::Json trace = recorder.chrome_trace();
  for (const auto& [key, ev] : trace.at("traceEvents").members()) {
    (void)key;
    TraceEvent e;
    e.name = ev.at("name").as_string();
    e.bench = ev.at("cat").as_string() == kBenchCategory;
    if (const cnash::util::Json* args = ev.find("args"))
      e.op = static_cast<std::uint64_t>(args->at("request").as_number());
    e.t0_us = ev.at("ts").as_number();
    e.t1_us = e.t0_us + ev.at("dur").as_number();
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<double> durations(const std::vector<TraceEvent>& events,
                              const std::string& name) {
  std::vector<double> out;
  for (const TraceEvent& e : events)
    if (e.name == name) out.push_back(e.t1_us - e.t0_us);
  return out;
}

std::vector<LayerRow> layer_table(const std::vector<TraceEvent>& events) {
  // Timestamps are doubles of a nanosecond clock; containment allows for
  // their rounding.
  constexpr double kSlackUs = 1e-3;
  std::map<std::uint64_t, std::vector<std::size_t>> by_op;
  for (std::size_t i = 0; i < events.size(); ++i) by_op[events[i].op].push_back(i);

  std::vector<std::vector<std::pair<double, double>>> children(events.size());
  for (const auto& [op, members] : by_op) {
    (void)op;
    for (std::size_t c : members) {
      const TraceEvent& child = events[c];
      const double child_dur = child.t1_us - child.t0_us;
      std::int64_t parent = -1;
      double parent_dur = 0.0;
      for (std::size_t p : members) {
        const TraceEvent& e = events[p];
        const double dur = e.t1_us - e.t0_us;
        // Equal intervals: the span exported later (a parent closes after
        // its child) is the parent.
        if (p == c || !e.bench || e.t0_us > child.t0_us + kSlackUs ||
            e.t1_us + kSlackUs < child.t1_us || dur < child_dur ||
            (dur == child_dur && p < c))
          continue;
        if (parent < 0 || dur < parent_dur) {
          parent = static_cast<std::int64_t>(p);
          parent_dur = dur;
        }
      }
      if (parent >= 0)
        children[static_cast<std::size_t>(parent)].push_back(
            {child.t0_us, child.t1_us});
    }
  }

  std::vector<LayerRow> rows;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& s = events[i];
    // Union of the children's intervals, clipped to the parent: children on
    // parallel worker threads may overlap each other.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.t0_us);
      hi = std::min(hi, s.t1_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;

    auto row = std::find_if(rows.begin(), rows.end(),
                            [&](const LayerRow& r) { return r.name == s.name; });
    if (row == rows.end()) {
      rows.push_back({s.name, 0, 0.0, 0.0});
      row = rows.end() - 1;
    }
    const double dur = s.t1_us - s.t0_us;
    row->count++;
    row->total_us += dur;
    row->self_us += std::max(0.0, dur - covered);
  }
  return rows;
}

// ---- Conn --------------------------------------------------------------------

Conn::~Conn() { close(); }

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool Conn::open(std::uint16_t port, bool binary) {
  close();
  binary_ = binary;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

bool Conn::next_message(std::string& out, unsigned char& type) {
  if (!binary_) {
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) return false;
    out.assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    type = cnash::serve::kFrameFinal;
    return true;
  }
  if (buf_.size() < cnash::serve::kFrameHeaderSize) return false;
  const auto* b = reinterpret_cast<const unsigned char*>(buf_.data());
  if (b[0] != cnash::serve::kFrameMagic0 || b[1] != cnash::serve::kFrameMagic1)
    throw std::runtime_error("bad response frame magic");
  const std::uint32_t length = static_cast<std::uint32_t>(b[4]) |
                               (static_cast<std::uint32_t>(b[5]) << 8) |
                               (static_cast<std::uint32_t>(b[6]) << 16) |
                               (static_cast<std::uint32_t>(b[7]) << 24);
  if (buf_.size() < cnash::serve::kFrameHeaderSize + length) return false;
  type = b[3];
  out.assign(buf_, cnash::serve::kFrameHeaderSize, length);
  buf_.erase(0, cnash::serve::kFrameHeaderSize + length);
  return true;
}

bool Conn::call(const std::string& body, std::string& response,
                double timeout_s) {
  if (fd_ < 0) return false;
  std::string wire;
  if (binary_) {
    cnash::serve::encode_frame(cnash::serve::kFrameSolve, body, wire);
  } else {
    wire.reserve(body.size() + 1);
    wire = body;
    wire += '\n';
  }
  for (std::size_t off = 0; off < wire.size();) {
    const ssize_t sent =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) {
      close();
      return false;
    }
    off += static_cast<std::size_t>(sent);
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  try {
    for (;;) {
      unsigned char type = 0;
      while (next_message(response, type))
        if (type != cnash::serve::kFrameProgress) return true;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) break;
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, static_cast<int>(left));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) break;
      char chunk[65536];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
  } catch (const std::exception&) {
  }
  close();
  return false;
}

// ---- Process usage -------------------------------------------------------------

ProcUsage proc_usage(pid_t pid) {
  ProcUsage u;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  if (std::getline(stat, line)) {
    // Fields after the parenthesised command: state is field 3, utime 14,
    // stime 15 (1-based, proc(5)).
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::vector<std::string> f;
    for (std::string tok; rest >> tok;) f.push_back(tok);
    if (f.size() > 12) {
      const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
      u.cpu_s = (std::stod(f[11]) + std::stod(f[12])) / ticks;
    }
  }
  std::ifstream status(base + "/status");
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      u.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
  return u;
}

ProcUsage self_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

// ---- Gateway -------------------------------------------------------------------

namespace {

std::mutex g_children_mutex;
std::vector<pid_t> g_children;

}  // namespace

void kill_all_children() {
  std::lock_guard<std::mutex> lock(g_children_mutex);
  for (pid_t pid : g_children) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  g_children.clear();
}

Gateway::Gateway(const GatewayConfig& c) {
  const std::string exe = PERFBENCH_NASH_SERVE;
  std::vector<std::string> args = {
      exe,
      "--serve-threads", std::to_string(c.serve_threads),
      "--threads", std::to_string(c.service_threads),
      "--cache-mb", std::to_string(c.cache_mb),
      "--store-budget-mb", std::to_string(c.store_budget_mb)};
  if (!c.store_dir.empty()) {
    args.push_back("--store-dir");
    args.push_back(c.store_dir);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  const int rc =
      ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("posix_spawn failed");
  }
  {
    std::lock_guard<std::mutex> lock(g_children_mutex);
    g_children.push_back(pid_);
  }

  // The child prints exactly one line on stdout: "LISTENING <port>".
  std::string line;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd p{fds[0], POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) break;
    char chunk[256];
    const ssize_t got = ::read(fds[0], chunk, sizeof chunk);
    if (got <= 0) break;
    line.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 || port == 0) {
    stop();
    throw std::runtime_error("gateway did not announce a port");
  }
  port_ = static_cast<std::uint16_t>(port);
}

Gateway::~Gateway() { stop(); }

cnash::util::Json Gateway::query(const std::string& method) {
  Conn conn;
  std::string response;
  if (!conn.open(port_, false) ||
      !conn.call("{\"method\":\"" + method + "\"}", response, 30.0))
    throw std::runtime_error("gateway " + method + " query failed");
  return cnash::util::Json::parse(response);
}

bool Gateway::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  {
    std::lock_guard<std::mutex> lock(g_children_mutex);
    g_children.erase(std::remove(g_children.begin(), g_children.end(), pid_),
                     g_children.end());
  }
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
