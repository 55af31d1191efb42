#pragma once
// serve::LineClient — a minimal blocking client for the gateway, speaking
// either of its framings: newline-delimited JSON (send one line, receive one
// line) or the length-prefixed binary frames of protocol.hpp (send_frame /
// recv_frame). Shared by examples/nash_client.cpp,
// bench/bench_serve_throughput.cpp and tests/test_serve.cpp so the framing
// (and its EINTR/partial-send handling) exists exactly once. Header-only —
// it is client-side convenience, not part of the server.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace cnash::serve {

/// Client-side wait before retrying a shed ("overloaded") or rejected
/// ("draining") solve: the server's retry_after_s hint doubled per attempt
/// (attempt 0 waits the hint itself), capped at `cap_s`, with deterministic
/// ±25% jitter keyed on (key, attempt) so a fleet of clients retrying the
/// same hint decorrelates without shared state — and so tests can assert the
/// exact schedule.
inline double retry_backoff_s(double retry_after_s, std::size_t attempt,
                              std::uint64_t key, double cap_s = 2.0) {
  double base = retry_after_s > 0.0 ? retry_after_s : 0.05;
  for (std::size_t a = 0; a < attempt && base < cap_s; ++a) base *= 2.0;
  if (base > cap_s) base = cap_s;
  std::uint64_t state =
      key ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt + 1));
  const double unit =
      static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
  return base * (0.75 + 0.5 * unit);
}

class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(LineClient&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }
  LineClient& operator=(LineClient&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = other.fd_;
      buffer_ = std::move(other.buffer_);
      other.fd_ = -1;
    }
    return *this;
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// False on failure (errno is left describing the failing call).
  bool connect_to(const std::string& host, unsigned short port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      errno = EINVAL;
      return false;
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0)
      return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }
  bool connect_to(unsigned short port) { return connect_to("127.0.0.1", port); }

  /// Appends the newline terminator itself. False on a lost connection.
  bool send_line(std::string line) {
    line += '\n';
    return send_raw(line.data(), line.size());
  }

  /// Raw bytes, no framing — partial-request and slow-writer (chaos) tests.
  bool send_raw(const char* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t sent = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
      if (sent < 0 && errno == EINTR) continue;
      if (sent <= 0) return false;
      off += static_cast<std::size_t>(sent);
    }
    return true;
  }

  /// One response line without its terminator; false on EOF or error.
  bool recv_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[16384];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  // ---- Binary framing (protocol.hpp) ---------------------------------------
  // The first frame a connection sends switches the server to binary mode;
  // don't mix send_line and send_frame on one connection.

  /// One request frame: the JSON body (method implied by `type`).
  bool send_frame(unsigned char type, const std::string& body) {
    std::string wire;
    encode_frame(type, body, wire);
    return send_raw(wire.data(), wire.size());
  }

  /// One response frame: fills `type` (kFrameFinal / kFrameProgress /
  /// kFrameError) and the JSON `body`. False on EOF, error or a malformed
  /// header (a desynchronised stream cannot be resynchronised).
  bool recv_frame(unsigned char& type, std::string& body) {
    for (;;) {
      std::optional<FrameHeader> header;
      try {
        // Responses have no size limit on this side.
        header = peek_frame(buffer_, std::numeric_limits<std::uint32_t>::max());
      } catch (const ProtocolError&) {
        return false;
      }
      if (header && buffer_.size() >= kFrameHeaderSize + header->length) {
        type = header->type;
        body.assign(buffer_, kFrameHeaderSize, header->length);
        buffer_.erase(0, kFrameHeaderSize + header->length);
        return true;
      }
      char chunk[16384];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace cnash::serve
