#ifndef DOMD_TESTS_SERVE_REACTOR_TEST_CLIENT_H_
#define DOMD_TESTS_SERVE_REACTOR_TEST_CLIENT_H_

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "cluster/upstream.h"

namespace domd {
namespace testing_internal {

/// Spin-waits (with short sleeps) until `pred` holds or `timeout` passes.
inline bool WaitFor(const std::function<bool()>& pred,
                    std::chrono::milliseconds timeout =
                        std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// The repo's one socket client (cluster::UpstreamConn) plus what a
/// production client must never do, for wire-level assertions: split
/// writes at arbitrary byte boundaries, half-close, reset abruptly, shrink
/// its receive buffer, or simply stop reading — the misbehaviors the
/// reactor must survive.
class TestClient {
 public:
  using Clock = cluster::UpstreamConn::Clock;

  /// Connects to 127.0.0.1:port. `rcvbuf_bytes` > 0 then shrinks the
  /// client's receive buffer (so the peer hits EAGAIN quickly in
  /// slow-reader tests).
  static TestClient Connect(int port, int rcvbuf_bytes = 0) {
    TestClient client;
    auto conn = cluster::UpstreamConn::Dial(
        {"127.0.0.1", port}, Clock::now() + std::chrono::seconds(5));
    if (!conn.ok()) return client;
    client.conn_ = std::move(*conn);
    if (rcvbuf_bytes > 0) {
      ::setsockopt(client.conn_.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    return client;
  }

  bool connected() const { return conn_.valid(); }

  /// Sends all of `bytes`; returns false on any send failure.
  bool Send(const std::string& bytes) {
    return conn_.Send(bytes, Clock::now() + std::chrono::seconds(10)).ok();
  }

  /// Sends one request line (appends the newline).
  bool SendLine(const std::string& line) { return Send(line + "\n"); }

  /// Sends `bytes` one byte at a time with a brief pause between bytes, so
  /// the peer observes arbitrary read boundaries.
  bool SendByteByByte(const std::string& bytes,
                      std::chrono::microseconds pause =
                          std::chrono::microseconds(200)) {
    for (const char byte : bytes) {
      if (!Send(std::string(1, byte))) return false;
      std::this_thread::sleep_for(pause);
    }
    return true;
  }

  /// Reads the next newline-terminated line (newline stripped), or nullopt
  /// on EOF / error / timeout.
  std::optional<std::string> ReadLine(std::chrono::milliseconds timeout =
                                          std::chrono::milliseconds(10000)) {
    auto line = conn_.ReadLine(Clock::now() + timeout);
    if (!line.ok()) return std::nullopt;
    return std::move(*line);
  }

  /// True once the peer has closed (EOF or reset) within `timeout`. Any
  /// bytes received while waiting are discarded.
  bool AtEof(std::chrono::milliseconds timeout =
                 std::chrono::milliseconds(5000)) {
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now());
      if (remaining.count() <= 0) return false;
      pollfd pfd{conn_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(remaining.count())) <= 0) {
        return false;
      }
      char chunk[4096];
      const ssize_t n = ::recv(conn_.fd(), chunk, sizeof(chunk), 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) return true;
    }
  }

  /// Half-close: FIN the write side, keep reading.
  void ShutdownWrite() { ::shutdown(conn_.fd(), SHUT_WR); }

  /// Abrupt close: SO_LINGER(0) turns close() into a TCP RST.
  void ResetAbruptly() {
    if (!conn_.valid()) return;
    linger hard{1, 0};
    ::setsockopt(conn_.fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    conn_.Close();
  }

 private:
  cluster::UpstreamConn conn_;
};

/// One request/response round trip on a fresh connection to `port`; ""
/// when the connect, the send or the read fails.
inline std::string Rpc(int port, const std::string& line) {
  TestClient client = TestClient::Connect(port);
  if (!client.connected() || !client.SendLine(line)) return "";
  auto response = client.ReadLine();
  return response.has_value() ? *response : "";
}

}  // namespace testing_internal
}  // namespace domd

#endif  // DOMD_TESTS_SERVE_REACTOR_TEST_CLIENT_H_
