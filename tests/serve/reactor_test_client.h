#ifndef DOMD_TESTS_SERVE_REACTOR_TEST_CLIENT_H_
#define DOMD_TESTS_SERVE_REACTOR_TEST_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>

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

/// A deliberately low-level blocking TCP client for wire-level assertions:
/// it can split writes at arbitrary byte boundaries, half-close, reset
/// abruptly, or simply stop reading — the misbehaviors the reactor must
/// survive.
class TestClient {
 public:
  TestClient() = default;
  ~TestClient() { Close(); }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;
  TestClient(TestClient&& other) noexcept { *this = std::move(other); }
  TestClient& operator=(TestClient&& other) noexcept {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
    return *this;
  }

  /// Connects to 127.0.0.1:port. `rcvbuf_bytes` > 0 shrinks the client's
  /// receive buffer before connecting (so the peer hits EAGAIN quickly in
  /// slow-reader tests).
  static TestClient Connect(int port, int rcvbuf_bytes = 0) {
    TestClient client;
    client.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (client.fd_ < 0) return client;
    if (rcvbuf_bytes > 0) {
      ::setsockopt(client.fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    const int one = 1;
    ::setsockopt(client.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(client.fd_);
      client.fd_ = -1;
    }
    return client;
  }

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends all of `bytes`; returns false on any send failure.
  bool Send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
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
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready <= 0) return std::nullopt;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;  // EOF or reset.
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True once the peer has closed (EOF or reset) within `timeout`. Any
  /// bytes received while waiting are discarded.
  bool AtEof(std::chrono::milliseconds timeout =
                 std::chrono::milliseconds(5000)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(remaining.count())) <= 0) {
        return false;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return true;
    }
  }

  /// Half-close: FIN the write side, keep reading.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Abrupt close: SO_LINGER(0) turns close() into a TCP RST.
  void ResetAbruptly() {
    if (fd_ < 0) return;
    linger hard{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd_);
    fd_ = -1;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
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
