#include "cluster/upstream.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "fault/fault.h"
#include "serve/reactor.h"

namespace domd {
namespace cluster {
namespace {

using Clock = UpstreamConn::Clock;

/// A dial's budget when the caller's deadline is later.
constexpr std::chrono::milliseconds kConnectTimeout{1000};
/// Idle connections kept per endpoint; extras close on Return.
constexpr std::size_t kMaxIdlePerEndpoint = 8;

/// True once `fd` is ready for `events`; false when `deadline` passes
/// first (or poll itself fails). Polls at least once, so a deadline
/// already past still sees what has arrived, and resumes after a signal
/// and after each capped poll, so only the deadline ends the wait.
bool WaitReady(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{fd, events, 0};
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::clamp<std::int64_t>(remaining.count(),
                                                           0, 60000)));
    if (ready > 0) return true;
    if (ready < 0 && errno != EINTR) return false;
    if (Clock::now() >= deadline) return false;
  }
}

/// A fresh dial bounded by kConnectTimeout (and by `deadline` if sooner).
StatusOr<UpstreamConn> PoolDial(const Endpoint& endpoint,
                                Clock::time_point deadline) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("cluster.route.connect").Check());
  return UpstreamConn::Dial(
      endpoint, std::min(deadline, Clock::now() + kConnectTimeout));
}

/// Sends `line` on `conn` and reads one answer.
StatusOr<std::string> Exchange(UpstreamConn& conn, const std::string& line,
                               Clock::time_point deadline) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("cluster.route.send").Check());
  DOMD_RETURN_IF_ERROR(conn.SendLine(line, deadline));
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("cluster.route.recv").Check());
  return conn.ReadLine(deadline);
}

}  // namespace

UpstreamConn& UpstreamConn::operator=(UpstreamConn&& other) noexcept {
  Close();
  fd_ = other.fd_;
  buffer_ = std::move(other.buffer_);
  scanned_ = other.scanned_;
  other.fd_ = -1;
  other.scanned_ = 0;
  return *this;
}

void UpstreamConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  scanned_ = 0;
}

StatusOr<UpstreamConn> UpstreamConn::Dial(const Endpoint& endpoint,
                                          Clock::time_point deadline) {
  bool pending = false;
  const StatusOr<int> dialed =
      StartDial(endpoint.host, endpoint.port, &pending);
  if (!dialed.ok()) return dialed.status();
  UpstreamConn conn;
  conn.fd_ = *dialed;
  const std::string where = "connect " + endpoint.ToString();
  // Wait for the non-blocking connect to resolve, bounded by the deadline.
  if (pending && !WaitReady(conn.fd_, POLLOUT, deadline)) {
    return Status::Unavailable(where + ": timed out");
  }
  int error = 0;
  socklen_t len = sizeof(error);
  if (::getsockopt(conn.fd_, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
      error != 0) {
    return Status::Unavailable(where + ": " + std::strerror(error));
  }
  return conn;
}

Status UpstreamConn::Send(std::string_view bytes,
                          Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!WaitReady(fd_, POLLOUT, deadline)) {
        return Status::Unavailable("upstream send timed out");
      }
    } else if (n < 0 && errno != EINTR) {
      return Status::Unavailable("upstream send: " +
                                 std::string(std::strerror(errno)));
    }
  }
  return Status::OK();
}

Status UpstreamConn::SendLine(const std::string& line,
                              Clock::time_point deadline) {
  return Send(line + "\n", deadline);
}

StatusOr<std::string> UpstreamConn::ReadLine(Clock::time_point deadline) {
  for (;;) {
    // Each byte is searched once: a long line arriving over many reads
    // costs linear time, not quadratic.
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      std::string out = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return out;
    }
    scanned_ = buffer_.size();
    if (!WaitReady(fd_, POLLIN, deadline)) {
      return Status::Unavailable("upstream read timed out");
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::Unavailable("upstream closed the connection");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return Status::Unavailable("upstream read: " +
                                 std::string(std::strerror(errno)));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

UpstreamConn UpstreamPool::TakeIdle(const Endpoint& endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = idle_.find(endpoint.ToString());
  if (it == idle_.end() || it->second.empty()) return UpstreamConn();
  UpstreamConn conn = std::move(it->second.back());
  it->second.pop_back();
  return conn;
}

StatusOr<UpstreamConn> UpstreamPool::Checkout(const Endpoint& endpoint,
                                              Clock::time_point deadline) {
  UpstreamConn idle = TakeIdle(endpoint);
  if (idle.valid()) return idle;
  return PoolDial(endpoint, deadline);
}

void UpstreamPool::Return(const Endpoint& endpoint, UpstreamConn conn) {
  if (!conn.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& idle = idle_[endpoint.ToString()];
  if (idle.size() >= kMaxIdlePerEndpoint) return;  // conn closes.
  idle.push_back(std::move(conn));
}

StatusOr<std::string> UpstreamPool::Rpc(const Endpoint& endpoint,
                                        const std::string& line,
                                        Clock::time_point deadline) {
  UpstreamConn idle = TakeIdle(endpoint);
  if (idle.valid()) {
    auto response = Exchange(idle, line, deadline);
    if (response.ok()) {
      Return(endpoint, std::move(idle));
      return response;
    }
    // A stale pooled connection fails exactly like a dead peer; one fresh
    // dial tells them apart before the endpoint is blamed. A timeout used
    // the whole deadline, so it is final: the peer may still be working
    // on the request, and a resend would run it twice.
    if (Clock::now() >= deadline) return response;
  }
  auto conn = PoolDial(endpoint, deadline);
  if (!conn.ok()) return conn.status();
  auto response = Exchange(*conn, line, deadline);
  if (response.ok()) Return(endpoint, std::move(*conn));
  return response;
}

}  // namespace cluster
}  // namespace domd
