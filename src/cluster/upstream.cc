#include "cluster/upstream.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fault/fault.h"

namespace domd {
namespace cluster {
namespace {

int RemainingMs(UpstreamConn::Clock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - UpstreamConn::Clock::now());
  if (remaining.count() <= 0) return 0;
  if (remaining.count() > 60000) return 60000;
  return static_cast<int>(remaining.count());
}

}  // namespace

UpstreamConn& UpstreamConn::operator=(UpstreamConn&& other) noexcept {
  Close();
  fd_ = other.fd_;
  reused_ = other.reused_;
  buffer_ = std::move(other.buffer_);
  other.fd_ = -1;
  return *this;
}

void UpstreamConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

StatusOr<UpstreamConn> UpstreamConn::Dial(const Endpoint& endpoint,
                                          Clock::time_point deadline) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("cluster.route.connect").Check());

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(endpoint.port));
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad upstream host \"" + endpoint.host +
                                   "\" (IPv4 literals only)");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    const Status status = Status::Unavailable(
        "connect " + endpoint.ToString() + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  // Wait for the non-blocking connect to resolve, bounded by the deadline.
  pollfd pfd{fd, POLLOUT, 0};
  const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
  int error = 0;
  socklen_t len = sizeof(error);
  if (ready <= 0 ||
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
      error != 0) {
    ::close(fd);
    return Status::Unavailable(
        "connect " + endpoint.ToString() + ": " +
        (ready <= 0 ? "timed out" : std::strerror(error)));
  }
  UpstreamConn conn;
  conn.fd_ = fd;
  return conn;
}

Status UpstreamConn::SendLine(const std::string& line,
                              Clock::time_point deadline) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("cluster.route.send").Check());
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      const int wait_ms = RemainingMs(deadline);
      if (wait_ms == 0 || ::poll(&pfd, 1, wait_ms) <= 0) {
        return Status::Unavailable("upstream send timed out");
      }
      continue;
    }
    return Status::Unavailable("upstream send: " +
                               std::string(std::strerror(errno)));
  }
  return Status::OK();
}

StatusOr<std::string> UpstreamConn::ReadLine(Clock::time_point deadline) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("cluster.route.recv").Check());
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string out = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return out;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int wait_ms = RemainingMs(deadline);
    if (wait_ms == 0 || ::poll(&pfd, 1, wait_ms) <= 0) {
      return Status::Unavailable("upstream read timed out");
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::Unavailable("upstream closed the connection");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Unavailable("upstream read: " +
                                 std::string(std::strerror(errno)));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

UpstreamPool::UpstreamPool(UpstreamOptions options)
    : options_(options) {}

StatusOr<UpstreamConn> UpstreamPool::Checkout(const Endpoint& endpoint,
                                              Clock::time_point deadline) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = idle_.find(endpoint.ToString());
    if (it != idle_.end() && !it->second.empty()) {
      UpstreamConn conn = std::move(it->second.back());
      it->second.pop_back();
      conn.reused_ = true;
      return conn;
    }
  }
  const auto dial_deadline =
      std::min(deadline, Clock::now() + options_.connect_timeout);
  return UpstreamConn::Dial(endpoint, dial_deadline);
}

void UpstreamPool::Return(const Endpoint& endpoint, UpstreamConn conn) {
  if (!conn.valid()) return;
  conn.reused_ = false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& idle = idle_[endpoint.ToString()];
  if (idle.size() >= options_.max_idle_per_endpoint) return;  // conn closes.
  idle.push_back(std::move(conn));
}

StatusOr<std::string> UpstreamPool::Rpc(const Endpoint& endpoint,
                                        const std::string& line,
                                        Clock::time_point deadline) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto conn = Checkout(endpoint, deadline);
    if (!conn.ok()) return conn.status();
    const bool was_reused = conn->reused();
    Status sent = conn->SendLine(line, deadline);
    if (sent.ok()) {
      auto response = conn->ReadLine(deadline);
      if (response.ok()) {
        Return(endpoint, std::move(*conn));
        return response;
      }
      sent = response.status();
    }
    // A stale pooled connection fails exactly like a dead shard; one
    // fresh dial disambiguates before the endpoint is blamed.
    if (!was_reused) return sent;
  }
  return Status::Unavailable("unreachable");  // loop always returns.
}

std::size_t UpstreamPool::idle_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [endpoint, conns] : idle_) count += conns.size();
  return count;
}

}  // namespace cluster
}  // namespace domd
