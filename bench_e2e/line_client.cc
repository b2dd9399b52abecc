#include "bench_e2e/line_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <limits>

namespace domd {
namespace bench_e2e {
namespace {

constexpr std::uint64_t kTimerTag = std::numeric_limits<std::uint64_t>::max();

}  // namespace

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

LineClient::LineClient(int port) : fd_(ConnectLoopback(port)) {}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::SendLine(std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  std::size_t offset = 0;
  while (offset < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + offset,
                             framed.size() - offset, MSG_NOSIGNAL);
    if (n <= 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineClient::ReadLine(std::string* out) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      out->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[16384];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

bool LineClient::Call(std::string_view line, std::string* response) {
  return SendLine(line) && ReadLine(response);
}

PipelinedDriver::PipelinedDriver(int port, int num_connections) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0 || num_connections < 1 ||
      num_connections > kMaxConnections) {
    ok_ = false;
    return;
  }
  epoll_event timer_event{};
  timer_event.events = EPOLLIN;
  timer_event.data.u64 = kTimerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &timer_event);
  conns_.resize(static_cast<std::size_t>(num_connections));
  for (int i = 0; i < num_connections; ++i) {
    Conn& conn = conns_[static_cast<std::size_t>(i)];
    conn.fd = ConnectLoopback(port);
    if (conn.fd < 0) {
      ok_ = false;
      continue;
    }
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = static_cast<std::uint64_t>(i);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &event);
  }
}

PipelinedDriver::~PipelinedDriver() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void PipelinedDriver::Send(int conn_index, const Sent& request,
                           std::string_view line) {
  Conn& conn = conns_[static_cast<std::size_t>(conn_index)];
  conn.write_buffer.append(line);
  conn.write_buffer.push_back('\n');
  conn.in_flight.push_back(request);
  Flush(conn_index);
}

void PipelinedDriver::Flush(int index) {
  Conn& conn = conns_[static_cast<std::size_t>(index)];
  while (conn.write_offset < conn.write_buffer.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buffer.data() + conn.write_offset,
               conn.write_buffer.size() - conn.write_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    ok_ = false;
    return;
  }
  if (conn.write_offset == conn.write_buffer.size()) {
    conn.write_buffer.clear();
    conn.write_offset = 0;
    SetWriteInterest(index, false);
  } else {
    SetWriteInterest(index, true);
  }
}

void PipelinedDriver::SetWriteInterest(int index, bool want) {
  Conn& conn = conns_[static_cast<std::size_t>(index)];
  if (conn.want_write == want) return;
  conn.want_write = want;
  epoll_event event{};
  event.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  event.data.u64 = static_cast<std::uint64_t>(index);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
}

std::size_t PipelinedDriver::Drain(int index, const ResponseFn& on_response) {
  Conn& conn = conns_[static_cast<std::size_t>(index)];
  for (;;) {
    char chunk[65536];
    const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got > 0) {
      conn.read_buffer.append(chunk, static_cast<std::size_t>(got));
      if (static_cast<std::size_t>(got) < sizeof(chunk)) break;
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (got < 0 && errno == EINTR) continue;
    ok_ = false;  // peer closed or reset: the outstanding requests are lost.
    break;
  }
  const Nanos received = NowNs();
  std::size_t delivered = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t newline = conn.read_buffer.find('\n', start);
    if (newline == std::string::npos) break;
    if (conn.in_flight.empty()) {
      ok_ = false;  // a response nobody asked for.
    } else {
      const Sent request = conn.in_flight.front();
      conn.in_flight.pop_front();
      on_response(index, request,
                  std::string_view(conn.read_buffer).substr(start,
                                                            newline - start),
                  received);
      ++delivered;
    }
    start = newline + 1;
  }
  conn.read_buffer.erase(0, start);
  return delivered;
}

std::size_t PipelinedDriver::Poll(Nanos deadline, bool return_on_response,
                                  const ResponseFn& on_response) {
  std::size_t delivered = 0;
  bool armed = false;
  for (;;) {
    const Nanos now = NowNs();
    int timeout_ms = -1;
    if (now >= deadline) {
      timeout_ms = 0;
    } else if (!armed) {
      itimerspec spec{};
      spec.it_value.tv_sec = static_cast<time_t>(deadline / 1000000000);
      spec.it_value.tv_nsec = static_cast<long>(deadline % 1000000000);
      ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
      armed = true;
    }
    epoll_event events[16];
    const int n = ::epoll_wait(epoll_fd_, events, 16, timeout_ms);
    if (n < 0 && errno != EINTR) {
      ok_ = false;
      return delivered;
    }
    for (int e = 0; e < n; ++e) {
      if (events[e].data.u64 == kTimerTag) {
        std::uint64_t expirations = 0;
        (void)!::read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      const int index = static_cast<int>(events[e].data.u64);
      if (events[e].events & EPOLLOUT) Flush(index);
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        delivered += Drain(index, on_response);
      }
    }
    if (!ok_ || timeout_ms == 0 || NowNs() >= deadline) return delivered;
    if (return_on_response && delivered > 0) return delivered;
  }
}

std::size_t PipelinedDriver::outstanding(int conn) const {
  return conns_[static_cast<std::size_t>(conn)].in_flight.size();
}

std::size_t PipelinedDriver::outstanding() const {
  std::size_t total = 0;
  for (const Conn& conn : conns_) total += conn.in_flight.size();
  return total;
}

}  // namespace bench_e2e
}  // namespace domd
