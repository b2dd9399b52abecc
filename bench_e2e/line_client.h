#ifndef DOMD_BENCH_E2E_LINE_CLIENT_H_
#define DOMD_BENCH_E2E_LINE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace domd {
namespace bench_e2e {

/// Nanoseconds on the steady clock (CLOCK_MONOTONIC, so directly usable as
/// an absolute timerfd deadline).
using Nanos = std::int64_t;

inline Nanos NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Blocking TCP connect to 127.0.0.1:port with TCP_NODELAY; -1 on failure.
int ConnectLoopback(int port);

/// Blocking NDJSON client over one loopback connection: one request line
/// out, one response line back.
class LineClient {
 public:
  explicit LineClient(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Sends `line` plus its terminating newline.
  bool SendLine(std::string_view line);
  /// Reads the next response line (newline stripped).
  bool ReadLine(std::string* out);
  /// SendLine then ReadLine.
  bool Call(std::string_view line, std::string* response);

 private:
  int fd_;
  std::string buffer_;
};

/// Pipelined NDJSON load driver over a few non-blocking connections, run
/// entirely from the calling thread. Requests on one connection are
/// answered in order (the server's pipelining contract), so each response
/// is matched to the oldest outstanding request of its connection.
///
/// Send() never waits for earlier responses, which is what makes an open
/// loop; Poll() waits for responses or a deadline with a timerfd, so a
/// caller that sleeps until the next scheduled send wakes within
/// microseconds of it rather than a millisecond-granular epoll timeout.
class PipelinedDriver {
 public:
  static constexpr int kMaxConnections = 4;

  /// What the driver remembers about one outstanding request.
  struct Sent {
    std::uint8_t kind = 0;
    std::uint32_t tag = 0;
    Nanos scheduled = 0;  ///< when it was due (latency is measured from here).
    Nanos sent = 0;       ///< when Send() was called.
  };
  /// Invoked once per response line, in per-connection request order.
  using ResponseFn = std::function<void(int conn, const Sent& request,
                                        std::string_view line,
                                        Nanos received)>;

  /// Opens `num_connections` connections to 127.0.0.1:port.
  PipelinedDriver(int port, int num_connections);
  ~PipelinedDriver();
  PipelinedDriver(const PipelinedDriver&) = delete;
  PipelinedDriver& operator=(const PipelinedDriver&) = delete;

  /// True while every connection is open and healthy.
  bool ok() const { return ok_; }

  /// Queues `line` (newline appended) on connection `conn` and writes as
  /// much as the socket takes now; the rest drains from Poll().
  void Send(int conn, const Sent& request, std::string_view line);

  /// Handles socket events until `deadline` (absolute, NowNs() clock) or,
  /// when `return_on_response` is set, until at least one response was
  /// delivered. Returns the number of responses delivered.
  std::size_t Poll(Nanos deadline, bool return_on_response,
                   const ResponseFn& on_response);

  std::size_t outstanding(int conn) const;
  std::size_t outstanding() const;
  int num_connections() const { return static_cast<int>(conns_.size()); }

 private:
  struct Conn {
    int fd = -1;
    std::string write_buffer;
    std::size_t write_offset = 0;
    bool want_write = false;
    std::string read_buffer;
    std::deque<Sent> in_flight;
  };

  void Flush(int index);
  std::size_t Drain(int index, const ResponseFn& on_response);
  void SetWriteInterest(int index, bool want);

  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  bool ok_ = true;
};

}  // namespace bench_e2e
}  // namespace domd

#endif  // DOMD_BENCH_E2E_LINE_CLIENT_H_
