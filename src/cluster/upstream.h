#ifndef DOMD_CLUSTER_UPSTREAM_H_
#define DOMD_CLUSTER_UPSTREAM_H_

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/host_map.h"
#include "common/status.h"

namespace domd {
namespace cluster {

/// One NDJSON connection: a non-blocking TCP socket plus its partial-line
/// read buffer. The one socket client of the repo: the router and
/// replication reach their peers through it (via UpstreamPool), and the
/// tests and bench_serving talk to servers with it. Movable; closes on
/// destruction. Every wait is bounded by its deadline and lasts until it:
/// a signal or a long wait never ends one early, and a deadline already
/// past still takes what has arrived. So a hung peer costs the caller
/// exactly its deadline, never a wedged thread.
class UpstreamConn {
 public:
  UpstreamConn() = default;
  ~UpstreamConn() { Close(); }
  UpstreamConn(const UpstreamConn&) = delete;
  UpstreamConn& operator=(const UpstreamConn&) = delete;
  UpstreamConn(UpstreamConn&& other) noexcept { *this = std::move(other); }
  UpstreamConn& operator=(UpstreamConn&& other) noexcept;

  using Clock = std::chrono::steady_clock;

  /// Dials `endpoint` (non-blocking connect, bounded by `deadline`).
  static StatusOr<UpstreamConn> Dial(const Endpoint& endpoint,
                                     Clock::time_point deadline);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all of `bytes` by `deadline`.
  Status Send(std::string_view bytes, Clock::time_point deadline);

  /// Writes `line` plus the terminating newline, all of it, by `deadline`.
  Status SendLine(const std::string& line, Clock::time_point deadline);

  /// Reads the next newline-terminated line (newline stripped) by
  /// `deadline`. EOF and timeouts are kUnavailable.
  StatusOr<std::string> ReadLine(Clock::time_point deadline);

  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< prefix of buffer_ known to hold no '\n'.
};

/// A thread-safe pool of persistent upstream connections, keyed by
/// endpoint. Checkout pops an idle connection or dials a new one (within
/// 1 s, or sooner by the caller's deadline); Return parks a still-healthy
/// connection for reuse, up to 8 per endpoint. `Rpc` is the one-call
/// request/response path the router's workers and prober and replication
/// use. (The router's event loop forwards points and scatter ids, and
/// their hedges, over the reactor's own connections instead:
/// Reactor::Call.)
///
/// Fault point cluster.route.connect fires on every dial the pool makes,
/// and cluster.route.send / .recv on every send and read of `Rpc`. A bare
/// UpstreamConn fires none of them.
class UpstreamPool {
 public:
  using Clock = std::chrono::steady_clock;

  /// An idle pooled connection, or a fresh dial.
  StatusOr<UpstreamConn> Checkout(const Endpoint& endpoint,
                                  Clock::time_point deadline);

  /// Parks a healthy connection for reuse (drops it when the endpoint's
  /// idle list is full). Never park a connection after a transport error —
  /// just let it destruct.
  void Return(const Endpoint& endpoint, UpstreamConn conn);

  /// One round trip: checkout, send `line`, read one response line,
  /// return the connection. A transport failure on a *reused* pooled
  /// connection (stale peer) is retried once, on a fresh dial, if the
  /// deadline has not passed.
  StatusOr<std::string> Rpc(const Endpoint& endpoint, const std::string& line,
                            Clock::time_point deadline);

 private:
  /// Pops an idle connection to `endpoint`; an invalid one if none is
  /// parked.
  UpstreamConn TakeIdle(const Endpoint& endpoint);

  std::mutex mutex_;
  std::map<std::string, std::vector<UpstreamConn>> idle_;  ///< by endpoint.
};

}  // namespace cluster
}  // namespace domd

#endif  // DOMD_CLUSTER_UPSTREAM_H_
