#ifndef DOMD_CLUSTER_UPSTREAM_H_
#define DOMD_CLUSTER_UPSTREAM_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/host_map.h"
#include "common/status.h"

namespace domd {
namespace cluster {

/// One upstream NDJSON connection: a non-blocking TCP socket plus its
/// partial-line read buffer. Movable; closes on destruction. All I/O is
/// deadline-bounded via poll, so a hung shard costs the caller exactly its
/// deadline, never a wedged thread.
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
  /// True when this connection came out of the idle pool rather than a
  /// fresh dial — its peer may have silently gone away, so a transport
  /// failure on it warrants one redial before the endpoint is blamed.
  bool reused() const { return reused_; }

  /// Writes `line` plus the terminating newline, all of it, by `deadline`.
  /// Fault point cluster.route.send can inject a failure.
  Status SendLine(const std::string& line, Clock::time_point deadline);

  /// Reads the next newline-terminated line (newline stripped) by
  /// `deadline`. EOF and timeouts are kUnavailable. Fault point
  /// cluster.route.recv can inject a failure.
  StatusOr<std::string> ReadLine(Clock::time_point deadline);

  void Close();

 private:
  friend class UpstreamPool;
  int fd_ = -1;
  bool reused_ = false;
  std::string buffer_;
};

/// Tuning knobs of the upstream client.
struct UpstreamOptions {
  std::chrono::milliseconds connect_timeout{1000};
  /// Idle connections kept per endpoint; extras close on Return.
  std::size_t max_idle_per_endpoint = 8;
};

/// A thread-safe pool of persistent upstream connections, keyed by
/// endpoint. Checkout pops an idle connection or dials a new one; Return
/// parks a still-healthy connection for reuse. `Rpc` is the one-call
/// request/response path routers use for single-shard verbs; scatter-
/// gather checks out one connection per shard and polls them itself.
class UpstreamPool {
 public:
  using Clock = std::chrono::steady_clock;

  explicit UpstreamPool(UpstreamOptions options = {});

  /// An idle pooled connection, or a fresh dial bounded by
  /// options.connect_timeout (and by `deadline` if sooner). Fault point
  /// cluster.route.connect can inject a dial failure.
  StatusOr<UpstreamConn> Checkout(const Endpoint& endpoint,
                                  Clock::time_point deadline);

  /// Parks a healthy connection for reuse (drops it when the endpoint's
  /// idle list is full). Never park a connection after a transport error —
  /// just let it destruct.
  void Return(const Endpoint& endpoint, UpstreamConn conn);

  /// One round trip: checkout, send `line`, read one response line,
  /// return the connection. A transport failure on a *reused* pooled
  /// connection (stale peer) is retried once on a fresh dial before the
  /// endpoint is reported failed.
  StatusOr<std::string> Rpc(const Endpoint& endpoint, const std::string& line,
                            Clock::time_point deadline);

  /// Idle connections currently parked (tests).
  std::size_t idle_count() const;

 private:
  const UpstreamOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<UpstreamConn>> idle_;  ///< by endpoint.
};

}  // namespace cluster
}  // namespace domd

#endif  // DOMD_CLUSTER_UPSTREAM_H_
