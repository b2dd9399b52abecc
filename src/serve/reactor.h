#ifndef DOMD_SERVE_REACTOR_H_
#define DOMD_SERVE_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace domd {

class Responder;

namespace fault {
class FaultPoint;
}  // namespace fault

namespace reactor_internal {
struct ShardMailbox;
/// Internal factory for the shard loop (reactor.cc); not an embedder API.
Responder MakeResponder(std::shared_ptr<ShardMailbox> mailbox,
                        std::uint64_t conn_id, std::uint64_t seq);
}  // namespace reactor_internal

/// Tuning knobs of the epoll serving front-end (DESIGN.md §11).
struct ReactorOptions {
  using Clock = std::chrono::steady_clock;

  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Event-loop shards. Each shard owns its connections exclusively: one
  /// epoll set, one thread, zero cross-shard locking on the I/O path.
  std::size_t num_shards = 2;
  int listen_backlog = 511;
  /// Global connection cap: accepts beyond it are closed immediately
  /// (counted in rejected_at_capacity), bounding fd and memory use.
  std::size_t max_connections = 1024;
  /// Per-request-line bound. A longer line is answered with
  /// `oversize_response` and discarded up to its terminating newline; the
  /// connection stays alive.
  std::size_t max_request_bytes = std::size_t{1} << 20;
  /// Per-connection write-buffer bound. A client that stops reading gets a
  /// bounded buffer and then a clean disconnect (write-stall shedding),
  /// never unbounded memory growth.
  std::size_t max_write_buffer_bytes = std::size_t{4} << 20;
  /// Global bound over every connection's read+write buffering. The
  /// connection whose growth crosses the bound is disconnected.
  std::size_t max_total_buffer_bytes = std::size_t{256} << 20;
  /// Idle-connection reaping deadline (timer wheel); 0 disables reaping.
  std::chrono::milliseconds idle_timeout{60000};
  /// The response line written for an oversized request (no trailing
  /// newline; the reactor frames it). The reactor is codec-agnostic, so
  /// the embedder supplies the wire-correct error payload.
  std::string oversize_response =
      "{\"ok\": false, \"code\": \"INVALID_ARGUMENT\", "
      "\"error\": \"request line exceeds max_request_bytes\"}";
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel's autotuned
  /// default. Tests shrink it so a non-reading peer back-pressures the
  /// reactor within a few writes instead of after megabytes of kernel
  /// buffering.
  int sndbuf_bytes = 0;
  /// Injectable time source for deterministic idle/stall tests. Defaults
  /// to steady_clock. The reactor never mixes this with wall time.
  std::function<Clock::time_point()> clock;
};

/// Monotonic counters + instantaneous gauges of the reactor, exposed for
/// tests and the stats verb. The same values feed the obs registry
/// (domd_serve_open_connections, domd_serve_write_stall_disconnects_total,
/// per-shard domd_serve_loop_iteration_ms / domd_serve_write_stall_ms).
struct ReactorStatsSnapshot {
  std::uint64_t accepted = 0;            ///< connections ever admitted.
  std::uint64_t open_connections = 0;    ///< instantaneous.
  std::uint64_t rejected_at_capacity = 0;///< closed at max_connections.
  std::uint64_t idle_reaped = 0;         ///< timer-wheel reaps.
  std::uint64_t write_stall_disconnects = 0;  ///< per-conn bound trips.
  std::uint64_t buffer_limit_disconnects = 0; ///< global bound trips.
  std::uint64_t oversized_requests = 0;  ///< lines over max_request_bytes.
  std::uint64_t requests = 0;            ///< complete lines handed out.
  std::uint64_t responses = 0;           ///< response lines flushed.
  std::uint64_t read_errors = 0;         ///< recv failures (incl. injected).
  std::uint64_t write_errors = 0;        ///< send failures (incl. injected).
  std::uint64_t accept_faults = 0;       ///< injected accept failures.
  std::uint64_t buffered_bytes = 0;      ///< instantaneous global buffering.
};

/// A server a shard calls out to (Reactor::Call), and the embedder's fault
/// sites its calls check: `connect_site` on each dial, `send_site` on each
/// line written and `recv_site` on each answer read. A failing site breaks
/// the connection as a failed dial, send or read would; a null site is
/// skipped. The first call to a peer on a shard names its sites there.
struct CallPeer {
  std::string host;  ///< IPv4 literal.
  int port = 0;
  fault::FaultPoint* connect_site = nullptr;
  fault::FaultPoint* send_site = nullptr;
  fault::FaultPoint* recv_site = nullptr;
};

/// Starts a TCP dial to `host`:`port` on a new non-blocking, close-on-exec
/// socket with TCP_NODELAY set: how the reactor's calls out and
/// cluster::UpstreamConn both connect. Returns the socket, with `*pending`
/// true while the connect is in progress. InvalidArgument for a host
/// CheckDialHost refuses; kUnavailable when the connect fails at once.
StatusOr<int> StartDial(const std::string& host, int port, bool* pending);

/// InvalidArgument unless `host` is an IPv4 literal, the one spelling
/// StartDial reaches.
Status CheckDialHost(const std::string& host);

/// A per-request completion handle. The handler receives one Responder per
/// request line and must eventually call exactly one Respond* method, from
/// any thread: the response is enqueued into the request's ordered slot on
/// the owning shard, so N pipelined requests on one connection are always
/// answered in request order even when completions land out of order.
/// Copyable (stashable in std::function); a second Respond* call is
/// ignored. Safe to call after the connection — or the whole reactor — is
/// gone: the completion is simply dropped.
class Responder {
 public:
  Responder() = default;

  /// Enqueues `line` (no trailing newline) as this request's response.
  void Respond(std::string line) const;
  /// Responds, then stops the whole reactor once the response has drained
  /// (the shutdown verb).
  void RespondThenStop(std::string line) const;

 private:
  friend class Reactor;
  friend Responder reactor_internal::MakeResponder(
      std::shared_ptr<reactor_internal::ShardMailbox> mailbox,
      std::uint64_t conn_id, std::uint64_t seq);
  Responder(std::shared_ptr<reactor_internal::ShardMailbox> mailbox,
            std::uint64_t conn_id, std::uint64_t seq);
  void Post(std::string line, int action) const;

  std::shared_ptr<reactor_internal::ShardMailbox> mailbox_;
  std::shared_ptr<std::atomic<bool>> responded_;
  std::uint64_t conn_id_ = 0;
  std::uint64_t seq_ = 0;
};

/// A non-blocking epoll serving front-end: one acceptor thread plus
/// `num_shards` event-loop shards (DESIGN.md §11). Each connection carries
/// newline-delimited request lines; every complete line is handed to the
/// Handler with a Responder, and responses are written back asynchronously
/// — a slow reader stalls only its own bounded write buffer, never a
/// shard. Idle connections are reaped on a per-shard timer wheel. Fault
/// points `serve.reactor.{accept,read,write}` inject per-connection
/// failures for chaos testing; an injected failure closes one connection
/// and never takes down a shard. A handler may also call out to another
/// server from its shard (Call) and answer from the reply, on the same
/// thread.
///
/// The reactor is codec-agnostic: domd_serve plugs in the NDJSON frontend
/// (serve/frontend.h), tests plug in scripted handlers.
class Reactor {
 public:
  using Clock = std::chrono::steady_clock;
  /// Invoked on the owning shard's thread for every complete request
  /// line (newline stripped, whitespace-only lines skipped). Must not
  /// block: hand slow work elsewhere and respond via the Responder.
  using Handler = std::function<void(std::string line, Responder responder)>;

  /// Binds, listens, and starts the acceptor + shard threads. On success
  /// the reactor is live and port() is the bound port.
  static StatusOr<std::unique_ptr<Reactor>> Create(ReactorOptions options,
                                                   Handler handler);
  /// Stops (idempotent) and joins every thread.
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  int port() const { return port_; }

  /// Blocks until Stop() (from any thread, or via RespondThenStop).
  void Wait();
  /// Requests shutdown: the acceptor unblocks, every shard flushes what it
  /// can immediately and closes its connections. Thread-safe, idempotent,
  /// callable from handler/shard context.
  void Stop();
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  ReactorStatsSnapshot stats() const;

  /// Runs once per Call, on the calling shard's thread: the peer's answer
  /// line (newline stripped), or why there is none (kUnavailable).
  using CallDone = std::function<void(StatusOr<std::string> answer)>;

  /// Sends `line` to `peer` from the handler's shard; `done` gets the answer
  /// on that same thread, never inside Call (DESIGN.md §11, "Calls out").
  /// Each shard keeps one pipelined connection per peer in its own epoll
  /// set, dialed without blocking, and answers come back in the order the
  /// lines were written. When a call's `deadline` passes first, the
  /// connection is closed and every call still on it fails, none resent:
  /// the peer may still be working on them. A connection that has answered
  /// before and then fails without a timeout (a restarted peer, say) sends
  /// each of its calls once more on a fresh dial; a call that fails on a
  /// fresh dial is final. A shard that stops drops its calls unanswered.
  /// Off a shard thread Call returns false and drops `done`.
  static bool Call(const CallPeer& peer, std::string line,
                   Clock::time_point deadline, CallDone done);

  /// Opaque per-shard state (defined in reactor.cc).
  struct Shard;

 private:
  Reactor() = default;
  void AcceptorLoop();
  void ShardLoop(Shard& shard);

  ReactorOptions options_;
  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};
  std::mutex join_mutex_;  ///< serializes Wait()/~Reactor joins.

  // Stats cells (relaxed atomics; snapshot via stats()).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> open_connections_{0};
  std::atomic<std::uint64_t> rejected_at_capacity_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> write_stall_disconnects_{0};
  std::atomic<std::uint64_t> buffer_limit_disconnects_{0};
  std::atomic<std::uint64_t> oversized_requests_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> read_errors_{0};
  std::atomic<std::uint64_t> write_errors_{0};
  std::atomic<std::uint64_t> accept_faults_{0};
  std::atomic<std::uint64_t> buffered_bytes_{0};
};

}  // namespace domd

#endif  // DOMD_SERVE_REACTOR_H_
