#include "serve/reactor.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace domd {

namespace reactor_internal {

/// Slot actions, ordered by severity so a merge can take the max.
enum SlotAction { kActNone = 0, kActStop = 1 };

struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::string text;
  int action = kActNone;
};

struct ShardMailbox;

/// The mailbox of the shard whose loop runs on this thread; null elsewhere.
thread_local ShardMailbox* t_own_mailbox = nullptr;

/// The only cross-thread surface of a shard: completions and freshly
/// accepted fds land here under a mutex, and the eventfd wakes the shard.
/// Responders hold a shared_ptr to the mailbox, so posting stays safe even
/// after the shard thread — or the whole reactor — is gone (the completion
/// is then simply never drained).
struct ShardMailbox {
  std::mutex mutex;
  std::vector<Completion> completions;
  std::vector<int> incoming_fds;
  /// Completions the shard's own thread posts (an inline answer, a call's
  /// reply): no lock and no wake, because the loop applies them before it
  /// waits again. Only that thread touches this list.
  std::vector<Completion> own_completions;
  int event_fd = -1;

  ~ShardMailbox() {
    for (const int fd : incoming_fds) ::close(fd);
    if (event_fd >= 0) ::close(event_fd);
  }

  void Wake() {
    const std::uint64_t one = 1;
    // A full eventfd counter (impossible in practice) would just mean the
    // shard is already guaranteed to wake; the result is ignorable.
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd, &one, sizeof(one));
  }

  void PostCompletion(Completion completion) {
    if (t_own_mailbox == this) {
      own_completions.push_back(std::move(completion));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      completions.push_back(std::move(completion));
    }
    Wake();
  }

  void PostConnection(int fd) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      incoming_fds.push_back(fd);
    }
    Wake();
  }
};

}  // namespace reactor_internal

namespace {

using reactor_internal::Completion;
using reactor_internal::kActNone;
using reactor_internal::kActStop;
using reactor_internal::ShardMailbox;

/// Process-wide obs cells of the reactor (null when compiled out). Shared
/// across reactor instances like every other domd metric family.
struct ReactorMetricCells {
  obs::Gauge* open_connections = nullptr;
  obs::Counter* connections_total = nullptr;
  obs::Counter* idle_reaped = nullptr;
  obs::Counter* write_stall_disconnects = nullptr;
  obs::Counter* buffer_limit_disconnects = nullptr;
  obs::Counter* oversized = nullptr;
};

const ReactorMetricCells& ReactorCells() {
  static const ReactorMetricCells cells = [] {
    ReactorMetricCells c;
#if DOMD_OBS_COMPILED
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    c.open_connections = &registry.GetGauge("domd_serve_open_connections");
    c.connections_total =
        &registry.GetCounter("domd_serve_connections_total");
    c.idle_reaped = &registry.GetCounter("domd_serve_idle_reaped_total");
    c.write_stall_disconnects =
        &registry.GetCounter("domd_serve_write_stall_disconnects_total");
    c.buffer_limit_disconnects =
        &registry.GetCounter("domd_serve_buffer_limit_disconnects_total");
    c.oversized =
        &registry.GetCounter("domd_serve_oversized_requests_total");
#endif
    return c;
  }();
  return cells;
}

void Bump(obs::Counter* counter) {
  if (counter != nullptr && obs::Enabled()) counter->Increment();
}

double ElapsedMs(Reactor::Clock::time_point from,
                 Reactor::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Slot {
  bool ready = false;
  std::string text;
  int action = kActNone;
};

struct Upstream;

/// One connection, owned exclusively by its shard thread: accepted from a
/// client, or dialed to a peer by Reactor::Call (an upstream).
struct Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::string read_buffer;
  std::string write_buffer;
  std::size_t write_offset = 0;  ///< sent prefix of write_buffer.
  std::deque<Slot> slots;        ///< ordered response slots.
  std::uint64_t base_seq = 0;    ///< seq of slots.front().
  std::uint64_t next_seq = 0;
  std::size_t scanned = 0;   ///< prefix of read_buffer known to hold no \n.
  bool discarding = false;   ///< dropping an oversized line up to its \n.
  bool read_closed = false;  ///< peer half-closed its write side.
  bool want_write = false;   ///< EPOLLOUT armed.
  int pending_action = kActNone;
  Reactor::Clock::time_point last_activity{};
  Reactor::Clock::time_point stall_since{};  ///< epoch = not stalled.
  std::size_t accounted_bytes = 0;  ///< contribution to the global bound.
  Upstream* upstream = nullptr;  ///< the peer's calls; null when accepted.
  bool connecting = false;       ///< upstream: the dial has not resolved.
  bool answered = false;         ///< upstream: has answered (a reused one).
  bool flush_queued = false;     ///< upstream: on the shard's flush list.
};

/// One call written on an upstream connection.
struct OutCall {
  std::string line;  ///< kept for the one resend a redial may make.
  Reactor::Clock::time_point deadline;
  Reactor::CallDone done;
  bool resent = false;
};

/// A shard's state for one peer it calls: the live connection and the
/// unanswered calls on it, oldest first.
struct Upstream {
  CallPeer peer;
  std::uint64_t conn_id = 0;  ///< the live connection; 0 = none.
  std::deque<OutCall> calls;
  /// Sliding-window minimum of the calls' deadlines: (deadline, position)
  /// pairs with rising deadlines, so front() is the earliest of `calls`.
  std::deque<std::pair<Reactor::Clock::time_point, std::uint64_t>> earliest;
  std::uint64_t pushed = 0;  ///< calls ever queued: the next one's position.
  std::uint64_t popped = 0;  ///< calls ever taken off the front.
};

void PushCall(Upstream& up, OutCall call) {
  while (!up.earliest.empty() && up.earliest.back().first >= call.deadline) {
    up.earliest.pop_back();
  }
  up.earliest.emplace_back(call.deadline, up.pushed++);
  up.calls.push_back(std::move(call));
}

OutCall PopCall(Upstream& up) {
  if (up.earliest.front().second == up.popped) up.earliest.pop_front();
  ++up.popped;
  OutCall call = std::move(up.calls.front());
  up.calls.pop_front();
  return call;
}

/// "connect host:port", the prefix of a dial's errors.
std::string DialName(const Upstream& up) {
  return "connect " + up.peer.host + ":" + std::to_string(up.peer.port);
}

/// A hashed timer wheel for idle reaping: buckets_[tick % kBuckets] holds
/// (conn_id, deadline_tick) entries. Advancing visits every expired entry;
/// entries hashed into an expired bucket but due in a later lap are
/// re-inserted, and the shard lazily re-buckets connections whose activity
/// moved their real deadline forward.
class TimerWheel {
 public:
  void Init(Reactor::Clock::time_point start,
            std::chrono::milliseconds idle_timeout) {
    start_ = start;
    tick_ = std::chrono::milliseconds(
        std::max<std::int64_t>(1, idle_timeout.count() / 8));
    enabled_ = idle_timeout.count() > 0;
  }

  bool enabled() const { return enabled_; }

  std::uint64_t TickOf(Reactor::Clock::time_point t) const {
    if (t <= start_) return 0;
    return static_cast<std::uint64_t>((t - start_) / tick_);
  }

  void Insert(std::uint64_t conn_id, std::uint64_t deadline_tick) {
    buckets_[deadline_tick % kBuckets].push_back({conn_id, deadline_tick});
  }

  /// Moves every entry due at or before `now_tick` into `due`.
  void CollectDue(std::uint64_t now_tick,
                  std::vector<std::uint64_t>* due) {
    if (!enabled_ || now_tick <= processed_tick_) return;
    const std::uint64_t span = now_tick - processed_tick_;
    const std::size_t sweeps =
        span >= kBuckets ? kBuckets : static_cast<std::size_t>(span);
    // When the clock jumped a whole lap or more, every bucket is swept
    // exactly once; otherwise only the ticks actually crossed.
    for (std::size_t i = 1; i <= sweeps; ++i) {
      auto& bucket = buckets_[(processed_tick_ + i) % kBuckets];
      std::size_t keep = 0;
      for (std::size_t j = 0; j < bucket.size(); ++j) {
        if (bucket[j].deadline_tick <= now_tick) {
          due->push_back(bucket[j].conn_id);
        } else {
          bucket[keep++] = bucket[j];
        }
      }
      bucket.resize(keep);
    }
    processed_tick_ = now_tick;
  }

 private:
  static constexpr std::size_t kBuckets = 32;
  struct Entry {
    std::uint64_t conn_id = 0;
    std::uint64_t deadline_tick = 0;
  };
  std::vector<Entry> buckets_[kBuckets];
  std::uint64_t processed_tick_ = 0;
  Reactor::Clock::time_point start_{};
  std::chrono::milliseconds tick_{1000};
  bool enabled_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Responder

Responder::Responder(std::shared_ptr<reactor_internal::ShardMailbox> mailbox,
                     std::uint64_t conn_id, std::uint64_t seq)
    : mailbox_(std::move(mailbox)),
      responded_(std::make_shared<std::atomic<bool>>(false)),
      conn_id_(conn_id),
      seq_(seq) {}

void Responder::Post(std::string line, int action) const {
  if (mailbox_ == nullptr || responded_ == nullptr) return;
  if (responded_->exchange(true, std::memory_order_acq_rel)) return;
  Completion completion;
  completion.conn_id = conn_id_;
  completion.seq = seq_;
  completion.text = std::move(line);
  completion.action = action;
  mailbox_->PostCompletion(std::move(completion));
}

void Responder::Respond(std::string line) const {
  Post(std::move(line), kActNone);
}

namespace reactor_internal {
Responder MakeResponder(std::shared_ptr<ShardMailbox> mailbox,
                        std::uint64_t conn_id, std::uint64_t seq) {
  return Responder(std::move(mailbox), conn_id, seq);
}
}  // namespace reactor_internal

void Responder::RespondThenStop(std::string line) const {
  Post(std::move(line), kActStop);
}

// ---------------------------------------------------------------------------
// Shard

struct Reactor::Shard {
  std::size_t index = 0;
  std::shared_ptr<ShardMailbox> mailbox;
  int epoll_fd = -1;
  std::unordered_map<std::uint64_t, Connection> conns;
  std::uint64_t next_conn_id = 1;  ///< 0 is reserved for the eventfd.
  /// The peers this shard calls (Reactor::Call), by host and port.
  std::map<std::pair<std::string, int>, Upstream> upstreams;
  /// Upstream connections written to since the loop last flushed them.
  std::vector<std::uint64_t> flush_list;
  /// Finished calls whose `done` has not run yet.
  std::vector<std::pair<CallDone, StatusOr<std::string>>> replies;
  TimerWheel wheel;
  obs::Histogram* loop_ms = nullptr;
  obs::Histogram* stall_ms = nullptr;
  std::thread thread;

  ~Shard() {
    for (auto& [id, conn] : conns) ::close(conn.fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
};

// ---------------------------------------------------------------------------
// Reactor

StatusOr<std::unique_ptr<Reactor>> Reactor::Create(ReactorOptions options,
                                                   Handler handler) {
  if (handler == nullptr) {
    return Status::InvalidArgument("reactor needs a request handler");
  }
  if (options.num_shards == 0) options.num_shards = 1;
  if (options.max_connections == 0) options.max_connections = 1;
  if (options.max_request_bytes == 0) options.max_request_bytes = 1;
  if (!options.clock) options.clock = [] { return Clock::now(); };

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd);
    return Status::InvalidArgument("bad bind address \"" +
                                   options.bind_address + "\"");
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, options.listen_backlog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd);
    return Status::IoError("bind/listen 127.0.0.1:" +
                           std::to_string(options.port) + ": " + err);
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);

  std::unique_ptr<Reactor> reactor(new Reactor());
  reactor->options_ = std::move(options);
  reactor->handler_ = std::move(handler);
  reactor->listen_fd_ = listen_fd;
  reactor->port_ = static_cast<int>(ntohs(addr.sin_port));

  const Clock::time_point epoch = reactor->options_.clock();
  for (std::size_t i = 0; i < reactor->options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->mailbox = std::make_shared<ShardMailbox>();
    shard->mailbox->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (shard->mailbox->event_fd < 0 || shard->epoll_fd < 0) {
      ::close(listen_fd);
      return Status::IoError("eventfd/epoll_create1 failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // id 0 = the mailbox eventfd.
    ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->mailbox->event_fd,
                &ev);
    shard->wheel.Init(epoch, reactor->options_.idle_timeout);
#if DOMD_OBS_COMPILED
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    shard->loop_ms = &registry.GetHistogram(
        "domd_serve_loop_iteration_ms" + label, obs::LatencyBucketsMs());
    shard->stall_ms = &registry.GetHistogram(
        "domd_serve_write_stall_ms" + label, obs::LatencyBucketsMs());
#endif
    reactor->shards_.push_back(std::move(shard));
  }
  for (auto& shard : reactor->shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread(
        [reactor_ptr = reactor.get(), raw] { reactor_ptr->ShardLoop(*raw); });
  }
  reactor->acceptor_ = std::thread([r = reactor.get()] { r->AcceptorLoop(); });
  return reactor;
}

Reactor::~Reactor() {
  Stop();
  Wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Reactor::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  // Unblock the acceptor (Linux: accept() on a shut-down listener returns
  // EINVAL) and every shard.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& shard : shards_) shard->mailbox->Wake();
}

void Reactor::Wait() {
  std::lock_guard<std::mutex> lock(join_mutex_);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

ReactorStatsSnapshot Reactor::stats() const {
  ReactorStatsSnapshot s;
  // The reap count first, with acquire: every close it counts is then
  // visible in the connection and buffer counters read after it.
  s.idle_reaped = idle_reaped_.load(std::memory_order_acquire);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_acquire);
  s.rejected_at_capacity =
      rejected_at_capacity_.load(std::memory_order_relaxed);
  s.write_stall_disconnects =
      write_stall_disconnects_.load(std::memory_order_relaxed);
  s.buffer_limit_disconnects =
      buffer_limit_disconnects_.load(std::memory_order_relaxed);
  s.oversized_requests = oversized_requests_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.read_errors = read_errors_.load(std::memory_order_relaxed);
  s.write_errors = write_errors_.load(std::memory_order_relaxed);
  s.accept_faults = accept_faults_.load(std::memory_order_relaxed);
  s.buffered_bytes = buffered_bytes_.load(std::memory_order_acquire);
  return s;
}

void Reactor::AcceptorLoop() {
  std::size_t next_shard = 0;
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (stop_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds: shed this accept and let the kernel queue absorb
        // the burst rather than spinning.
        rejected_at_capacity_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      return;  // listener closed or fatal accept error.
    }
    const Status fault = DOMD_FAULT_POINT("serve.reactor.accept").Check();
    if (!fault.ok()) {
      // Injected accept failure: this connection degrades (closed before
      // it ever reaches a shard); the acceptor itself survives.
      accept_faults_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    if (open_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      rejected_at_capacity_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t open =
        open_connections_.fetch_add(1, std::memory_order_relaxed) + 1;
    Bump(ReactorCells().connections_total);
    if (obs::Gauge* gauge = ReactorCells().open_connections;
        gauge != nullptr && obs::Enabled()) {
      gauge->Set(static_cast<double>(open));
    }
    shards_[next_shard]->mailbox->PostConnection(fd);
    next_shard = (next_shard + 1) % shards_.size();
  }
}

namespace {

/// Everything the per-shard event functions need; keeps the shard loop's
/// helpers free functions instead of a long Reactor method list.
struct ShardContext {
  Reactor* reactor = nullptr;
  const ReactorOptions* options = nullptr;
  const Reactor::Handler* handler = nullptr;
  Reactor::Shard* shard = nullptr;
  // Stat cells (the reactor's atomics, passed by pointer).
  std::atomic<std::uint64_t>* open_connections = nullptr;
  std::atomic<std::uint64_t>* idle_reaped = nullptr;
  std::atomic<std::uint64_t>* write_stall_disconnects = nullptr;
  std::atomic<std::uint64_t>* buffer_limit_disconnects = nullptr;
  std::atomic<std::uint64_t>* oversized_requests = nullptr;
  std::atomic<std::uint64_t>* requests = nullptr;
  std::atomic<std::uint64_t>* responses = nullptr;
  std::atomic<std::uint64_t>* read_errors = nullptr;
  std::atomic<std::uint64_t>* write_errors = nullptr;
  std::atomic<std::uint64_t>* buffered_bytes = nullptr;
  bool stop_requested = false;
  // The clock, sampled once per loop iteration (right after epoll_wait).
  // Every activity stamp inside an iteration uses this one reading, so an
  // injected test clock advanced concurrently cannot attribute old work to
  // the new time: the iteration's clock read happens-before any byte the
  // iteration writes becomes observable to a peer.
  Reactor::Clock::time_point now{};
};

Reactor::Clock::time_point Now(const ShardContext& ctx) { return ctx.now; }

/// The context of the shard whose loop runs on this thread; null elsewhere.
thread_local ShardContext* t_context = nullptr;

/// Re-derives this connection's buffered footprint and folds the delta
/// into the global gauge. Called after every mutation batch, so the
/// accounting can never drift or leak.
void Reaccount(ShardContext& ctx, Connection& conn) {
  std::size_t owned =
      conn.read_buffer.size() + (conn.write_buffer.size() - conn.write_offset);
  for (const Slot& slot : conn.slots) owned += slot.text.size();
  if (owned >= conn.accounted_bytes) {
    ctx.buffered_bytes->fetch_add(owned - conn.accounted_bytes,
                                  std::memory_order_relaxed);
  } else {
    ctx.buffered_bytes->fetch_sub(conn.accounted_bytes - owned,
                                  std::memory_order_relaxed);
  }
  conn.accounted_bytes = owned;
}

void CloseConnection(ShardContext& ctx, std::uint64_t conn_id) {
  auto it = ctx.shard->conns.find(conn_id);
  if (it == ctx.shard->conns.end()) return;
  Connection& conn = it->second;
  // Accounting first, then the close: a peer that sees EOF (and a reader
  // that sees the reap counted after this call) also sees the connection
  // gone from the counters.
  ctx.buffered_bytes->fetch_sub(conn.accounted_bytes,
                                std::memory_order_release);
  if (conn.upstream != nullptr) {
    conn.upstream->conn_id = 0;  // the client counters never counted it.
  } else {
    const std::uint64_t open =
        ctx.open_connections->fetch_sub(1, std::memory_order_release) - 1;
    if (obs::Gauge* gauge = ReactorCells().open_connections;
        gauge != nullptr && obs::Enabled()) {
      gauge->Set(static_cast<double>(open));
    }
  }
  ::epoll_ctl(ctx.shard->epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  ctx.shard->conns.erase(it);
}

// ---------------------------------------------------------------------------
// Calls out (Reactor::Call): a shard's pipelined connection to each peer.

void FailUpstream(ShardContext& ctx, Upstream& up, const Status& why,
                  bool timed_out);

/// Starts a non-blocking dial to `up`'s peer and registers the socket in
/// the shard's epoll set; EPOLLOUT reports the dial's outcome.
Status DialUpstream(ShardContext& ctx, Upstream& up) {
  if (up.peer.connect_site != nullptr) {
    DOMD_RETURN_IF_ERROR(up.peer.connect_site->Check());
  }
  bool pending = false;
  const StatusOr<int> dialed = StartDial(up.peer.host, up.peer.port, &pending);
  if (!dialed.ok()) return dialed.status();
  const int fd = *dialed;
  const std::uint64_t id = ctx.shard->next_conn_id++;
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (pending) ev.events |= EPOLLOUT;
  ev.data.u64 = id;
  if (::epoll_ctl(ctx.shard->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("epoll_ctl: " + error);
  }
  Connection conn;
  conn.fd = fd;
  conn.id = id;
  conn.upstream = &up;
  conn.connecting = pending;
  conn.want_write = pending;
  conn.last_activity = Now(ctx);
  ctx.shard->conns.emplace(id, std::move(conn));
  up.conn_id = id;
  return Status::OK();
}

/// Writes `calls` to `up`'s peer in order, dialing first when it has no
/// live connection, and puts the connection on the loop's flush list. A
/// failing send site breaks the connection, as a failed send would.
void SendCalls(ShardContext& ctx, Upstream& up, std::span<OutCall> calls) {
  if (up.conn_id == 0) {
    if (const Status dialed = DialUpstream(ctx, up); !dialed.ok()) {
      for (OutCall& call : calls) {
        ctx.shard->replies.emplace_back(std::move(call.done), dialed);
      }
      return;
    }
  }
  Connection& conn = ctx.shard->conns.at(up.conn_id);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Status sent = up.peer.send_site != nullptr
                            ? up.peer.send_site->Check()
                            : Status::OK();
    if (!sent.ok()) {
      for (std::size_t j = i; j < calls.size(); ++j) {
        PushCall(up, std::move(calls[j]));
      }
      FailUpstream(ctx, up, sent, /*timed_out=*/false);
      return;
    }
    conn.write_buffer += calls[i].line;
    conn.write_buffer += '\n';
    PushCall(up, std::move(calls[i]));
  }
  if (!conn.flush_queued) {
    conn.flush_queued = true;
    ctx.shard->flush_list.push_back(conn.id);
  }
}

/// Closes `up`'s connection and settles every call on it. After a timeout
/// each call fails with `why`. Otherwise a call on a connection that had
/// answered before (a stale connection fails like a dead peer, and a
/// fresh dial tells them apart) goes out once more on a new dial, unless
/// it was resent already or its deadline has passed.
void FailUpstream(ShardContext& ctx, Upstream& up, const Status& why,
                  bool timed_out) {
  bool reused = false;
  if (auto it = ctx.shard->conns.find(up.conn_id);
      it != ctx.shard->conns.end()) {
    reused = it->second.answered;
    CloseConnection(ctx, up.conn_id);
  }
  std::deque<OutCall> calls;
  calls.swap(up.calls);
  up.earliest.clear();
  up.popped = up.pushed;
  const Reactor::Clock::time_point now = Reactor::Clock::now();
  std::vector<OutCall> resend;
  for (OutCall& call : calls) {
    if (reused && !timed_out && !call.resent && now < call.deadline) {
      call.resent = true;
      resend.push_back(std::move(call));
    } else {
      ctx.shard->replies.emplace_back(std::move(call.done), why);
    }
  }
  if (!resend.empty()) SendCalls(ctx, up, resend);
}

/// Hands `line` to the oldest call on upstream `conn`. Returns false when
/// the line failed the connection instead: an answer nobody asked for, or
/// a failing recv site.
bool TakeAnswer(ShardContext& ctx, Connection& conn, std::string line) {
  Upstream& up = *conn.upstream;
  Status failed;
  if (up.calls.empty()) {
    failed = Status::Unavailable("upstream sent a line nobody asked for");
  } else if (up.peer.recv_site != nullptr) {
    failed = up.peer.recv_site->Check();
  }
  if (!failed.ok()) {
    FailUpstream(ctx, up, failed, /*timed_out=*/false);
    return false;
  }
  conn.answered = true;
  OutCall call = PopCall(up);
  ctx.shard->replies.emplace_back(std::move(call.done), std::move(line));
  return true;
}

/// Fails every upstream whose earliest call's deadline has passed, with
/// all of its calls: none is resent, since the peer may still run them.
void ExpireCalls(ShardContext& ctx) {
  const Reactor::Clock::time_point now = Reactor::Clock::now();
  for (auto& [peer, up] : ctx.shard->upstreams) {
    if (up.earliest.empty() || now < up.earliest.front().first) continue;
    const auto it = ctx.shard->conns.find(up.conn_id);
    const bool dialing =
        it != ctx.shard->conns.end() && it->second.connecting;
    FailUpstream(ctx, up,
                 Status::Unavailable(dialing ? DialName(up) + ": timed out"
                                             : "upstream read timed out"),
                 /*timed_out=*/true);
  }
}

// ---------------------------------------------------------------------------

/// Flushes ready slots into the write buffer and pushes bytes to the
/// socket. Returns false when the connection was closed (an upstream that
/// fails settles its calls too).
bool FlushConnection(ShardContext& ctx, Connection& conn) {
  if (conn.connecting) return true;  // EPOLLOUT flushes once it resolves.
  Upstream* const up = conn.upstream;
  while (!conn.slots.empty() && conn.slots.front().ready) {
    Slot& slot = conn.slots.front();
    conn.write_buffer += slot.text;
    conn.write_buffer += '\n';
    conn.pending_action = std::max(conn.pending_action, slot.action);
    ctx.responses->fetch_add(1, std::memory_order_relaxed);
    conn.slots.pop_front();
    ++conn.base_seq;
  }

  while (conn.write_offset < conn.write_buffer.size()) {
    if (up == nullptr) {
      const Status fault = DOMD_FAULT_POINT("serve.reactor.write").Check();
      if (!fault.ok()) {
        ctx.write_errors->fetch_add(1, std::memory_order_relaxed);
        CloseConnection(ctx, conn.id);
        return false;
      }
    }
    const ssize_t n =
        ::send(conn.fd, conn.write_buffer.data() + conn.write_offset,
               conn.write_buffer.size() - conn.write_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_offset += static_cast<std::size_t>(n);
      conn.last_activity = Now(ctx);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    if (up != nullptr) {
      FailUpstream(ctx, *up,
                   Status::Unavailable("upstream send: " +
                                       std::string(std::strerror(errno))),
                   /*timed_out=*/false);
      return false;
    }
    ctx.write_errors->fetch_add(1, std::memory_order_relaxed);
    CloseConnection(ctx, conn.id);
    return false;
  }
  if (conn.write_offset == conn.write_buffer.size()) {
    conn.write_buffer.clear();
    conn.write_offset = 0;
  } else if (conn.write_offset > (std::size_t{1} << 16)) {
    conn.write_buffer.erase(0, conn.write_offset);
    conn.write_offset = 0;
  }
  Reaccount(ctx, conn);

  const std::size_t backlog = conn.write_buffer.size() - conn.write_offset;
  if (backlog == 0) {
    if (conn.stall_since != Reactor::Clock::time_point{}) {
      if (ctx.shard->stall_ms != nullptr && obs::Enabled()) {
        ctx.shard->stall_ms->Observe(ElapsedMs(conn.stall_since, Now(ctx)));
      }
      conn.stall_since = {};
    }
    if (conn.want_write) {
      epoll_event ev{};
      ev.events = conn.read_closed ? 0 : EPOLLIN;
      ev.data.u64 = conn.id;
      ::epoll_ctl(ctx.shard->epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_write = false;
    }
    if (conn.pending_action == kActStop) {
      ctx.stop_requested = true;
      return true;
    }
    if (conn.read_closed && conn.slots.empty()) {
      CloseConnection(ctx, conn.id);
      return false;
    }
    return true;
  }

  // Partially written: the peer is reading slower than we produce.
  if (conn.stall_since == Reactor::Clock::time_point{}) {
    conn.stall_since = Now(ctx);
  }
  if (!conn.want_write) {
    epoll_event ev{};
    ev.events = (conn.read_closed ? 0 : EPOLLIN) | EPOLLOUT;
    ev.data.u64 = conn.id;
    ::epoll_ctl(ctx.shard->epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.want_write = true;
  }
  const bool stalled = backlog > ctx.options->max_write_buffer_bytes;
  if (!stalled && ctx.buffered_bytes->load(std::memory_order_relaxed) <=
                      ctx.options->max_total_buffer_bytes) {
    return true;
  }
  if (up != nullptr) {
    FailUpstream(ctx, *up,
                 Status::Unavailable("upstream send: over the buffer bound"),
                 /*timed_out=*/false);
    return false;
  }
  if (stalled) {
    // Slow-reader shedding: bounded buffer, then a clean disconnect —
    // never unbounded growth (DESIGN.md §11).
    ctx.write_stall_disconnects->fetch_add(1, std::memory_order_relaxed);
    Bump(ReactorCells().write_stall_disconnects);
    if (ctx.shard->stall_ms != nullptr && obs::Enabled()) {
      ctx.shard->stall_ms->Observe(ElapsedMs(conn.stall_since, Now(ctx)));
    }
  } else {
    ctx.buffer_limit_disconnects->fetch_add(1, std::memory_order_relaxed);
    Bump(ReactorCells().buffer_limit_disconnects);
  }
  CloseConnection(ctx, conn.id);
  return false;
}

/// Appends an already-rendered response (oversize reject) in order.
void EnqueueImmediate(Connection& conn, const std::string& text) {
  Slot slot;
  slot.ready = true;
  slot.text = text;
  conn.slots.push_back(std::move(slot));
  ++conn.next_seq;
}

/// Splits the read buffer into lines: requests for the handler on a client
/// connection, answers for the oldest calls on an upstream. Oversized
/// requests are answered and discarded without killing the connection.
/// Lines are consumed by offset and the buffer is erased once per call;
/// the newline search resumes where the last call's stopped, so each byte
/// is searched once. Returns false when an upstream failed on an answer
/// and is gone.
bool ParseLines(ShardContext& ctx, Connection& conn) {
  std::string& buffer = conn.read_buffer;
  std::size_t begin = 0;  // first byte not yet consumed.
  for (;;) {
    const std::size_t newline =
        buffer.find('\n', std::max(begin, conn.scanned));
    if (conn.discarding) {
      if (newline == std::string::npos) {
        buffer.clear();  // still inside the oversized line.
        conn.scanned = 0;
        return true;
      }
      begin = newline + 1;
      conn.discarding = false;
      continue;
    }
    if (newline == std::string::npos) {
      if (conn.upstream == nullptr &&
          buffer.size() - begin > ctx.options->max_request_bytes) {
        ctx.oversized_requests->fetch_add(1, std::memory_order_relaxed);
        Bump(ReactorCells().oversized);
        EnqueueImmediate(conn, ctx.options->oversize_response);
        conn.discarding = true;
        buffer.clear();
        conn.scanned = 0;
        return true;
      }
      buffer.erase(0, begin);
      conn.scanned = buffer.size();
      return true;
    }
    std::string line = buffer.substr(begin, newline - begin);
    begin = newline + 1;
    if (conn.upstream != nullptr) {
      if (!TakeAnswer(ctx, conn, std::move(line))) return false;
      continue;
    }
    if (line.size() > ctx.options->max_request_bytes) {
      ctx.oversized_requests->fetch_add(1, std::memory_order_relaxed);
      Bump(ReactorCells().oversized);
      EnqueueImmediate(conn, ctx.options->oversize_response);
      continue;
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ctx.requests->fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seq = conn.next_seq++;
    conn.slots.emplace_back();
    (*ctx.handler)(std::move(line),
                   reactor_internal::MakeResponder(ctx.shard->mailbox, conn.id, seq));
  }
}

void HandleReadable(ShardContext& ctx, std::uint64_t conn_id) {
  auto it = ctx.shard->conns.find(conn_id);
  if (it == ctx.shard->conns.end()) return;
  Connection& conn = it->second;
  Upstream* const up = conn.upstream;
  char chunk[16384];
  // Bounded passes per event for shard fairness; level-triggered epoll
  // re-delivers whatever is left.
  for (int pass = 0; pass < 8; ++pass) {
    if (up == nullptr) {
      const Status fault = DOMD_FAULT_POINT("serve.reactor.read").Check();
      if (!fault.ok()) {
        // Injected read failure: this connection degrades; the shard and
        // its other connections are untouched.
        ctx.read_errors->fetch_add(1, std::memory_order_relaxed);
        CloseConnection(ctx, conn_id);
        return;
      }
    }
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.last_activity = Now(ctx);
      conn.read_buffer.append(chunk, static_cast<std::size_t>(n));
      if (!ParseLines(ctx, conn)) return;
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0 && up != nullptr) {
      FailUpstream(ctx, *up,
                   Status::Unavailable("upstream closed the connection"),
                   /*timed_out=*/false);
      return;
    }
    if (n == 0) {
      // Half-close: the peer finished sending. Pending responses still
      // flush; once every slot is answered and written, we close too.
      conn.read_closed = true;
      epoll_event ev{};
      ev.events = conn.want_write ? EPOLLOUT : 0;
      ev.data.u64 = conn.id;
      ::epoll_ctl(ctx.shard->epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    if (up != nullptr) {
      FailUpstream(ctx, *up,
                   Status::Unavailable("upstream read: " +
                                       std::string(std::strerror(errno))),
                   /*timed_out=*/false);
      return;
    }
    // Abrupt reset (ECONNRESET & friends): reap immediately; buffers are
    // released via the global accounting in CloseConnection.
    ctx.read_errors->fetch_add(1, std::memory_order_relaxed);
    CloseConnection(ctx, conn_id);
    return;
  }
  Reaccount(ctx, conn);
  if (ctx.buffered_bytes->load(std::memory_order_relaxed) >
      ctx.options->max_total_buffer_bytes) {
    if (up != nullptr) {
      FailUpstream(ctx, *up,
                   Status::Unavailable("upstream read: over the buffer bound"),
                   /*timed_out=*/false);
      return;
    }
    ctx.buffer_limit_disconnects->fetch_add(1, std::memory_order_relaxed);
    Bump(ReactorCells().buffer_limit_disconnects);
    CloseConnection(ctx, conn_id);
    return;
  }
  if (up == nullptr) FlushConnection(ctx, conn);
}

/// An event on an upstream: the dial resolving, answers, or writability.
void HandleUpstreamEvent(ShardContext& ctx, Connection& conn,
                         std::uint32_t events) {
  if (conn.connecting) {
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0) {
      error = errno;
    }
    if (error != 0) {
      FailUpstream(ctx, *conn.upstream,
                   Status::Unavailable(DialName(*conn.upstream) + ": " +
                                       std::strerror(error)),
                   /*timed_out=*/false);
      return;
    }
    conn.connecting = false;
    FlushConnection(ctx, conn);
    return;
  }
  const std::uint64_t id = conn.id;
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) HandleReadable(ctx, id);
  if ((events & EPOLLOUT) != 0) {
    auto it = ctx.shard->conns.find(id);
    if (it != ctx.shard->conns.end()) FlushConnection(ctx, it->second);
  }
}

/// Finishes what the iteration's handlers started: flushes the upstream
/// connections they wrote to and runs the replies that came in, until
/// neither is left (a reply may make a call of its own).
void Settle(ShardContext& ctx) {
  Reactor::Shard& shard = *ctx.shard;
  while (!shard.flush_list.empty() || !shard.replies.empty()) {
    std::vector<std::uint64_t> flushing;
    flushing.swap(shard.flush_list);
    for (const std::uint64_t id : flushing) {
      auto it = shard.conns.find(id);
      if (it == shard.conns.end()) continue;
      it->second.flush_queued = false;
      FlushConnection(ctx, it->second);
    }
    auto replies = std::move(shard.replies);
    shard.replies.clear();
    for (auto& [done, answer] : replies) done(std::move(answer));
  }
}

/// How long the loop may wait: no longer than the poll cadence or the
/// earliest deadline of the shard's calls out.
int WaitMs(const ShardContext& ctx, int cadence_ms) {
  auto earliest = Reactor::Clock::time_point::max();
  for (const auto& [peer, up] : ctx.shard->upstreams) {
    if (!up.earliest.empty()) {
      earliest = std::min(earliest, up.earliest.front().first);
    }
  }
  if (earliest == Reactor::Clock::time_point::max()) return cadence_ms;
  const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
      earliest - Reactor::Clock::now());
  return static_cast<int>(
      std::clamp<std::int64_t>(wait.count(), 0, cadence_ms));
}

void RegisterIncoming(ShardContext& ctx) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(ctx.shard->mailbox->mutex);
    fds.swap(ctx.shard->mailbox->incoming_fds);
  }
  for (const int fd : fds) {
    const std::uint64_t id = ctx.shard->next_conn_id++;
    Connection conn;
    conn.fd = fd;
    conn.id = id;
    conn.last_activity = Now(ctx);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(ctx.shard->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      ctx.open_connections->fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (ctx.shard->wheel.enabled()) {
      ctx.shard->wheel.Insert(
          id, ctx.shard->wheel.TickOf(conn.last_activity +
                                      ctx.options->idle_timeout) +
                  1);
    }
    ctx.shard->conns.emplace(id, std::move(conn));
  }
}

/// Applies the completions the shard's own thread posted and those other
/// threads left in the mailbox, then flushes each connection they filled.
void ApplyCompletions(ShardContext& ctx) {
  ShardMailbox& mailbox = *ctx.shard->mailbox;
  std::vector<Completion> completions;
  completions.swap(mailbox.own_completions);
  {
    std::lock_guard<std::mutex> lock(mailbox.mutex);
    completions.insert(completions.end(),
                       std::make_move_iterator(mailbox.completions.begin()),
                       std::make_move_iterator(mailbox.completions.end()));
    mailbox.completions.clear();
  }
  if (completions.empty()) return;
  std::unordered_set<std::uint64_t> dirty;
  for (Completion& completion : completions) {
    auto it = ctx.shard->conns.find(completion.conn_id);
    if (it == ctx.shard->conns.end()) continue;  // connection already gone.
    Connection& conn = it->second;
    if (completion.seq < conn.base_seq) continue;  // stale.
    const std::size_t index =
        static_cast<std::size_t>(completion.seq - conn.base_seq);
    if (index >= conn.slots.size()) continue;  // stale (conn id reuse).
    Slot& slot = conn.slots[index];
    if (slot.ready) continue;
    slot.ready = true;
    slot.text = std::move(completion.text);
    slot.action = completion.action;
    dirty.insert(completion.conn_id);
  }
  for (const std::uint64_t conn_id : dirty) {
    auto it = ctx.shard->conns.find(conn_id);
    if (it == ctx.shard->conns.end()) continue;
    Reaccount(ctx, it->second);
    FlushConnection(ctx, it->second);
  }
}

void ReapIdle(ShardContext& ctx) {
  if (!ctx.shard->wheel.enabled()) return;
  const Reactor::Clock::time_point now = Now(ctx);
  std::vector<std::uint64_t> due;
  ctx.shard->wheel.CollectDue(ctx.shard->wheel.TickOf(now), &due);
  for (const std::uint64_t conn_id : due) {
    auto it = ctx.shard->conns.find(conn_id);
    if (it == ctx.shard->conns.end()) continue;
    Connection& conn = it->second;
    const Reactor::Clock::time_point deadline =
        conn.last_activity + ctx.options->idle_timeout;
    if (deadline > now) {
      // Activity moved the deadline: lazily re-bucket.
      ctx.shard->wheel.Insert(conn_id, ctx.shard->wheel.TickOf(deadline) + 1);
      continue;
    }
    CloseConnection(ctx, conn_id);
    ctx.idle_reaped->fetch_add(1, std::memory_order_release);
    Bump(ReactorCells().idle_reaped);
  }
}

/// The address of `host`:`port`, or InvalidArgument for a host that is not
/// an IPv4 literal.
StatusOr<sockaddr_in> DialAddress(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("host \"" + host +
                                   "\" is not an IPv4 literal");
  }
  return addr;
}

}  // namespace

Status CheckDialHost(const std::string& host) {
  return DialAddress(host, 0).status();
}

StatusOr<int> StartDial(const std::string& host, int port, bool* pending) {
  const StatusOr<sockaddr_in> addr = DialAddress(host, port);
  if (!addr.ok()) return addr.status();
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *pending =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) <
      0;
  if (*pending && errno != EINPROGRESS) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " + error);
  }
  return fd;
}

bool Reactor::Call(const CallPeer& peer, std::string line,
                   Clock::time_point deadline, CallDone done) {
  ShardContext* const ctx = t_context;
  if (ctx == nullptr) return false;
  auto [it, created] =
      ctx->shard->upstreams.try_emplace({peer.host, peer.port});
  if (created) it->second.peer = peer;
  OutCall call{std::move(line), deadline, std::move(done)};
  SendCalls(*ctx, it->second, std::span<OutCall>(&call, 1));
  return true;
}

void Reactor::ShardLoop(Shard& shard) {
  ShardContext ctx;
  ctx.reactor = this;
  ctx.options = &options_;
  ctx.handler = &handler_;
  ctx.shard = &shard;
  ctx.open_connections = &open_connections_;
  ctx.idle_reaped = &idle_reaped_;
  ctx.write_stall_disconnects = &write_stall_disconnects_;
  ctx.buffer_limit_disconnects = &buffer_limit_disconnects_;
  ctx.oversized_requests = &oversized_requests_;
  ctx.requests = &requests_;
  ctx.responses = &responses_;
  ctx.read_errors = &read_errors_;
  ctx.write_errors = &write_errors_;
  ctx.buffered_bytes = &buffered_bytes_;
  ctx.now = options_.clock();
  t_context = &ctx;
  reactor_internal::t_own_mailbox = shard.mailbox.get();

  // Poll cadence: short enough to notice injected-clock jumps in tests,
  // and bounded by the reaping tick in production; the eventfd cuts
  // through it for other threads' completions and fresh connections, and
  // the earliest call deadline bounds it.
  int timeout_ms = 200;
  if (options_.idle_timeout.count() > 0) {
    timeout_ms = static_cast<int>(std::min<std::int64_t>(
        std::max<std::int64_t>(options_.idle_timeout.count() / 8, 1), 200));
  }

  std::vector<epoll_event> events(64);
  while (!stop_.load(std::memory_order_acquire)) {
    const Clock::time_point iter_start = Clock::now();
    const int n = ::epoll_wait(shard.epoll_fd, events.data(),
                               static_cast<int>(events.size()),
                               WaitMs(ctx, timeout_ms));
    if (stop_.load(std::memory_order_acquire)) break;
    if (n < 0 && errno != EINTR) break;
    ctx.now = options_.clock();
    for (int i = 0; i < std::max(n, 0); ++i) {
      if (events[static_cast<std::size_t>(i)].data.u64 == 0) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t rd = ::read(
            shard.mailbox->event_fd, &drained, sizeof(drained));
        break;
      }
    }
    RegisterIncoming(ctx);
    ApplyCompletions(ctx);
    for (int i = 0; i < std::max(n, 0); ++i) {
      const epoll_event& event = events[static_cast<std::size_t>(i)];
      const std::uint64_t id = event.data.u64;
      if (id == 0) continue;
      auto it = ctx.shard->conns.find(id);
      if (it == ctx.shard->conns.end()) continue;
      if (it->second.upstream != nullptr) {
        HandleUpstreamEvent(ctx, it->second, event.events);
        continue;
      }
      if ((event.events & (EPOLLERR | EPOLLHUP)) != 0 &&
          (event.events & EPOLLIN) == 0) {
        ctx.read_errors->fetch_add(1, std::memory_order_relaxed);
        CloseConnection(ctx, id);
        continue;
      }
      if ((event.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        HandleReadable(ctx, id);
      }
      if ((event.events & EPOLLOUT) != 0) {
        it = ctx.shard->conns.find(id);
        if (it != ctx.shard->conns.end()) FlushConnection(ctx, it->second);
      }
    }
    ExpireCalls(ctx);
    Settle(ctx);
    // What this thread answered during the iteration goes out before the
    // next wait: it posted no wake-up.
    ApplyCompletions(ctx);
    ReapIdle(ctx);
    if (shard.loop_ms != nullptr && obs::Enabled()) {
      shard.loop_ms->Observe(ElapsedMs(iter_start, Clock::now()));
    }
    if (ctx.stop_requested) {
      Stop();
      break;
    }
  }

  // Teardown: release every connection (and its buffer accounting), and
  // drop the calls still out, unanswered.
  std::vector<std::uint64_t> ids;
  ids.reserve(shard.conns.size());
  for (const auto& [id, conn] : shard.conns) ids.push_back(id);
  for (const std::uint64_t id : ids) CloseConnection(ctx, id);
  shard.upstreams.clear();
  shard.replies.clear();
  t_context = nullptr;
  reactor_internal::t_own_mailbox = nullptr;
}

}  // namespace domd
