#ifndef DOMD_SERVE_VERB_TABLE_H_
#define DOMD_SERVE_VERB_TABLE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/json.h"
#include "serve/reactor.h"

namespace domd {

/// Where a verb's handler runs.
enum class VerbPolicy {
  kInline,  ///< on the event-loop shard; handlers must never block.
  kWorker,  ///< on the worker pool: blocking but bounded (disk, upstreams).
  /// On the slow-worker pool (training runs lasting minutes), so a long
  /// job never queues a worker verb behind it.
  kSlowWorker,
};

/// One request as a handler sees it.
struct VerbRequest {
  JsonValue json;
  std::string line;  ///< as received, for verbatim forwarding.
  /// When the line reached the table, before the parse: where every
  /// `latency_ms` a handler reports starts.
  std::chrono::steady_clock::time_point received;
};

/// The NDJSON dispatcher both servers run on: ServeFrontend and
/// ClusterRouter register their verbs and pass every line to Handle. The
/// table parses the line, looks up its "cmd" (the empty name takes
/// requests without one), answers a parse error, an unknown cmd or a
/// failed pre-queue check itself, and runs the handler where the verb's
/// policy says. It also answers `metrics` (Prometheus exposition) and
/// `shutdown` (stop the reactor once the answer drains) for both servers.
///
/// Declare the table as its owner's last member: the destructor answers
/// every queued request and joins the pools before anything the handlers
/// touch is destroyed.
class VerbTable {
 public:
  /// Answers through `responder`, exactly once.
  using Handler =
      std::function<void(const VerbRequest& request, Responder responder)>;
  /// Runs on the reactor shard before a request is queued; a failing
  /// Status is answered there, so a malformed request is never shed.
  using Check = std::function<Status(const JsonValue& request)>;

  /// Starts `workers` kWorker and `slow_workers` kSlowWorker threads. A
  /// queued verb that finds `max_queue_depth` requests waiting in its pool
  /// is answered RESOURCE_EXHAUSTED with `shed_message` instead.
  VerbTable(std::size_t workers, std::size_t slow_workers,
            std::size_t max_queue_depth =
                std::numeric_limits<std::size_t>::max(),
            std::string shed_message = "");
  ~VerbTable();

  VerbTable(const VerbTable&) = delete;
  VerbTable& operator=(const VerbTable&) = delete;

  /// Registers (or replaces) verb `name`. Register every verb before the
  /// first Handle; a queued policy needs a thread in its pool.
  void Register(const std::string& name, VerbPolicy policy, Handler handler,
                Check check = {});

  /// Always answers via `responder` exactly once.
  void Handle(std::string line, Responder responder);

  /// Runs `job` on the `policy` pool (kWorker or kSlowWorker): how an
  /// inline handler hands off work that may block, such as the router's
  /// forward of a detached prediction. False when `max_queue_depth` jobs already wait there, or the
  /// table is being destroyed; then nothing runs, and the caller answers
  /// with Shed().
  bool Queue(VerbPolicy policy, std::function<void()> job);

  /// Counts one request turned away for lack of room and returns what it
  /// is answered: RESOURCE_EXHAUSTED with the table's shed message.
  Status Shed();

  /// Requests answered RESOURCE_EXHAUSTED because their queue was full.
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

 private:
  struct Verb {
    VerbPolicy policy = VerbPolicy::kInline;
    Handler handler;
    Check check;
  };
  struct Pool {
    std::deque<std::function<void()>> queue;
    std::condition_variable available;
    std::vector<std::thread> threads;
  };

  void Drain(Pool* pool);

  const std::size_t max_queue_depth_;
  const std::string shed_message_;
  std::map<std::string, Verb> verbs_;
  std::atomic<std::uint64_t> shed_{0};
  std::mutex mutex_;  ///< guards both queues and stopping_.
  bool stopping_ = false;
  Pool worker_;
  Pool slow_;
};

}  // namespace domd

#endif  // DOMD_SERVE_VERB_TABLE_H_
