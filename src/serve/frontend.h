#ifndef DOMD_SERVE_FRONTEND_H_
#define DOMD_SERVE_FRONTEND_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "ingest/data_store.h"
#include "serve/json.h"
#include "serve/prediction_service.h"
#include "serve/reactor.h"
#include "serve/replication.h"

namespace domd {

/// Knobs the verb router needs beyond the PredictionService itself.
struct FrontendOptions {
  Parallelism parallelism;
  std::size_t cache_bytes = kDefaultViewCacheBytes;
  RetryOptions load_retry;
  /// Where `stage` copies incoming bundles. Empty picks a process-unique
  /// temp directory (pid + frontend instance), so co-located shards never
  /// stage onto each other's copies.
  std::string stage_root;
  /// Optional streaming-ingestion store (not owned; must outlive the
  /// frontend). When set, the frontend registers the `ingest` and
  /// `freshness` verbs over it — and, when retrain_root is also set, the
  /// `retrain` verb that trains a fresh bundle from a consistent snapshot
  /// and hot-swaps it through the usual swap machinery, and the `adopt`
  /// verb that publishes a shard peer's models trained on the same epoch.
  DataStore* store = nullptr;
  /// Directory `retrain` and `adopt` write new bundle versions under.
  std::string retrain_root;
  /// Optional ingest replication layer (not owned; must outlive the
  /// frontend; requires `store`). When set, the frontend registers the
  /// `replicate` and `catchup` verbs, `ingest` promotes-then-awaits-quorum
  /// through it, and `health`/`stats` report the replication role and lag.
  /// When null, every response stays byte-identical to the un-replicated
  /// server's.
  ReplicationManager* repl = nullptr;
};

/// Where a verb's handler runs.
enum class VerbPolicy {
  kInline,  ///< on the event-loop shard; handlers must never block.
  kWorker,  ///< on the worker thread: blocking but bounded (disk I/O, fsync).
  /// On a separate long-job thread (training runs lasting minutes), so an
  /// in-flight retrain can never queue ingest durability acks or
  /// stage/swap flips behind it.
  kSlowWorker,
};

/// The NDJSON verb router of domd_serve, factored out of the binary so the
/// chaos tests and the bench drive the exact same request handling the
/// server runs. One instance plugs into a Reactor as its Handler:
///
///   reactor = Reactor::Create(opts, [&f](std::string line, Responder r) {
///     f.Handle(std::move(line), std::move(r));
///   });
///
/// Verbs are dispatched through a registration table instead of an ad-hoc
/// `if` chain: each verb carries a policy saying where its handler runs.
/// Inline verbs (ping/stats/health/metrics — O(1) reads) answer on the
/// shard; worker verbs (swap/stage/ingest/freshness — blocking disk I/O,
/// bounded retry, snapshot materialization) queue to a dedicated worker
/// thread so they can never stall an event-loop shard; slow-worker verbs
/// (retrain — a full training run — and adopt) get their own thread so a
/// long job never delays a queued durability ack or flip. `shutdown` responds
/// through RespondThenStop, which stops the reactor only after the
/// response line has drained. Requests with no `cmd` score: reference-
/// fleet requests (`avail_id`) answer inline against one bundle snapshot,
/// detached requests flow through PredictionService::SubmitAsync and
/// respond from the batcher thread.
///
/// `stage` is the per-shard half of a coordinated cluster rollout
/// (DESIGN.md §12): it copies the named bundle crash-safely into this
/// shard's stage_root, fully loads and validates the copy, and parks the
/// loaded bundle so a later `swap` onto the staged directory flips
/// instantly without re-reading disk. A failed stage leaves the live
/// bundle untouched.
///
/// With a DataStore attached (DESIGN.md §14), `ingest` appends mutations
/// durably, `freshness` reports the live bundle's data epoch against the
/// store's, and `retrain` closes the loop: pin a snapshot, train, write a
/// new bundle version, hot-swap. With `"ship_models": true` its answer also
/// carries the models text and checksum, which `adopt` takes on another
/// replica of the shard: a replica whose store is at the trained-on epoch
/// writes those models over its own tables and swaps, without training.
class ServeFrontend {
 public:
  /// A verb handler: answers the parsed request via `responder`, exactly
  /// once. The request outlives the call only for worker verbs (the job
  /// owns a copy).
  using VerbHandler =
      std::function<void(const JsonValue& request, Responder responder)>;

  ServeFrontend(PredictionService* service, FrontendOptions options);
  ~ServeFrontend();

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  /// Registers (or replaces) a verb. Not synchronized with Handle: wire up
  /// custom verbs before the reactor starts feeding requests in.
  void RegisterVerb(const std::string& name, VerbPolicy policy,
                    VerbHandler handler);

  /// Routes one request line; always answers via `responder`, exactly once.
  void Handle(std::string line, Responder responder);

 private:
  struct Verb {
    VerbPolicy policy = VerbPolicy::kInline;
    VerbHandler handler;
  };
  /// One queued worker-verb invocation (owns its parsed request).
  struct WorkerJob {
    VerbHandler handler;
    JsonValue request;
    Responder responder;
  };

  void RegisterBuiltinVerbs();
  void WorkerLoop(std::deque<WorkerJob>* queue,
                  std::condition_variable* available);
  void RunSwap(const JsonValue& request, Responder responder);
  void RunStage(const JsonValue& request, Responder responder);
  void RunIngest(const JsonValue& request, Responder responder);
  void RunRetrain(const JsonValue& request, Responder responder);
  void RunAdopt(const JsonValue& request, Responder responder);
  /// The write -> load -> swap tail `retrain` and `adopt` share: publishes
  /// `models_text` over `snapshot`'s tables as <retrain_root>/<version>
  /// and hot-swaps it. Returns the answer: ok with the new version, dir
  /// and epoch, or the error (the live bundle keeps serving).
  JsonValue PublishBundle(const DataSnapshot& snapshot,
                          const std::string& version,
                          const std::string& models_text);

  PredictionService* const service_;
  const FrontendOptions options_;
  const std::string stage_root_;  ///< resolved from options_.stage_root.

  /// The verb table. Only mutated by RegisterVerb (construction time).
  std::map<std::string, Verb> verbs_;

  std::mutex worker_mutex_;
  std::condition_variable worker_available_;
  std::condition_variable slow_available_;
  std::deque<WorkerJob> worker_queue_;
  std::deque<WorkerJob> slow_queue_;  ///< kSlowWorker jobs (retrain, adopt).
  bool stopping_ = false;
  /// Staged bundles by their staged directory, kept loaded so the flip
  /// half of a rollout swaps without touching disk.
  std::map<std::string, std::shared_ptr<const ModelBundle>> staged_;
  std::thread worker_;       ///< last members: join before teardown.
  std::thread slow_worker_;
};

}  // namespace domd

#endif  // DOMD_SERVE_FRONTEND_H_
