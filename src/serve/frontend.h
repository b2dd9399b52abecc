#ifndef DOMD_SERVE_FRONTEND_H_
#define DOMD_SERVE_FRONTEND_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ingest/data_store.h"
#include "serve/json.h"
#include "serve/prediction_service.h"
#include "serve/reactor.h"
#include "serve/replication.h"
#include "serve/verb_table.h"

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

/// The NDJSON verb router of domd_serve, factored out of the binary so the
/// chaos tests and the bench drive the exact same request handling the
/// server runs. One instance plugs into a Reactor as its Handler:
///
///   reactor = Reactor::Create(opts, [&f](std::string line, Responder r) {
///     f.Handle(std::move(line), std::move(r));
///   });
///
/// The constructor registers every verb on a VerbTable with one worker and
/// one slow-worker thread (retrain and adopt, so a training run never
/// delays a queued durability ack or flip), both queues unbounded.
/// Requests with no `cmd` score inline: reference-fleet requests
/// (`avail_id`) answer against one bundle snapshot, detached requests flow
/// through PredictionService::SubmitAsync and respond from the batcher
/// thread.
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
  ServeFrontend(PredictionService* service, FrontendOptions options);

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  /// Routes one request line; always answers via `responder`, exactly once.
  void Handle(std::string line, Responder responder);

 private:
  void Score(const VerbRequest& request, Responder responder);
  void RunSwap(const VerbRequest& request, Responder responder);
  void RunStage(const VerbRequest& request, Responder responder);
  void RunIngest(const VerbRequest& request, Responder responder);
  void RunRetrain(const VerbRequest& request, Responder responder);
  void RunAdopt(const VerbRequest& request, Responder responder);
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

  /// Staged bundles by their staged directory, kept loaded so the flip
  /// half of a rollout swaps without touching disk.
  std::mutex staged_mutex_;
  std::map<std::string, std::shared_ptr<const ModelBundle>> staged_;
  VerbTable verbs_;  ///< last member: its workers join before teardown.
};

}  // namespace domd

#endif  // DOMD_SERVE_FRONTEND_H_
