#include "serve/frontend.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "fault/fault.h"
#include "serve/wire.h"

namespace domd {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string DefaultStageRoot() {
  // Pid + per-frontend counter: co-located shards (several frontends in
  // one test or bench process) get disjoint staging trees.
  static std::atomic<int> instance{0};
  return (std::filesystem::temp_directory_path() /
          ("domd_staged." + std::to_string(::getpid()) + "." +
           std::to_string(instance.fetch_add(1))))
      .string();
}

/// The version names a directory under retrain_root; a multi-component
/// value ("../../dir") would write and load a bundle outside it, so only a
/// single plain path component is accepted.
Status CheckVersionComponent(const std::string& verb,
                             const std::string& version) {
  if (version.empty() || version == "." || version == ".." ||
      version.find('/') != std::string::npos ||
      version.find('\\') != std::string::npos) {
    return Status::InvalidArgument(verb +
                                   " \"version\" must be a single path "
                                   "component, got \"" + version + "\"");
  }
  return Status::OK();
}

}  // namespace

ServeFrontend::ServeFrontend(PredictionService* service,
                             FrontendOptions options)
    : service_(service),
      options_(std::move(options)),
      stage_root_(options_.stage_root.empty() ? DefaultStageRoot()
                                              : options_.stage_root),
      verbs_(/*workers=*/1, /*slow_workers=*/1) {
  verbs_.Register("", VerbPolicy::kInline,
                  std::bind_front(&ServeFrontend::Score, this));
  verbs_.Register("ping", VerbPolicy::kInline,
                  [this](const VerbRequest&, Responder responder) {
                    JsonValue out = JsonValue::Object();
                    out.Set("ok", JsonValue::Bool(true));
                    out.Set("bundle_version",
                            JsonValue::String(service_->bundle()->version()));
                    responder.Respond(out.Serialize());
                  });
  verbs_.Register("stats", VerbPolicy::kInline,
                  [this](const VerbRequest&, Responder responder) {
                    JsonValue out = StatsToJson(service_->stats());
                    if (options_.store != nullptr &&
                        options_.repl != nullptr) {
                      out.Set("repl", options_.repl->StatsJson());
                    }
                    responder.Respond(out.Serialize());
                  });
  verbs_.Register("health", VerbPolicy::kInline, [this](const VerbRequest&,
                                                        Responder responder) {
    // Readiness probe: "ready" means the service is admitting work (the
    // breaker is not shedding). The identity fields let orchestration
    // confirm which bundle answers before routing traffic.
    const ServeStatsSnapshot stats = service_->stats();
    const auto bundle = service_->bundle();
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(true));
    out.Set("ready", JsonValue::Bool(stats.breaker != BreakerState::kOpen));
    out.Set("bundle_version", JsonValue::String(bundle->version()));
    out.Set("bundle_dir", JsonValue::String(bundle->directory()));
    out.Set("schema_hash",
            JsonValue::Number(static_cast<double>(bundle->schema_hash())));
    out.Set("breaker_state",
            JsonValue::String(BreakerStateToString(stats.breaker)));
    out.Set("queue_depth",
            JsonValue::Number(static_cast<double>(stats.queue_depth)));
    out.Set("swap_failures",
            JsonValue::Number(static_cast<double>(stats.swap_failures)));
    if (options_.store != nullptr && options_.repl != nullptr) {
      // Replication stance: which replica owns the write path, how far
      // this one has applied, and (on a primary) the worst follower lag.
      out.Set("ingest_role",
              JsonValue::String(ReplRoleName(options_.repl->role())));
      out.Set("ingest_last_seq",
              JsonValue::Number(
                  static_cast<double>(options_.store->last_seq())));
      out.Set("repl_lag",
              JsonValue::Number(static_cast<double>(options_.repl->lag())));
    }
    responder.Respond(out.Serialize());
  });
  verbs_.Register("swap", VerbPolicy::kWorker,
                  std::bind_front(&ServeFrontend::RunSwap, this));
  verbs_.Register("stage", VerbPolicy::kWorker,
                  std::bind_front(&ServeFrontend::RunStage, this));

  if (options_.store == nullptr) return;

  // Streaming-ingestion verbs (DESIGN.md §14), registered only when the
  // server owns a DataStore.
  verbs_.Register("ingest", VerbPolicy::kWorker,
                  std::bind_front(&ServeFrontend::RunIngest, this));
  verbs_.Register("freshness", VerbPolicy::kWorker,
                  [this](const VerbRequest&, Responder responder) {
    // Staleness probe: the live bundle embeds the data epoch it was
    // trained from; the store's epoch says what the data looks like now.
    // Unequal epochs mean a retrain would pick up new data. Worker, not
    // inline: on a dirty store epoch() streams every row through the
    // fingerprint — O(dataset), though it copies nothing — and under
    // active ingestion every append bumps the generation, so the
    // per-generation cache cannot save an event-loop shard from that cost.
    const auto bundle = service_->bundle();
    const std::uint64_t store_epoch = options_.store->epoch();
    const IngestStats stats = options_.store->stats();
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(true));
    out.Set("bundle_version", JsonValue::String(bundle->version()));
    out.Set("bundle_epoch", JsonValue::String(Hex64(bundle->data_epoch())));
    out.Set("store_epoch", JsonValue::String(Hex64(store_epoch)));
    out.Set("stale", JsonValue::Bool(bundle->data_epoch() != store_epoch));
    out.Set("pending_mutations",
            JsonValue::Number(static_cast<double>(stats.pending)));
    out.Set("appended", JsonValue::Number(static_cast<double>(stats.appended)));
    out.Set("merges", JsonValue::Number(static_cast<double>(stats.merges)));
    responder.Respond(out.Serialize());
  });
  if (options_.repl != nullptr) {
    // Peer-to-peer replication verbs (DESIGN.md §15). kWorker, not
    // kInline: a sequenced apply fsyncs the local log and an out-of-range
    // catch-up request materializes a snapshot.
    verbs_.Register("replicate", VerbPolicy::kWorker,
                    [this](const VerbRequest& request, Responder responder) {
                      responder.Respond(
                          options_.repl->HandleReplicate(request.json)
                              .Serialize());
                    });
    verbs_.Register("catchup", VerbPolicy::kWorker,
                    [this](const VerbRequest& request, Responder responder) {
                      responder.Respond(
                          options_.repl->HandleCatchup(request.json)
                              .Serialize());
                    });
  }
  if (!options_.retrain_root.empty()) {
    // A full training run can take minutes; kSlowWorker keeps it off the
    // worker thread so queued ingest acks and stage/swap flips never wait
    // behind it. `adopt` shares the thread: it writes and loads a whole
    // bundle, and ordering it behind a retrain on the same replica is
    // harmless.
    verbs_.Register("retrain", VerbPolicy::kSlowWorker,
                    std::bind_front(&ServeFrontend::RunRetrain, this));
    verbs_.Register("adopt", VerbPolicy::kSlowWorker,
                    std::bind_front(&ServeFrontend::RunAdopt, this));
  }
}

void ServeFrontend::Handle(std::string line, Responder responder) {
  verbs_.Handle(std::move(line), std::move(responder));
}

void ServeFrontend::RunSwap(const VerbRequest& request, Responder responder) {
  std::string dir = request.json.StringOr("bundle", "");
  if (dir.empty()) {
    responder.Respond(
        ErrorToJson(Status::InvalidArgument("swap needs \"bundle\""))
            .Serialize());
    return;
  }
  // The serve.swap fault gate and the (blocking, retried) bundle load
  // both run here, off the event-loop shards. Failure keeps the
  // last-known-good bundle serving and names it in the response.
  const Status fault = DOMD_FAULT_POINT("serve.swap").Check();
  if (!fault.ok()) {
    service_->NoteSwapFailure(fault);
    JsonValue out = ErrorToJson(fault);
    out.Set("bundle_version",
            JsonValue::String(service_->bundle()->version()));
    responder.Respond(out.Serialize());
    return;
  }
  // A swap onto a directory this shard staged flips without touching
  // disk: the staged bundle was fully loaded and validated at stage time.
  std::shared_ptr<const ModelBundle> staged;
  {
    std::lock_guard<std::mutex> lock(staged_mutex_);
    const auto it = staged_.find(dir);
    if (it != staged_.end()) staged = it->second;
  }
  if (staged != nullptr) {
    service_->SwapBundle(staged);
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(true));
    out.Set("bundle_version", JsonValue::String(staged->version()));
    out.Set("from_stage", JsonValue::Bool(true));
    responder.Respond(out.Serialize());
    return;
  }
  auto bundle = LoadBundleWithRetry(dir, options_.parallelism,
                                    options_.cache_bytes,
                                    options_.load_retry);
  if (!bundle.ok()) {
    service_->NoteSwapFailure(bundle.status());
    JsonValue out = ErrorToJson(bundle.status());
    out.Set("bundle_version",
            JsonValue::String(service_->bundle()->version()));
    responder.Respond(out.Serialize());
    return;
  }
  service_->SwapBundle(*bundle);
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("bundle_version", JsonValue::String((*bundle)->version()));
  responder.Respond(out.Serialize());
}

void ServeFrontend::RunStage(const VerbRequest& request, Responder responder) {
  std::string bundle_dir = request.json.StringOr("bundle", "");
  if (bundle_dir.empty()) {
    responder.Respond(
        ErrorToJson(Status::InvalidArgument("stage needs \"bundle\""))
            .Serialize());
    return;
  }
  // Crash-safe copy into this shard's staging tree, then a full load to
  // validate the copy end to end (checksums, schema, model parse). Any
  // failure leaves the live bundle untouched — staging is side-effect-free
  // until the flip.
  const std::string dest =
      stage_root_ + "/" +
      std::filesystem::path(bundle_dir).filename().string();
  std::error_code ec;
  std::filesystem::create_directories(stage_root_, ec);
  if (ec) {
    responder.Respond(
        ErrorToJson(Status::IoError("cannot create stage root " +
                                    stage_root_ + ": " + ec.message()))
            .Serialize());
    return;
  }
  const Status copied = CopyBundleDurable(bundle_dir, dest);
  if (!copied.ok()) {
    responder.Respond(ErrorToJson(copied).Serialize());
    return;
  }
  auto bundle = LoadBundleWithRetry(dest, options_.parallelism,
                                    options_.cache_bytes,
                                    options_.load_retry);
  if (!bundle.ok()) {
    responder.Respond(ErrorToJson(bundle.status()).Serialize());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(staged_mutex_);
    staged_[dest] = *bundle;
  }
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("staged_version", JsonValue::String((*bundle)->version()));
  out.Set("staged_dir", JsonValue::String(dest));
  responder.Respond(out.Serialize());
}

void ServeFrontend::RunIngest(const VerbRequest& request, Responder responder) {
  // Parse, validate, durably append. Runs on the worker because the log
  // fsync (and any triggered merge wait) must never block a shard.
  auto mutations = ParseIngestMutations(request.json);
  if (!mutations.ok()) {
    responder.Respond(ErrorToJson(mutations.status()).Serialize());
    return;
  }
  if (options_.repl != nullptr) {
    // A replicated shard only accepts ingest as its primary: a follower
    // landing an ingest (router failover) promotes here, syncing to the
    // highest acknowledged sequence it can reach first.
    const Status primary = options_.repl->EnsurePrimary();
    if (!primary.ok()) {
      responder.Respond(ErrorToJson(primary).Serialize());
      return;
    }
  }
  std::uint64_t last_seq = 0;
  const Status appended = options_.store->AppendBatch(*mutations, &last_seq);
  if (!appended.ok()) {
    responder.Respond(ErrorToJson(appended).Serialize());
    return;
  }
  if (options_.repl != nullptr && !mutations->empty()) {
    const Status quorum = options_.repl->AwaitQuorum(last_seq);
    if (!quorum.ok()) {
      // Durable locally but not yet on quorum - 1 peers: report the
      // failure (the senders keep shipping the batch from the store's
      // tail, and sequenced redelivery is idempotent, so a client retry
      // is safe).
      JsonValue out = ErrorToJson(quorum);
      out.Set("last_seq", JsonValue::Number(static_cast<double>(last_seq)));
      responder.Respond(out.Serialize());
      return;
    }
  }
  const IngestStats stats = options_.store->stats();
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("appended",
          JsonValue::Number(static_cast<double>(mutations->size())));
  out.Set("pending_mutations",
          JsonValue::Number(static_cast<double>(stats.pending)));
  out.Set("store_epoch", JsonValue::String(Hex64(options_.store->epoch())));
  if (options_.repl != nullptr) {
    out.Set("last_seq", JsonValue::Number(static_cast<double>(last_seq)));
  }
  responder.Respond(out.Serialize());
}

void ServeFrontend::RunRetrain(const VerbRequest& request,
                               Responder responder) {
  // The continuous-retraining loop: pin a consistent cut of everything
  // ingested so far, train with the live bundle's pipeline config, and
  // publish the result as a fresh bundle version. Failure at any step
  // keeps the last-known-good bundle serving. The version is checked
  // before training, not after.
  const auto snapshot = options_.store->Snapshot();
  const std::string version =
      request.json.StringOr("version", "e" + Hex64(snapshot->epoch()));
  const Status valid = CheckVersionComponent("retrain", version);
  if (!valid.ok()) {
    responder.Respond(ErrorToJson(valid).Serialize());
    return;
  }

  PipelineConfig config = service_->bundle()->config();
  config.parallelism = options_.parallelism;
  config.cache_bytes = options_.cache_bytes;

  std::vector<std::int64_t> train_ids;
  for (const Avail& avail : snapshot->data().avails.rows()) {
    if (avail.delay().has_value()) train_ids.push_back(avail.id);
  }
  auto estimator = DomdEstimator::Train(snapshot, config, train_ids);
  if (!estimator.ok()) {
    responder.Respond(ErrorToJson(estimator.status()).Serialize());
    return;
  }
  std::ostringstream models_out;
  const Status saved = estimator->models().Save(models_out);
  if (!saved.ok()) {
    responder.Respond(ErrorToJson(saved).Serialize());
    return;
  }
  const std::string models = models_out.str();

  JsonValue out = PublishBundle(*snapshot, version, models);
  if (out.BoolOr("ok", false)) {
    out.Set("trained_avails",
            JsonValue::Number(static_cast<double>(train_ids.size())));
    if (request.json.BoolOr("ship_models", false)) {
      // The exact models.txt bytes and the checksum the MANIFEST records:
      // the router hands them to this shard's other replicas as `adopt`.
      out.Set("models", JsonValue::String(models));
      out.Set("models_checksum",
              JsonValue::String(Hex64(BundleFileChecksum(models))));
    }
  }
  responder.Respond(out.Serialize());
}

void ServeFrontend::RunAdopt(const VerbRequest& request, Responder responder) {
  // A shard peer's retrain, adopted instead of repeated. The epoch is
  // content (DESIGN.md §14): a replica whose store is at the epoch the
  // models were trained on holds the same tables in the same row order,
  // so its own training would produce exactly these bytes. Any refusal or
  // failure keeps the live bundle serving.
  const auto snapshot = options_.store->Snapshot();
  const std::string version = request.json.StringOr("version", "");
  const JsonValue* models = request.json.Find("models");
  Status valid = CheckVersionComponent("adopt", version);
  if (valid.ok() && (models == nullptr || !models->is_string())) {
    valid = Status::InvalidArgument("adopt needs a string \"models\"");
  }
  if (valid.ok()) {
    const std::string epoch = Hex64(snapshot->epoch());
    const std::string bundle_epoch =
        request.json.StringOr("bundle_epoch", "");
    if (bundle_epoch != epoch) {
      valid = Status::FailedPrecondition(
          "adopt: models trained on epoch \"" + bundle_epoch +
          "\" but this replica is at " + epoch);
    } else if (request.json.StringOr("models_checksum", "") !=
               Hex64(BundleFileChecksum(models->string_value()))) {
      valid = Status::DataLoss("adopt: \"models\" do not match "
                               "\"models_checksum\"");
    }
  }
  if (!valid.ok()) {
    responder.Respond(ErrorToJson(valid).Serialize());
    return;
  }
  responder.Respond(
      PublishBundle(*snapshot, version, models->string_value()).Serialize());
}

JsonValue ServeFrontend::PublishBundle(const DataSnapshot& snapshot,
                                       const std::string& version,
                                       const std::string& models_text) {
  const std::string dir = options_.retrain_root + "/" + version;
  std::error_code ec;
  std::filesystem::create_directories(options_.retrain_root, ec);
  if (ec) {
    return ErrorToJson(Status::IoError("cannot create retrain root " +
                                       options_.retrain_root + ": " +
                                       ec.message()));
  }
  const Status written =
      ModelBundle::WriteModels(models_text, snapshot.data(), dir, version);
  if (!written.ok()) return ErrorToJson(written);
  auto bundle = LoadBundleWithRetry(dir, options_.parallelism,
                                    options_.cache_bytes,
                                    options_.load_retry);
  if (!bundle.ok()) {
    service_->NoteSwapFailure(bundle.status());
    JsonValue out = ErrorToJson(bundle.status());
    out.Set("bundle_version",
            JsonValue::String(service_->bundle()->version()));
    return out;
  }
  service_->SwapBundle(*bundle);
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("bundle_version", JsonValue::String((*bundle)->version()));
  out.Set("bundle_dir", JsonValue::String(dir));
  out.Set("bundle_epoch", JsonValue::String(Hex64(snapshot.epoch())));
  return out;
}

void ServeFrontend::Score(const VerbRequest& request, Responder responder) {
  // Reference-fleet scoring: cheap lock-free read against the current
  // bundle, answered inline on the shard (no queueing).
  if (const JsonValue* avail_id = request.json.Find("avail_id");
      avail_id != nullptr && avail_id->is_number()) {
    const auto point = ParsePointRequest(request.json);
    if (!point.ok()) {
      responder.Respond(ErrorToJson(point.status()).Serialize());
      return;
    }
    const auto result = service_->bundle()->ScoreReferenceAvail(
        point->avail_id, point->t_star, point->top_k);
    if (!result.ok()) {
      responder.Respond(ErrorToJson(result.status()).Serialize());
      return;
    }
    responder.Respond(
        PredictionToJson(*result, ElapsedMs(request.received, Clock::now()))
            .Serialize());
    return;
  }

  // Detached scoring through the admission queue + micro-batcher. The
  // completion fires on the batcher thread (or inline for an immediate
  // rejection) and posts the response back to the owning shard.
  auto score = ParseScoreRequest(request.json);
  if (!score.ok()) {
    responder.Respond(ErrorToJson(score.status()).Serialize());
    return;
  }
  const auto ms = RequestDeadlineMs(request.json);
  if (!ms.ok()) {
    responder.Respond(ErrorToJson(ms.status()).Serialize());
    return;
  }
  const Clock::time_point start = request.received;
  std::optional<PredictionService::Clock::time_point> deadline;
  if (ms->has_value()) {
    deadline = start + std::chrono::microseconds(
                           static_cast<std::int64_t>(**ms * 1000.0));
  }
  service_->SubmitAsync(
      std::move(*score), deadline,
      [responder, start](StatusOr<ServePrediction> result) {
        if (!result.ok()) {
          responder.Respond(ErrorToJson(result.status()).Serialize());
          return;
        }
        responder.Respond(
            PredictionToJson(*result, ElapsedMs(start, Clock::now()))
                .Serialize());
      });
}

}  // namespace domd
