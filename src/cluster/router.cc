#include "cluster/router.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "fault/fault.h"
#include "serve/wire.h"

namespace domd {
namespace cluster {
namespace {

/// Does this response line report an app-level shed the router should hedge
/// around? Breaker-open shards answer UNAVAILABLE / RESOURCE_EXHAUSTED; a
/// replica serving the same partition can still answer, so those responses
/// are retryable. Every other app-level error (bad request, unknown avail)
/// is a deterministic answer and must forward verbatim. An unparseable
/// response is treated as hedgeable corruption, not an answer.
bool IsHedgeableResponse(const std::string& line) {
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) return true;
  if (parsed->BoolOr("ok", true)) return false;
  const std::string code = parsed->StringOr("code", "");
  return code == "UNAVAILABLE" || code == "RESOURCE_EXHAUSTED";
}

/// What a prediction must carry before the router admits it, so a
/// malformed request is answered at once and never shed as
/// RESOURCE_EXHAUSTED.
Status CheckPrediction(const JsonValue& request) {
  const JsonValue* avail_ids = request.Find("avail_ids");
  const JsonValue* avail_id = request.Find("avail_id");
  if (avail_ids == nullptr && avail_id == nullptr &&
      request.Find("avail") == nullptr) {
    return Status::InvalidArgument(
        "request needs \"avail_id\", \"avail_ids\", or \"avail\"");
  }
  if (avail_ids != nullptr && !avail_ids->is_array()) {
    return Status::InvalidArgument("\"avail_ids\" must be an array");
  }
  if (avail_id != nullptr && avail_ids == nullptr && !avail_id->is_number()) {
    return Status::InvalidArgument("\"avail_id\" must be a number");
  }
  return Status::OK();
}

Status CheckRollout(const JsonValue& request) {
  if (request.StringOr("bundle", "").empty()) {
    return Status::InvalidArgument("rollout needs \"bundle\"");
  }
  return Status::OK();
}

}  // namespace

/// One routed point or scatter on its way back: a slot per forwarded line,
/// filled when its walk ends, and the answer written once the last slot
/// and the dispatcher are in. Created, filled and answered on the reactor
/// shard that read the request. While it lives it holds one of the
/// max_queue_depth places.
struct ClusterRouter::Gather {
  Gather(ClusterRouter* owner, Responder reply, std::size_t slots,
         bool is_scatter)
      : router(owner),
        responder(std::move(reply)),
        scatter(is_scatter),
        results(slots, StatusOr<std::string>(std::string())),
        pending(slots + 1) {}
  ~Gather() { router->in_flight_.fetch_sub(1, std::memory_order_relaxed); }

  void Fill(std::size_t slot, StatusOr<std::string> result, bool hedged_here) {
    results[slot] = std::move(result);
    hedged = hedged || hedged_here;
    Arrive();
  }
  /// Called once per filled slot and once by the dispatcher, after its
  /// last Forward; the last arrival answers.
  void Arrive() {
    if (--pending == 0) router->Answer(*this);
  }

  ClusterRouter* const router;
  const Responder responder;
  const bool scatter;
  std::size_t fanout = 0;  ///< shards a scatter touches.
  std::vector<StatusOr<std::string>> results;
  std::size_t pending;
  bool hedged = false;
};

ClusterRouter::ClusterRouter(HostMap host_map, RouterOptions options)
    : host_map_(std::move(host_map)),
      options_(options),
      verbs_(std::max<std::size_t>(1, options.workers), /*slow_workers=*/0,
             options.max_queue_depth, "router worker queue full") {
  const std::size_t num_shards = host_map_.num_shards();
  replica_states_.resize(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    replica_states_[i].resize(host_map_.shards()[i].replicas.size());
  }
  CallPeer site_peer;
#if DOMD_FAULT_COMPILED
  site_peer.connect_site = &DOMD_FAULT_POINT("cluster.route.connect");
  site_peer.send_site = &DOMD_FAULT_POINT("cluster.route.send");
  site_peer.recv_site = &DOMD_FAULT_POINT("cluster.route.recv");
#endif
  for (const ShardSpec& shard : host_map_.shards()) {
    std::vector<CallPeer>& peers = peers_.emplace_back();
    for (const Endpoint& replica : shard.replicas) {
      CallPeer peer = site_peer;
      peer.host = replica.host;
      peer.port = replica.port;
      peers.push_back(std::move(peer));
    }
  }

#if DOMD_OBS_COMPILED
  auto& registry = obs::MetricsRegistry::Default();
  for (const ShardSpec& shard : host_map_.shards()) {
    const std::string label = "{shard=\"" + std::to_string(shard.id) + "\"}";
    cells_.routed_by_shard.push_back(
        &registry.GetCounter("domd_router_routed_total" + label));
    cells_.ingest_routed_by_shard.push_back(
        &registry.GetCounter("domd_router_ingest_routed_total" + label));
    cells_.shard_up.push_back(
        &registry.GetGauge("domd_router_shard_up" + label));
  }
  cells_.hedged = &registry.GetCounter("domd_router_hedged_total");
  cells_.failed = &registry.GetCounter("domd_router_failed_total");
  cells_.fanout = &registry.GetHistogram("domd_router_scatter_fanout",
                                         obs::SizeBuckets());
  cells_.rollouts = &registry.GetCounter("domd_router_rollouts_total");
  cells_.rollout_failures =
      &registry.GetCounter("domd_router_rollout_failures_total");
#else
  cells_.routed_by_shard.assign(num_shards, nullptr);
  cells_.ingest_routed_by_shard.assign(num_shards, nullptr);
  cells_.shard_up.assign(num_shards, nullptr);
#endif

  // Control verbs read local state and answer inline, and predictions
  // start there; everything else that waits on a shard hops to the worker
  // pool.
  verbs_.Register("ping", VerbPolicy::kInline,
                  [this](const VerbRequest&, Responder responder) {
                    JsonValue out = JsonValue::Object();
                    out.Set("ok", JsonValue::Bool(true));
                    out.Set("role", JsonValue::String("router"));
                    out.Set("num_shards",
                            JsonValue::Number(static_cast<double>(
                                host_map_.num_shards())));
                    responder.Respond(out.Serialize());
                  });
  verbs_.Register("health", VerbPolicy::kInline,
                  [this](const VerbRequest&, Responder responder) {
                    responder.Respond(HealthJson().Serialize());
                  });
  verbs_.Register("stats", VerbPolicy::kInline,
                  [this](const VerbRequest&, Responder responder) {
                    responder.Respond(StatsJson().Serialize());
                  });
  verbs_.Register("", VerbPolicy::kInline,
                  std::bind_front(&ClusterRouter::RunPredict, this),
                  CheckPrediction);
  verbs_.Register("rollout", VerbPolicy::kWorker,
                  std::bind_front(&ClusterRouter::RunRollout, this),
                  CheckRollout);
  verbs_.Register("ingest", VerbPolicy::kWorker,
                  std::bind_front(&ClusterRouter::RunIngest, this));
  verbs_.Register("freshness", VerbPolicy::kWorker,
                  std::bind_front(&ClusterRouter::RunFreshness, this));
  verbs_.Register("retrain", VerbPolicy::kWorker,
                  std::bind_front(&ClusterRouter::RunRetrainScatter, this));
  if (options_.start_prober) {
    prober_ = std::thread([this] { ProberLoop(); });
  }
}

ClusterRouter::~ClusterRouter() {
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
    prober_stop_ = true;
    prober_cv_.notify_all();
  }
  if (prober_.joinable()) prober_.join();
}

void ClusterRouter::Handle(std::string line, Responder responder) {
  verbs_.Handle(std::move(line), std::move(responder));
}

void ClusterRouter::ProberLoop() {
  // Probe first, then wait: health and the ingest primary are known as soon
  // as the replicas answer, not one probe_interval after start.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(prober_mutex_);
      if (prober_stop_) return;
    }
    ProbeOnce();
    std::unique_lock<std::mutex> lock(prober_mutex_);
    if (prober_cv_.wait_for(lock, options_.probe_interval,
                            [this] { return prober_stop_; })) {
      return;
    }
  }
}

void ClusterRouter::RunPredict(const VerbRequest& request,
                               Responder responder) {
  if (const JsonValue* ids = request.json.Find("avail_ids");
      ids != nullptr && ids->is_array()) {
    RunScatter(request, std::move(responder));
    return;
  }
  if (const JsonValue* avail_id = request.json.Find("avail_id");
      avail_id != nullptr && avail_id->is_number()) {
    // Checked by the shards' own parser before any hop, so a rejection
    // here answers exactly what the owning shard would.
    const auto point = ParsePointRequest(request.json);
    if (!point.ok()) {
      responder.Respond(ErrorToJson(point.status()).Serialize());
      return;
    }
    const std::size_t shard_index =
        host_map_.OwnerIndexOf(KeyForAvail(point->avail_id));
    std::shared_ptr<Gather> gather = Admit(responder, 1, /*scatter=*/false);
    if (gather == nullptr) return;
    CountRouted(shard_index);
    Forward(Walk(shard_index, PreferenceOrder(shard_index),
                 Clock::now() + options_.upstream_deadline),
            request.line, gather, 0);
    gather->Arrive();
    return;
  }
  // Detached scoring travels with its avail; the ship owns the key so a
  // ship's traffic lands on one shard regardless of avail numbering. A
  // malformed ship_id routes like an absent one, and the owning shard's
  // parser rejects it. It forwards from a worker: the shard answers the
  // ~43 KB line from its batcher, and points pipelined behind it on the
  // event loop's connection would wait for it.
  const JsonValue* avail = request.json.Find("avail");
  const auto ship_id = avail != nullptr
                           ? IntegerMember(*avail, "ship_id", 0)
                           : StatusOr<std::int64_t>(0);
  const std::size_t shard_index =
      host_map_.OwnerIndexOf(KeyForShip(ship_id.ok() ? *ship_id : 0));
  const bool queued = verbs_.Queue(
      VerbPolicy::kWorker, [this, line = request.line, shard_index,
                            responder] {
        CountRouted(shard_index);
        bool hedged = false;
        auto result = RouteWithOrder(
            Walk(shard_index, PreferenceOrder(shard_index),
                 Clock::now() + options_.upstream_deadline),
            line, &hedged);
        Reply(responder, std::move(result), hedged);
      });
  if (!queued) responder.Respond(ErrorToJson(verbs_.Shed()).Serialize());
}

void ClusterRouter::RunScatter(const VerbRequest& request,
                               Responder responder) {
  const JsonValue& ids = *request.json.Find("avail_ids");
  const std::size_t n = ids.items().size();
  std::shared_ptr<Gather> gather = Admit(responder, n, /*scatter=*/true);
  if (gather == nullptr) return;
  scattered_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point deadline =
      Clock::now() + options_.upstream_deadline;

  // Per-id subrequests inherit the parent's scoring knobs, so each shard
  // answers exactly as it would a direct single-avail request. A bad id
  // fills its own slot with the error.
  const std::size_t num_shards = host_map_.num_shards();
  std::vector<std::string> sublines(n);
  std::vector<std::size_t> owners(n, num_shards);
  std::vector<bool> touched(num_shards, false);
  for (std::size_t i = 0; i < n; ++i) {
    const JsonValue& id = ids.items()[i];
    const auto avail_id =
        IntegerFromJson(id, "avail_ids[" + std::to_string(i) + "]");
    if (!avail_id.ok()) {
      gather->Fill(i, avail_id.status(), /*hedged_here=*/false);
      continue;
    }
    JsonValue sub = JsonValue::Object();
    sub.Set("avail_id", id);
    if (const JsonValue* t = request.json.Find("t_star"); t != nullptr) {
      sub.Set("t_star", *t);
    }
    if (const JsonValue* k = request.json.Find("top_k"); k != nullptr) {
      sub.Set("top_k", *k);
    }
    sublines[i] = sub.Serialize();
    owners[i] = host_map_.OwnerIndexOf(KeyForAvail(*avail_id));
    touched[owners[i]] = true;
  }
  gather->fanout = static_cast<std::size_t>(
      std::count(touched.begin(), touched.end(), true));
  if (cells_.fanout != nullptr && obs::Enabled()) {
    cells_.fanout->Observe(static_cast<double>(gather->fanout));
  }
  // Each id travels as a point: the shards compute concurrently, and the
  // ids one shard owns pipeline on one connection.
  for (std::size_t i = 0; i < n; ++i) {
    if (owners[i] == num_shards) continue;
    Forward(Walk(owners[i], PreferenceOrder(owners[i]), deadline),
            std::move(sublines[i]), gather, i);
  }
  gather->Arrive();
}

std::shared_ptr<ClusterRouter::Gather> ClusterRouter::Admit(
    const Responder& responder, std::size_t slots, bool scatter) {
  if (in_flight_.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_queue_depth) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    responder.Respond(ErrorToJson(verbs_.Shed()).Serialize());
    return nullptr;
  }
  return std::make_shared<Gather>(this, responder, slots, scatter);
}

void ClusterRouter::Forward(Walk walk, std::string line,
                            std::shared_ptr<Gather> gather,
                            std::size_t slot) {
  Clock::time_point budget;
  const CallPeer& peer = peers_[walk.shard_index][NextAttempt(walk, &budget)];
  // The call's copy; `line` stays for a hedge unless no replica is left.
  std::string sent =
      walk.tried == walk.order.size() ? std::move(line) : line;
  const bool called = Reactor::Call(
      peer, std::move(sent), budget,
      [this, walk = std::move(walk), line = std::move(line), gather,
       slot](StatusOr<std::string> answer) mutable {
        if (Judge(walk, answer)) {
          gather->Fill(slot, std::move(answer), walk.tried > 1);
        } else {
          Forward(std::move(walk), std::move(line), std::move(gather), slot);
        }
      });
  if (!called) {
    gather->Fill(slot,
                 Status::Internal("prediction routed off a reactor shard"),
                 /*hedged_here=*/false);
  }
}

void ClusterRouter::Answer(Gather& gather) {
  if (!gather.scatter) {
    Reply(gather.responder, std::move(gather.results.front()), gather.hedged);
    return;
  }
  if (gather.hedged) CountHedged();
  const std::size_t n = gather.results.size();
  std::size_t errors = 0;
  for (const StatusOr<std::string>& result : gather.results) {
    if (!result.ok()) ++errors;
  }
  if (errors == n && n > 0) CountFailed();
  // In-order merge by raw-line splicing: each result is the owning shard's
  // response byte-for-byte, never reserialized.
  std::string out = "{\"ok\": ";
  out += errors == 0 ? "true" : "false";
  out += ", \"results\": [";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    const StatusOr<std::string>& result = gather.results[i];
    out += result.ok() ? *result : ErrorToJson(result.status()).Serialize();
  }
  out += "], \"fanout\": " + std::to_string(gather.fanout);
  out += ", \"hedged\": ";
  out += gather.hedged ? "true" : "false";
  out += ", \"errors\": " + std::to_string(errors) + "}";
  gather.responder.Respond(std::move(out));
}

void ClusterRouter::Reply(const Responder& responder,
                          StatusOr<std::string> result, bool hedged) {
  if (hedged) CountHedged();
  if (!result.ok()) {
    CountFailed();
    responder.Respond(ErrorToJson(result.status()).Serialize());
    return;
  }
  // Verbatim forwarding: a routed answer is bit-identical to asking the
  // owning shard directly (the bit-identity contract, DESIGN.md §12).
  responder.Respond(std::move(*result));
}

void ClusterRouter::RunIngest(const VerbRequest& request,
                              Responder responder) {
  const Clock::time_point deadline =
      Clock::now() + options_.upstream_deadline;
  const JsonValue* avails = request.json.Find("avails");
  const JsonValue* rccs = request.json.Find("rccs");
  if ((avails != nullptr && !avails->is_array()) ||
      (rccs != nullptr && !rccs->is_array())) {
    responder.Respond(
        ErrorToJson(
            Status::InvalidArgument("\"avails\"/\"rccs\" must be arrays"))
            .Serialize());
    return;
  }

  // Split by owning shard: avail upserts key on their id, RCC upserts on
  // their avail_id — the same key, so an RCC always lands on the shard
  // that owns (and referentially validates) its avail.
  const std::size_t num_shards = host_map_.num_shards();
  std::vector<JsonValue> shard_avails;
  std::vector<JsonValue> shard_rccs;
  std::vector<bool> touched(num_shards, false);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shard_avails.push_back(JsonValue::Array());
    shard_rccs.push_back(JsonValue::Array());
  }
  // A malformed routing key rejects the whole batch before any hop, so no
  // shard applies its part of a batch the owning shard would refuse.
  const auto split = [&](const JsonValue* rows, const std::string& key,
                         std::vector<JsonValue>* out) -> Status {
    if (rows == nullptr) return Status::OK();
    for (const JsonValue& row : rows->items()) {
      const auto id = IntegerMember(row, key, 0);
      if (!id.ok()) return id.status();
      const std::size_t s = host_map_.OwnerIndexOf(KeyForAvail(*id));
      (*out)[s].Append(row);
      touched[s] = true;
    }
    return Status::OK();
  };
  Status split_status = split(avails, "id", &shard_avails);
  if (split_status.ok()) split_status = split(rccs, "avail_id", &shard_rccs);
  if (!split_status.ok()) {
    responder.Respond(ErrorToJson(split_status).Serialize());
    return;
  }
  std::size_t fanout = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (touched[s]) ++fanout;
  }
  if (fanout == 0) {
    responder.Respond(
        ErrorToJson(Status::InvalidArgument(
                        "ingest needs \"avails\" and/or \"rccs\" rows"))
            .Serialize());
    return;
  }

  bool any_hedged = false;
  bool all_ok = true;
  double appended = 0;
  std::string sole_response;
  JsonValue results = JsonValue::Array();
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!touched[s]) continue;
    ingest_routed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Counter* cell = cells_.ingest_routed_by_shard[s];
        cell != nullptr && obs::Enabled()) {
      cell->Increment();
    }
    JsonValue sub = JsonValue::Object();
    sub.Set("cmd", JsonValue::String("ingest"));
    if (!shard_avails[s].items().empty()) {
      sub.Set("avails", std::move(shard_avails[s]));
    }
    if (!shard_rccs[s].items().empty()) {
      sub.Set("rccs", std::move(shard_rccs[s]));
    }
    bool hedged = false;
    auto response = RouteWithOrder(
        Walk(s, IngestPreferenceOrder(s), deadline), sub.Serialize(), &hedged);
    any_hedged = any_hedged || hedged;
    const int shard_id = host_map_.shards()[s].id;
    if (!response.ok()) {
      all_ok = false;
      JsonValue err = ErrorToJson(response.status());
      err.Set("shard", JsonValue::Number(static_cast<double>(shard_id)));
      results.Append(std::move(err));
      continue;
    }
    if (fanout == 1) sole_response = *response;
    auto parsed = JsonValue::Parse(*response);
    if (!parsed.ok()) {
      all_ok = false;
      JsonValue err = ErrorToJson(parsed.status());
      err.Set("shard", JsonValue::Number(static_cast<double>(shard_id)));
      results.Append(std::move(err));
      continue;
    }
    all_ok = all_ok && parsed->BoolOr("ok", false);
    appended += parsed->NumberOr("appended", 0.0);
    parsed->Set("shard", JsonValue::Number(static_cast<double>(shard_id)));
    results.Append(std::move(*parsed));
  }
  if (any_hedged) CountHedged();
  if (!all_ok) CountFailed();
  // A single-shard batch forwards the owning primary's successful answer
  // verbatim (the bit-identity contract); failures and multi-shard
  // batches aggregate per-shard results.
  if (fanout == 1 && all_ok) {
    responder.Respond(std::move(sole_response));
    return;
  }
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(all_ok));
  out.Set("appended", JsonValue::Number(appended));
  out.Set("shards", JsonValue::Number(static_cast<double>(fanout)));
  out.Set("hedged", JsonValue::Bool(any_hedged));
  out.Set("results", std::move(results));
  responder.Respond(out.Serialize());
}

void ClusterRouter::RunFreshness(const VerbRequest&, Responder responder) {
  // Cluster-wide freshness: every replica of every shard answers, and a
  // shard counts as converged when all of its replicas report one store
  // epoch — the replication bit-identity invariant, observable from the
  // outside.
  const Clock::time_point deadline =
      Clock::now() + options_.upstream_deadline;
  const std::string line = "{\"cmd\": \"freshness\"}";
  JsonValue shards = JsonValue::Array();
  bool all_ok = true;
  bool all_converged = true;
  bool any_stale = false;
  for (std::size_t s = 0; s < host_map_.num_shards(); ++s) {
    const ShardSpec& spec = host_map_.shards()[s];
    JsonValue replicas = JsonValue::Array();
    std::string epoch;
    bool first_epoch = true;
    bool converged = true;
    bool shard_ok = false;
    for (const Endpoint& endpoint : spec.replicas) {
      auto response = pool_.Rpc(endpoint, line, deadline);
      JsonValue entry = JsonValue::Object();
      entry.Set("endpoint", JsonValue::String(endpoint.ToString()));
      if (!response.ok()) {
        entry.Set("ok", JsonValue::Bool(false));
        entry.Set("error",
                  JsonValue::String(response.status().message()));
        converged = false;
        replicas.Append(std::move(entry));
        continue;
      }
      auto parsed = JsonValue::Parse(*response);
      if (!parsed.ok() || !parsed->BoolOr("ok", false)) {
        entry.Set("ok", JsonValue::Bool(false));
        converged = false;
        replicas.Append(std::move(entry));
        continue;
      }
      shard_ok = true;
      const std::string store_epoch = parsed->StringOr("store_epoch", "");
      const bool stale = parsed->BoolOr("stale", false);
      any_stale = any_stale || stale;
      entry.Set("ok", JsonValue::Bool(true));
      entry.Set("store_epoch", JsonValue::String(store_epoch));
      entry.Set("bundle_epoch",
                JsonValue::String(parsed->StringOr("bundle_epoch", "")));
      entry.Set("stale", JsonValue::Bool(stale));
      entry.Set("pending_mutations",
                JsonValue::Number(
                    parsed->NumberOr("pending_mutations", 0.0)));
      if (first_epoch) {
        epoch = store_epoch;
        first_epoch = false;
      } else if (store_epoch != epoch) {
        converged = false;
      }
      replicas.Append(std::move(entry));
    }
    JsonValue shard = JsonValue::Object();
    shard.Set("id", JsonValue::Number(static_cast<double>(spec.id)));
    shard.Set("converged", JsonValue::Bool(converged));
    shard.Set("replicas", std::move(replicas));
    shards.Append(std::move(shard));
    all_ok = all_ok && shard_ok;
    all_converged = all_converged && converged;
  }
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(all_ok));
  out.Set("role", JsonValue::String("router"));
  out.Set("converged", JsonValue::Bool(all_converged));
  out.Set("stale", JsonValue::Bool(any_stale));
  out.Set("shards", std::move(shards));
  responder.Respond(out.Serialize());
}

void ClusterRouter::RunRetrainScatter(const VerbRequest& request,
                                      Responder responder) {
  // Replicas of a shard at one store epoch hold the same tables in the
  // same row order, and training is deterministic, so each shard trains
  // once. `retrain` with "ship_models" goes to its replicas in ingest
  // preference order until one answers ok; every other replica gets an
  // `adopt` of those models for that epoch, which writes, loads and swaps
  // without training. A replica whose adopt fails for any reason — a
  // lagging follower at another epoch, a standalone replica holding other
  // data, an adopt line over the shard reactor's 1 MiB request cap — gets
  // a plain `retrain`. Each replica answers only after its swap, so the
  // ack still follows every replica's swap.
  JsonValue train_request = request.json;
  train_request.Set("ship_models", JsonValue::Bool(true));
  const std::string train_line = train_request.Serialize();
  const auto rpc = [&](const Endpoint& endpoint, const std::string& line) {
    return pool_.Rpc(endpoint, line,
                     Clock::now() + options_.rollout_rpc_deadline);
  };

  JsonValue results = JsonValue::Array();
  bool all_ok = true;
  for (std::size_t s = 0; s < host_map_.num_shards(); ++s) {
    const ShardSpec& spec = host_map_.shards()[s];
    std::vector<JsonValue> entries(spec.replicas.size());
    // One entry per replica from the answer of the verb it got last.
    const auto record = [&](std::size_t r, bool trained,
                            const StatusOr<std::string>& response) {
      JsonValue entry = JsonValue::Object();
      entry.Set("shard", JsonValue::Number(static_cast<double>(spec.id)));
      entry.Set("endpoint", JsonValue::String(spec.replicas[r].ToString()));
      const StatusOr<JsonValue> parsed =
          response.ok() ? JsonValue::Parse(*response)
                        : StatusOr<JsonValue>(response.status());
      const bool ok = parsed.ok() && parsed->BoolOr("ok", false);
      entry.Set("ok", JsonValue::Bool(ok));
      if (!response.ok()) {
        entry.Set("error", JsonValue::String(response.status().message()));
      } else if (parsed.ok()) {
        entry.Set("bundle_version",
                  JsonValue::String(parsed->StringOr("bundle_version", "")));
        if (!ok) {
          entry.Set("error", JsonValue::String(parsed->StringOr("error", "")));
        }
      }
      entry.Set("trained", JsonValue::Bool(trained));
      entries[r] = std::move(entry);
      return parsed;
    };

    const std::vector<std::size_t> order = IngestPreferenceOrder(s);
    std::size_t next = 0;
    std::string adopt_line;
    while (next < order.size() && adopt_line.empty()) {
      const std::size_t r = order[next++];
      const auto trained =
          record(r, true, rpc(spec.replicas[r], train_line));
      if (!trained.ok() || !trained->BoolOr("ok", false)) continue;
      JsonValue adopt = JsonValue::Object();
      adopt.Set("cmd", JsonValue::String("adopt"));
      adopt.Set("version",
                JsonValue::String(trained->StringOr("bundle_version", "")));
      adopt.Set("bundle_epoch",
                JsonValue::String(trained->StringOr("bundle_epoch", "")));
      adopt.Set("models", JsonValue::String(trained->StringOr("models", "")));
      adopt.Set("models_checksum",
                JsonValue::String(trained->StringOr("models_checksum", "")));
      adopt_line = adopt.Serialize();
    }
    for (; next < order.size(); ++next) {
      const std::size_t r = order[next];
      const auto adopted = record(r, false, rpc(spec.replicas[r], adopt_line));
      if (!adopted.ok() || !adopted->BoolOr("ok", false)) {
        record(r, true, rpc(spec.replicas[r], request.line));
      }
    }
    for (JsonValue& entry : entries) {
      all_ok = all_ok && entry.BoolOr("ok", false);
      results.Append(std::move(entry));
    }
  }
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(all_ok));
  out.Set("role", JsonValue::String("router"));
  out.Set("retrained", std::move(results));
  responder.Respond(out.Serialize());
}

std::vector<std::size_t> ClusterRouter::PreferenceOrder(
    std::size_t shard_index) const {
  const std::size_t count = host_map_.shards()[shard_index].replicas.size();
  std::vector<std::size_t> routable;
  std::vector<std::size_t> last_resort;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (std::size_t r = 0; r < count; ++r) {
      const ReplicaState& state = replica_states_[shard_index][r];
      // A replica the prober has never reached (no probe yet) counts as
      // routable: at cold start everything is unprobed, and refusing to
      // route would deadlock the cluster.
      const bool routable_now =
          (state.up || state.probe_failures == 0) &&
          (state.ready || state.probe_failures == 0);
      (routable_now ? routable : last_resort).push_back(r);
    }
  }
  routable.insert(routable.end(), last_resort.begin(), last_resort.end());
  return routable;
}

std::vector<std::size_t> ClusterRouter::IngestPreferenceOrder(
    std::size_t shard_index) const {
  std::vector<std::size_t> order = PreferenceOrder(shard_index);
  std::size_t primary = order.size();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      if (replica_states_[shard_index][order[pos]].ingest_role == "primary") {
        primary = pos;
        break;
      }
    }
  }
  // Stable rotation keeps the routable-before-down ordering intact behind
  // the promoted head.
  if (primary < order.size()) {
    const std::size_t lead = order[primary];
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(primary));
    order.insert(order.begin(), lead);
  }
  return order;
}

StatusOr<std::string> ClusterRouter::RouteWithOrder(Walk walk,
                                                    const std::string& line,
                                                    bool* hedged) {
  const std::vector<Endpoint>& replicas =
      host_map_.shards()[walk.shard_index].replicas;
  for (;;) {
    Clock::time_point budget;
    const std::size_t r = NextAttempt(walk, &budget);
    StatusOr<std::string> answer = pool_.Rpc(replicas[r], line, budget);
    if (Judge(walk, answer)) {
      *hedged = walk.tried > 1;
      return answer;
    }
  }
}

std::size_t ClusterRouter::NextAttempt(Walk& walk,
                                       Clock::time_point* budget) const {
  const bool last = walk.tried + 1 == walk.order.size();
  *budget = last ? walk.deadline
                 : std::min(walk.deadline,
                            Clock::now() + options_.hedge_deadline);
  return walk.order[walk.tried++];
}

bool ClusterRouter::Judge(Walk& walk, StatusOr<std::string>& answer) {
  const std::size_t r = walk.order[walk.tried - 1];
  if (answer.ok() && !IsHedgeableResponse(*answer)) {
    MarkServing(walk.shard_index, r);
    return true;
  }
  if (answer.ok()) {
    MarkBreakerShed(walk.shard_index, r);
    walk.shed = std::move(*answer);
    walk.error = Status::Unavailable(
        "shard " + std::to_string(host_map_.shards()[walk.shard_index].id) +
        " is shedding load");
  } else {
    MarkTransportFailure(walk.shard_index, r);
    walk.error = answer.status();
  }
  if (walk.tried < walk.order.size()) return false;
  // A replica that shed answered coherently: forward the shard's own shed
  // answer rather than a router-side error.
  answer = walk.shed.empty() ? StatusOr<std::string>(std::move(walk.error))
                             : StatusOr<std::string>(std::move(walk.shed));
  return true;
}

void ClusterRouter::CountRouted(std::size_t shard_index) {
  routed_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Counter* cell = cells_.routed_by_shard[shard_index];
      cell != nullptr && obs::Enabled()) {
    cell->Increment();
  }
}

void ClusterRouter::CountHedged() {
  hedged_.fetch_add(1, std::memory_order_relaxed);
  if (cells_.hedged != nullptr && obs::Enabled()) cells_.hedged->Increment();
}

void ClusterRouter::CountFailed() {
  failed_.fetch_add(1, std::memory_order_relaxed);
  if (cells_.failed != nullptr && obs::Enabled()) cells_.failed->Increment();
}

void ClusterRouter::MarkServing(std::size_t shard_index,
                                std::size_t replica_index) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  ReplicaState& state = replica_states_[shard_index][replica_index];
  state.up = true;
  state.ready = true;
}

void ClusterRouter::MarkTransportFailure(std::size_t shard_index,
                                         std::size_t replica_index) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ReplicaState& state = replica_states_[shard_index][replica_index];
    state.up = false;
    state.ready = false;
    state.probe_failures += 1;
  }
  PublishShardGauges();
}

void ClusterRouter::MarkBreakerShed(std::size_t shard_index,
                                    std::size_t replica_index) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ReplicaState& state = replica_states_[shard_index][replica_index];
    state.up = true;  // transport is fine; the shard is shedding.
    state.ready = false;
    state.probe_failures += 1;
  }
  PublishShardGauges();
}

void ClusterRouter::PublishShardGauges() {
#if DOMD_OBS_COMPILED
  if (!obs::Enabled()) return;
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (std::size_t s = 0; s < replica_states_.size(); ++s) {
    if (cells_.shard_up[s] == nullptr) continue;
    double routable = 0;
    for (const ReplicaState& state : replica_states_[s]) {
      if (state.up && state.ready) routable += 1;
    }
    cells_.shard_up[s]->Set(routable);
  }
#endif
}

void ClusterRouter::ProbeOnce() {
  const std::string probe = "{\"cmd\": \"health\"}";
  for (std::size_t s = 0; s < host_map_.num_shards(); ++s) {
    const ShardSpec& shard = host_map_.shards()[s];
    for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
      probes_.fetch_add(1, std::memory_order_relaxed);
      auto response = pool_.Rpc(shard.replicas[r], probe,
                                Clock::now() + options_.probe_timeout);
      std::lock_guard<std::mutex> lock(state_mutex_);
      ReplicaState& state = replica_states_[s][r];
      if (!response.ok()) {
        state.up = false;
        state.ready = false;
        state.probe_failures += 1;
        continue;
      }
      auto health = JsonValue::Parse(*response);
      if (!health.ok() || !health->BoolOr("ok", false)) {
        state.up = false;
        state.ready = false;
        state.probe_failures += 1;
        continue;
      }
      state.up = true;
      state.ready = health->BoolOr("ready", false);
      state.bundle_version = health->StringOr("bundle_version", "");
      state.ingest_role = health->StringOr("ingest_role", "");
      state.probe_failures = 0;
    }
  }
  PublishShardGauges();
}

void ClusterRouter::RunRollout(const VerbRequest& request,
                               Responder responder) {
  std::unique_lock<std::mutex> rollout_lock(rollout_mutex_, std::try_to_lock);
  if (!rollout_lock.owns_lock()) {
    responder.Respond(
        ErrorToJson(
            Status::FailedPrecondition("a rollout is already in progress"))
            .Serialize());
    return;
  }
  rollouts_.fetch_add(1, std::memory_order_relaxed);
  if (cells_.rollouts != nullptr && obs::Enabled()) {
    cells_.rollouts->Increment();
  }
  const std::string bundle = request.json.StringOr("bundle", "");

  JsonValue flipped = JsonValue::Array();
  // Halts the rollout and reports exactly where it stopped. Every shard is
  // on its last-known-good bundle except those already in `flipped` — a
  // failed stage or flip never leaves a shard half-switched, because the
  // shard-side stage is side-effect-free and swap keeps last-known-good on
  // failure.
  const auto halt = [&](const std::string& phase, int shard_id,
                        const Endpoint& endpoint, const Status& error) {
    rollout_failures_.fetch_add(1, std::memory_order_relaxed);
    if (cells_.rollout_failures != nullptr && obs::Enabled()) {
      cells_.rollout_failures->Increment();
    }
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(false));
    out.Set("phase", JsonValue::String(phase));
    out.Set("failed_shard", JsonValue::Number(static_cast<double>(shard_id)));
    out.Set("failed_endpoint", JsonValue::String(endpoint.ToString()));
    out.Set("code", JsonValue::String(StatusCodeToString(error.code())));
    out.Set("error", JsonValue::String(error.message()));
    out.Set("flipped_shards", flipped);
    responder.Respond(out.Serialize());
  };
  const auto rpc = [&](const Endpoint& endpoint,
                       const std::string& line) -> StatusOr<JsonValue> {
    auto response = pool_.Rpc(endpoint, line,
                              Clock::now() + options_.rollout_rpc_deadline);
    if (!response.ok()) return response.status();
    auto parsed = JsonValue::Parse(*response);
    if (!parsed.ok()) return parsed.status();
    if (!parsed->BoolOr("ok", false)) {
      const std::string code = parsed->StringOr("code", "INTERNAL");
      const std::string message = parsed->StringOr("error", *response);
      if (code == "DATA_LOSS") return Status::DataLoss(message);
      if (code == "UNAVAILABLE") return Status::Unavailable(message);
      if (code == "IO_ERROR") return Status::IoError(message);
      return Status::Internal("[" + code + "] " + message);
    }
    return parsed;
  };

  // Phase 1 — stage everywhere. Each replica copies the bundle crash-
  // safely into its own staging tree and fully validates the copy. No
  // traffic is affected yet.
  JsonValue stage_request = JsonValue::Object();
  stage_request.Set("cmd", JsonValue::String("stage"));
  stage_request.Set("bundle", JsonValue::String(bundle));
  const std::string stage_line = stage_request.Serialize();
  // staged_dirs[shard_index][replica_index] — each replica stages into its
  // own tree, so the flip must name each replica's own staged directory.
  std::vector<std::vector<std::string>> staged_dirs(host_map_.num_shards());
  std::string staged_version;
  for (std::size_t s = 0; s < host_map_.num_shards(); ++s) {
    const ShardSpec& shard = host_map_.shards()[s];
    staged_dirs[s].resize(shard.replicas.size());
    for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
      if (const Status fault =
              DOMD_FAULT_POINT("cluster.rollout.stage").Check();
          !fault.ok()) {
        halt("stage", shard.id, shard.replicas[r], fault);
        return;
      }
      auto response = rpc(shard.replicas[r], stage_line);
      if (!response.ok()) {
        halt("stage", shard.id, shard.replicas[r], response.status());
        return;
      }
      staged_dirs[s][r] = response->StringOr("staged_dir", "");
      const std::string version = response->StringOr("staged_version", "");
      if (staged_dirs[s][r].empty() || version.empty()) {
        halt("stage", shard.id, shard.replicas[r],
             Status::Internal("stage response missing staged_dir/version"));
        return;
      }
      if (staged_version.empty()) {
        staged_version = version;
      } else if (version != staged_version) {
        halt("stage", shard.id, shard.replicas[r],
             Status::DataLoss("staged version \"" + version +
                              "\" disagrees with \"" + staged_version +
                              "\""));
        return;
      }
    }
  }

  // Phase 2 — verify: every replica must be healthy and admitting work
  // before any traffic-affecting flip starts.
  const std::string health_line = "{\"cmd\": \"health\"}";
  for (std::size_t s = 0; s < host_map_.num_shards(); ++s) {
    const ShardSpec& shard = host_map_.shards()[s];
    for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
      auto health = rpc(shard.replicas[r], health_line);
      if (!health.ok()) {
        halt("verify", shard.id, shard.replicas[r], health.status());
        return;
      }
      if (!health->BoolOr("ready", false)) {
        halt("verify", shard.id, shard.replicas[r],
             Status::Unavailable("replica is not ready (breaker open)"));
        return;
      }
    }
  }

  // Phase 3 — flip shard-by-shard: swap every replica of one shard onto
  // its staged directory, confirm via health that the new bundle answers,
  // then move to the next shard. At most one shard is ever mid-flip.
  for (std::size_t s = 0; s < host_map_.num_shards(); ++s) {
    const ShardSpec& shard = host_map_.shards()[s];
    for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
      if (const Status fault =
              DOMD_FAULT_POINT("cluster.rollout.flip").Check();
          !fault.ok()) {
        halt("flip", shard.id, shard.replicas[r], fault);
        return;
      }
      JsonValue swap_request = JsonValue::Object();
      swap_request.Set("cmd", JsonValue::String("swap"));
      swap_request.Set("bundle", JsonValue::String(staged_dirs[s][r]));
      auto response = rpc(shard.replicas[r], swap_request.Serialize());
      if (!response.ok()) {
        halt("flip", shard.id, shard.replicas[r], response.status());
        return;
      }
      auto health = rpc(shard.replicas[r], health_line);
      if (!health.ok()) {
        halt("flip", shard.id, shard.replicas[r], health.status());
        return;
      }
      if (health->StringOr("bundle_version", "") != staged_version) {
        halt("flip", shard.id, shard.replicas[r],
             Status::Internal("replica reports bundle_version \"" +
                              health->StringOr("bundle_version", "") +
                              "\" after flip to \"" + staged_version + "\""));
        return;
      }
    }
    flipped.Append(JsonValue::Number(static_cast<double>(shard.id)));
  }

  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("bundle_version", JsonValue::String(staged_version));
  out.Set("flipped_shards", flipped);
  responder.Respond(out.Serialize());
}

RouterStatsSnapshot ClusterRouter::stats() const {
  RouterStatsSnapshot snapshot;
  snapshot.routed = routed_.load(std::memory_order_relaxed);
  snapshot.scattered = scattered_.load(std::memory_order_relaxed);
  snapshot.ingest_routed = ingest_routed_.load(std::memory_order_relaxed);
  snapshot.hedged = hedged_.load(std::memory_order_relaxed);
  snapshot.failed = failed_.load(std::memory_order_relaxed);
  snapshot.rejected_overload = verbs_.shed();
  snapshot.probes = probes_.load(std::memory_order_relaxed);
  snapshot.rollouts = rollouts_.load(std::memory_order_relaxed);
  snapshot.rollout_failures =
      rollout_failures_.load(std::memory_order_relaxed);
  return snapshot;
}

std::vector<ReplicaState> ClusterRouter::replica_states(
    std::size_t shard_index) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return replica_states_[shard_index];
}

JsonValue ClusterRouter::HealthJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("role", JsonValue::String("router"));
  out.Set("num_shards",
          JsonValue::Number(static_cast<double>(host_map_.num_shards())));
  JsonValue shards = JsonValue::Array();
  std::lock_guard<std::mutex> lock(state_mutex_);
  bool all_up = true;
  for (std::size_t s = 0; s < host_map_.num_shards(); ++s) {
    const ShardSpec& spec = host_map_.shards()[s];
    JsonValue shard = JsonValue::Object();
    shard.Set("id", JsonValue::Number(static_cast<double>(spec.id)));
    JsonValue replicas = JsonValue::Array();
    bool any_routable = false;
    for (std::size_t r = 0; r < spec.replicas.size(); ++r) {
      const ReplicaState& state = replica_states_[s][r];
      JsonValue replica = JsonValue::Object();
      replica.Set("endpoint", JsonValue::String(spec.replicas[r].ToString()));
      replica.Set("up", JsonValue::Bool(state.up));
      replica.Set("ready", JsonValue::Bool(state.ready));
      replica.Set("bundle_version", JsonValue::String(state.bundle_version));
      if (!state.ingest_role.empty()) {
        replica.Set("ingest_role", JsonValue::String(state.ingest_role));
      }
      replica.Set("probe_failures",
                  JsonValue::Number(
                      static_cast<double>(state.probe_failures)));
      replicas.Append(std::move(replica));
      any_routable = any_routable || (state.up && state.ready);
    }
    shard.Set("routable", JsonValue::Bool(any_routable));
    shard.Set("replicas", std::move(replicas));
    shards.Append(std::move(shard));
    all_up = all_up && any_routable;
  }
  out.Set("all_shards_routable", JsonValue::Bool(all_up));
  out.Set("shards", std::move(shards));
  return out;
}

JsonValue ClusterRouter::StatsJson() const {
  const RouterStatsSnapshot snapshot = stats();
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("role", JsonValue::String("router"));
  const auto number = [](std::uint64_t value) {
    return JsonValue::Number(static_cast<double>(value));
  };
  out.Set("routed", number(snapshot.routed));
  out.Set("scattered", number(snapshot.scattered));
  out.Set("ingest_routed", number(snapshot.ingest_routed));
  out.Set("hedged", number(snapshot.hedged));
  out.Set("failed", number(snapshot.failed));
  out.Set("rejected_overload", number(snapshot.rejected_overload));
  out.Set("probes", number(snapshot.probes));
  out.Set("rollouts", number(snapshot.rollouts));
  out.Set("rollout_failures", number(snapshot.rollout_failures));
  return out;
}

}  // namespace cluster
}  // namespace domd
