#include "bench_e2e/topology.h"

#include <filesystem>
#include <string_view>
#include <thread>

#include "serve/wire.h"

namespace domd {
namespace bench_e2e {
namespace {

/// Reads the first key of a JSON object line and, when it is "cmd", the
/// command name — enough to name a span without parsing a 43 KB request.
void PeekVerb(std::string_view line, std::string_view* key,
              std::string_view* cmd) {
  const auto quoted = [&line](std::size_t from) -> std::string_view {
    const std::size_t open = line.find('"', from);
    if (open == std::string_view::npos) return {};
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string_view::npos) return {};
    return line.substr(open + 1, close - open - 1);
  };
  *key = quoted(0);
  *cmd = {};
  if (*key == "cmd") {
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) *cmd = quoted(colon + 1);
  }
}

SpanName ClassifyRouterLine(std::string_view line) {
  std::string_view key, cmd;
  PeekVerb(line, &key, &cmd);
  if (key == "avail_id") return kRouterPoint;
  if (key == "avail_ids") return kRouterScatter;
  if (key == "avail") return kRouterDetached;
  if (cmd == "ingest") return kRouterIngest;
  return kRouterControl;
}

SpanName ClassifyShardLine(std::string_view line) {
  std::string_view key, cmd;
  PeekVerb(line, &key, &cmd);
  if (key == "avail_id") return kShardPoint;
  if (key == "avail") return kShardDetached;
  if (cmd == "ingest") return kShardIngest;
  if (cmd == "replicate") return kShardReplicate;
  if (cmd == "health") return kShardHealth;
  return kShardControl;
}

/// Wraps a Reactor handler in a span when tracing is on.
template <typename Fn>
Reactor::Handler Traced(SpanBuffer* tracer, SpanName (*classify)(std::string_view),
                        Fn handle) {
  return [tracer, classify, handle](std::string line, Responder responder) {
    if (tracer == nullptr || !tracer->enabled()) {
      handle(std::move(line), std::move(responder));
      return;
    }
    ScopedSpan span(tracer, classify(line));
    handle(std::move(line), std::move(responder));
  };
}

/// Brings one replica up the way domd_serve's Run() does.
Status StartReplica(const TopologyOptions& options, const std::string& dir,
                    const std::vector<cluster::Endpoint>& peers,
                    Cluster::Replica* replica) {
  Parallelism parallelism;
  parallelism.num_threads = 0;  // domd_serve's --threads default.
  RetryOptions load_retry;
  auto bundle = LoadBundleWithRetry(options.bundle_dir, parallelism,
                                    kDefaultViewCacheBytes, load_retry);
  if (!bundle.ok()) return bundle.status();

  ServeOptions serve_options;
  serve_options.parallelism = parallelism;
  replica->service =
      std::make_unique<PredictionService>(*bundle, serve_options);

  // --persist-dir: bootstrapped from the bundle's reference fleet.
  const std::string persist_dir = dir + "/data";
  std::error_code ec;
  std::filesystem::create_directories(persist_dir, ec);
  if (ec) return Status::IoError(persist_dir + ": " + ec.message());
  DOMD_RETURN_IF_ERROR(WriteFileDurably(
      persist_dir + "/avails.csv",
      (*bundle)->data().avails.ToCsv().Serialize()));
  DOMD_RETURN_IF_ERROR(WriteFileDurably(
      persist_dir + "/rccs.csv", (*bundle)->data().rccs.ToCsv().Serialize()));
  DataStoreOptions store_options;
  store_options.merge_threshold = 2048;
  auto store = DataStore::OpenDir(persist_dir, store_options);
  if (!store.ok()) return store.status();
  replica->store = std::move(*store);

  ReplicationOptions repl_options;
  repl_options.peers = peers;
  repl_options.quorum = 2;
  replica->repl = std::make_unique<ReplicationManager>(replica->store.get(),
                                                       repl_options);

  replica->retrain_root = dir + "/retrain";
  FrontendOptions frontend_options;
  frontend_options.parallelism = parallelism;
  frontend_options.load_retry = load_retry;
  frontend_options.store = replica->store.get();
  frontend_options.retrain_root = replica->retrain_root;
  frontend_options.repl = replica->repl.get();
  replica->frontend = std::make_unique<ServeFrontend>(replica->service.get(),
                                                      frontend_options);
  replica->live.store(replica->frontend.get(), std::memory_order_release);
  return Status::OK();
}

/// True once the router's health verb shows every replica up and ready.
bool RouterReportsAllReady(LineClient* client) {
  std::string response;
  if (!client->Call("{\"cmd\": \"health\"}", &response)) return false;
  auto health = JsonValue::Parse(response);
  if (!health.ok() || !health->BoolOr("all_shards_routable", false)) {
    return false;
  }
  const JsonValue* shards = health->Find("shards");
  if (shards == nullptr || !shards->is_array()) return false;
  for (const JsonValue& shard : shards->items()) {
    const JsonValue* replicas = shard.Find("replicas");
    if (replicas == nullptr || !replicas->is_array()) return false;
    for (const JsonValue& replica : replicas->items()) {
      if (!replica.BoolOr("up", false) || !replica.BoolOr("ready", false)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<Cluster>> Cluster::Start(
    const TopologyOptions& options, double* setup_seconds) {
  const Nanos start = NowNs();
  std::unique_ptr<Cluster> out(new Cluster());
  out->root_ = options.work_dir;

  // Reactors first: every replica's peer list needs the other ports. The
  // handler answers UNAVAILABLE until the replica is fully wired, and no
  // traffic can arrive before the router exists anyway.
  out->replicas_.resize(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t r = 0; r < kReplicasPerShard; ++r) {
      auto replica = std::make_unique<Replica>();
      Replica* raw = replica.get();
      auto reactor = Reactor::Create(
          ReactorOptions{},
          Traced(options.tracer, &ClassifyShardLine,
                 [raw](std::string line, Responder responder) {
                   ServeFrontend* frontend =
                       raw->live.load(std::memory_order_acquire);
                   if (frontend == nullptr) {
                     responder.Respond(
                         ErrorToJson(Status::Unavailable("replica starting"))
                             .Serialize());
                     return;
                   }
                   frontend->Handle(std::move(line), std::move(responder));
                 }));
      if (!reactor.ok()) return reactor.status();
      replica->reactor = std::move(*reactor);
      replica->port = replica->reactor->port();
      out->replicas_[s].push_back(std::move(replica));
    }
  }

  std::vector<Status> statuses(kShards * kReplicasPerShard);
  std::vector<std::thread> starters;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t r = 0; r < kReplicasPerShard; ++r) {
      std::vector<cluster::Endpoint> peers;
      for (std::size_t p = 0; p < kReplicasPerShard; ++p) {
        if (p != r) peers.push_back({"127.0.0.1", out->replicas_[s][p]->port});
      }
      const std::string dir = options.work_dir + "/shard" + std::to_string(s) +
                              "-r" + std::to_string(r);
      Status* status = &statuses[s * kReplicasPerShard + r];
      Replica* replica = out->replicas_[s][r].get();
      starters.emplace_back([&options, dir, peers, status, replica] {
        *status = StartReplica(options, dir, peers, replica);
      });
    }
  }
  for (std::thread& starter : starters) starter.join();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }

  std::vector<cluster::ShardSpec> specs;
  for (std::size_t s = 0; s < kShards; ++s) {
    cluster::ShardSpec spec;
    spec.id = static_cast<int>(s);
    for (const auto& replica : out->replicas_[s]) {
      spec.replicas.push_back({"127.0.0.1", replica->port});
    }
    specs.push_back(std::move(spec));
  }
  auto host_map = cluster::HostMap::Create(std::move(specs));
  if (!host_map.ok()) return host_map.status();
  out->router_ = std::make_unique<cluster::ClusterRouter>(std::move(*host_map),
                                                          cluster::RouterOptions{});
  cluster::ClusterRouter* router = out->router_.get();
  auto router_reactor = Reactor::Create(
      ReactorOptions{},
      Traced(options.tracer, &ClassifyRouterLine,
             [router](std::string line, Responder responder) {
               router->Handle(std::move(line), std::move(responder));
             }));
  if (!router_reactor.ok()) return router_reactor.status();
  out->router_reactor_ = std::move(*router_reactor);
  out->router_port_ = out->router_reactor_->port();

  LineClient health(out->router_port_);
  if (!health.connected()) return Status::Unavailable("router unreachable");
  const Nanos deadline = NowNs() + 60'000'000'000;
  while (!RouterReportsAllReady(&health)) {
    if (NowNs() > deadline) {
      return Status::DeadlineExceeded("router never reported all replicas");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *setup_seconds = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

Cluster::~Cluster() {
  router_reactor_.reset();
  router_.reset();
  // Reactors, then the layers behind them, front to back: no thread of a
  // later layer may outlive an earlier one that still calls into it.
  for (auto& shard : replicas_) {
    for (auto& replica : shard) {
      replica->reactor.reset();
      replica->live.store(nullptr, std::memory_order_release);
    }
  }
  for (auto& shard : replicas_) {
    for (auto& replica : shard) replica->frontend.reset();
  }
  for (auto& shard : replicas_) {
    for (auto& replica : shard) replica->repl.reset();
  }
  for (auto& shard : replicas_) {
    for (auto& replica : shard) {
      replica->store.reset();
      if (replica->service != nullptr) replica->service->Shutdown();
      replica->service.reset();
    }
  }
  std::error_code ec;
  if (!root_.empty()) std::filesystem::remove_all(root_, ec);
}

std::size_t Cluster::OwnerOf(std::int64_t avail_id) const {
  return router_->host_map().OwnerIndexOf(cluster::KeyForAvail(avail_id));
}

}  // namespace bench_e2e
}  // namespace domd
