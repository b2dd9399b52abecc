// domd_serve — online DoMD prediction service over newline-delimited JSON.
//
//   domd_serve --bundle DIR [--port P] [--threads N] [--max-queue Q]
//              [--max-batch B] [--batch-linger-us U] [--cache-bytes B]
//              [--load-retries R] [--breaker-threshold K]
//              [--breaker-open-ms M] [--loop-shards S]
//              [--max-connections C] [--idle-timeout-ms T]
//              [--max-request-bytes L] [--fault-spec SPEC]
//              [--ingest-log FILE] [--retrain-root DIR]
//              [--merge-threshold N] [--persist-dir DIR]
//              [--repl-peers H:P,H:P] [--repl-quorum Q]
//              [--repl-queue-bytes B] [--repl-role primary|follower]
//
// Listens on 127.0.0.1:P (P = 0 picks an ephemeral port; the chosen port is
// printed on stdout as "listening on 127.0.0.1:<port>"). Each connection
// carries one JSON object per line and receives one JSON object per line:
//
//   {"avail": {...}, "rccs": [...], "t_star": 60, "top_k": 5,
//    "deadline_ms": 250}                  detached scoring (see README)
//   {"avail_id": 7, "t_star": 60}        score a reference-fleet avail
//   {"cmd": "stats"}                     service counters + bundle version
//   {"cmd": "metrics"}                   Prometheus text exposition (the
//                                        payload rides one NDJSON line; \n
//                                        inside it is JSON-escaped)
//   {"cmd": "swap", "bundle": DIR}       zero-downtime bundle hot-swap
//   {"cmd": "health"}                    readiness: bundle identity, circuit-
//                                        breaker state, queue depth
//   {"cmd": "ping"}                      liveness probe
//   {"cmd": "shutdown"}                  drain and exit cleanly
//
// With --ingest-log FILE the server opens a streaming DataStore (DESIGN.md
// §14) seeded from the bundle's reference fleet, replaying any records
// already in FILE, and more verbs come online:
//
//   {"cmd": "ingest", "avails": [...], "rccs": [...]}
//       validate + durably log + apply avail/RCC upserts
//   {"cmd": "freshness"}                 live bundle's data epoch vs the
//                                        store's (is the model stale?)
//   {"cmd": "retrain", "version": V}     train a new bundle from a pinned
//                                        snapshot under --retrain-root and
//                                        hot-swap it (requires the flag);
//                                        "ship_models": true also returns
//                                        the models text and checksum
//   {"cmd": "adopt", "version": V, "bundle_epoch": E, "models": M,
//    "models_checksum": C}
//       publish a shard peer's retrained models under --retrain-root and
//       hot-swap them, only when this store is at epoch E (requires the
//       flag; the router sends it so a shard trains once)
//
// --merge-threshold N starts a background merger that compacts the delta
// into the base once N mutations are pending (0, the default, merges only
// by explicit DataStore::Merge).
//
// --persist-dir DIR makes the store fully durable: the base CSVs live in
// DIR (bootstrapped from the bundle's reference fleet on first start),
// merges rewrite them crash-atomically, and the ingest log defaults to
// DIR/ingest.log — so a restarted replica reopens exactly where it left
// off. Required for a replica that may install peer snapshots.
//
// --repl-peers lists the other replicas of this shard and turns on
// sequenced log shipping (DESIGN.md §15): `replicate` and `catchup` come
// online, ingest acks only after the mutation is locally durable AND
// --repl-quorum replicas (counting this one) hold it, and followers that
// fall behind are caught up from the log in the background. --repl-role
// primary promotes eagerly at startup (after syncing from reachable
// peers); the default follower stance promotes on the first routed
// ingest. --repl-quorum 1 (default) acks on local durability alone.
//
// Front-end: a non-blocking epoll reactor (DESIGN.md §11) — one acceptor
// plus --loop-shards event-loop shards, each owning its connections. Client
// requests pipeline: N requests on one connection are answered in order
// without waiting for each other. Per-connection read/write buffers are
// bounded (--max-request-bytes per line; a client that stops reading gets a
// bounded write buffer, then a clean disconnect), idle connections are
// reaped after --idle-timeout-ms, and accepts beyond --max-connections are
// shed at the door.
//
// Robustness: bundle loads (initial and swap) run under bounded retry with
// exponential backoff, so transient I/O hiccups never kill a swap; a load
// that still fails (or fails permanently, e.g. DATA_LOSS on a corrupt
// artifact) leaves the last-known-good bundle serving and is reported in
// stats/metrics. `--fault-spec "point=policy,..."` (or the DOMD_FAULT_SPEC
// environment variable) arms deterministic fault injection for chaos
// testing; builds with -DDOMD_DISABLE_FAULTS refuse the flag.
//
// Scoring requests flow through the PredictionService admission queue
// (bounded; overload answers {"ok":false,"code":"RESOURCE_EXHAUSTED"}) and
// are micro-batched into feature-tensor blocks. A mid-flight "swap" never
// drops a request: in-flight batches finish on the old bundle, later
// batches use the new one, and every response names its bundle version.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/host_map.h"
#include "fault/fault.h"
#include "ingest/data_store.h"
#include "serve/frontend.h"
#include "serve/reactor.h"
#include "serve/replication.h"
#include "serve/wire.h"

namespace domd {
namespace {

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[key.substr(2)] = argv[++i];
    }
  }
  return flags;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Arms fault injection from --fault-spec or $DOMD_FAULT_SPEC. Returns 0
/// on success (or nothing to arm), 2 on a malformed spec or when fault
/// support was compiled out.
int ArmFaults(const Flags& flags) {
  std::string spec = FlagOr(flags, "fault-spec", "");
  if (spec.empty()) {
    if (const char* env = std::getenv("DOMD_FAULT_SPEC")) spec = env;
  }
  if (spec.empty()) return 0;
#if DOMD_FAULT_COMPILED
  const Status status = fault::FaultRegistry::Default().ApplySpec(spec);
  if (!status.ok()) {
    std::fprintf(stderr, "error: --fault-spec: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  fault::SetEnabled(true);
  std::fprintf(stderr, "domd_serve: fault injection armed: %s\n",
               spec.c_str());
  return 0;
#else
  std::fprintf(stderr,
               "error: --fault-spec given but fault injection was compiled "
               "out (-DDOMD_DISABLE_FAULTS)\n");
  return 2;
#endif
}

int Run(const Flags& flags) {
  const auto bundle_it = flags.find("bundle");
  if (bundle_it == flags.end()) {
    std::fprintf(stderr, "error: --bundle is required\n");
    return 2;
  }
  if (const int rc = ArmFaults(flags); rc != 0) return rc;
  Parallelism parallelism;
  parallelism.num_threads =
      std::atoi(FlagOr(flags, "threads", "0").c_str());
  std::size_t cache_bytes = kDefaultViewCacheBytes;
  if (const auto it = flags.find("cache-bytes"); it != flags.end()) {
    cache_bytes = static_cast<std::size_t>(std::atoll(it->second.c_str()));
  }

  RetryOptions load_retry;
  load_retry.max_attempts =
      std::atoi(FlagOr(flags, "load-retries", "4").c_str());
  auto bundle = LoadBundleWithRetry(bundle_it->second, parallelism,
                                    cache_bytes, load_retry);
  if (!bundle.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }

  ServeOptions options;
  options.max_queue_depth = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "max-queue", "256").c_str()));
  options.max_batch_size = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "max-batch", "16").c_str()));
  options.batch_linger = std::chrono::microseconds(
      std::atoi(FlagOr(flags, "batch-linger-us", "200").c_str()));
  options.parallelism = parallelism;
  options.breaker_failure_threshold = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "breaker-threshold", "5").c_str()));
  options.breaker_open_duration = std::chrono::milliseconds(
      std::atoi(FlagOr(flags, "breaker-open-ms", "1000").c_str()));
  PredictionService service(*bundle, options);

  // Streaming ingestion: the store's base is the bundle's reference
  // fleet, so freshness epochs and retrain cuts both extend the data the
  // live model was trained from.
  std::unique_ptr<DataStore> store;
  const std::string persist_dir = FlagOr(flags, "persist-dir", "");
  const auto log_it = flags.find("ingest-log");
  if (!persist_dir.empty() || log_it != flags.end()) {
    DataStoreOptions store_options;
    if (log_it != flags.end()) store_options.log_path = log_it->second;
    store_options.merge_threshold = static_cast<std::size_t>(
        std::atoll(FlagOr(flags, "merge-threshold", "0").c_str()));
    StatusOr<std::unique_ptr<DataStore>> opened =
        Status::Internal("store not opened");
    if (!persist_dir.empty()) {
      // Durable store: base CSVs in persist_dir, bootstrapped from the
      // bundle's reference fleet on first start so every replica begins
      // from the identical base the model was trained on.
      std::error_code ec;
      std::filesystem::create_directories(persist_dir, ec);
      if (ec) {
        std::fprintf(stderr, "error: --persist-dir %s: %s\n",
                     persist_dir.c_str(), ec.message().c_str());
        return 1;
      }
      if (!std::filesystem::exists(persist_dir + "/avails.csv")) {
        Status seeded =
            WriteFileDurably(persist_dir + "/avails.csv",
                             (*bundle)->data().avails.ToCsv().Serialize());
        if (seeded.ok()) {
          seeded =
              WriteFileDurably(persist_dir + "/rccs.csv",
                               (*bundle)->data().rccs.ToCsv().Serialize());
        }
        if (!seeded.ok()) {
          std::fprintf(stderr, "error: --persist-dir: %s\n",
                       seeded.ToString().c_str());
          return 1;
        }
      }
      opened = DataStore::OpenDir(persist_dir, store_options);
    } else {
      opened = DataStore::Open((*bundle)->data(), store_options);
    }
    if (!opened.ok()) {
      std::fprintf(stderr, "error: ingest store: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(*opened);
    const IngestStats ingest = store->stats();
    std::printf(
        "domd_serve: ingest store (%llu replayed, %zu pending, seq %llu)\n",
        static_cast<unsigned long long>(ingest.replayed), ingest.pending,
        static_cast<unsigned long long>(ingest.last_seq));
  }

  // Replication: configured only when a replication flag is present, so a
  // plain --ingest-log server keeps its exact pre-replication wire
  // behavior.
  std::unique_ptr<ReplicationManager> repl;
  const std::string repl_peers = FlagOr(flags, "repl-peers", "");
  const std::string repl_role = FlagOr(flags, "repl-role", "");
  if (store != nullptr && (!repl_peers.empty() || !repl_role.empty())) {
    ReplicationOptions repl_options;
    std::string rest = repl_peers;
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string token = rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      if (token.empty()) continue;
      auto endpoint = cluster::Endpoint::Parse(token);
      if (!endpoint.ok()) {
        std::fprintf(stderr, "error: --repl-peers: %s\n",
                     endpoint.status().ToString().c_str());
        return 2;
      }
      repl_options.peers.push_back(*endpoint);
    }
    repl_options.quorum = static_cast<std::size_t>(
        std::atoi(FlagOr(flags, "repl-quorum", "1").c_str()));
    repl_options.queue_bytes = static_cast<std::size_t>(std::atoll(
        FlagOr(flags, "repl-queue-bytes",
               std::to_string(std::size_t{4} << 20))
            .c_str()));
    repl_options.start_primary = repl_role == "primary";
    repl = std::make_unique<ReplicationManager>(store.get(), repl_options);
    std::printf("domd_serve: replication on (%zu peers, quorum %zu, %s)\n",
                repl_options.peers.size(), repl_options.quorum,
                ReplRoleName(repl->role()));
  }

  FrontendOptions frontend_options;
  frontend_options.parallelism = parallelism;
  frontend_options.cache_bytes = cache_bytes;
  frontend_options.load_retry = load_retry;
  frontend_options.store = store.get();
  frontend_options.retrain_root = FlagOr(flags, "retrain-root", "");
  frontend_options.repl = repl.get();
  ServeFrontend frontend(&service, frontend_options);

  ReactorOptions reactor_options;
  reactor_options.port = std::atoi(FlagOr(flags, "port", "7433").c_str());
  reactor_options.num_shards = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "loop-shards", "2").c_str()));
  reactor_options.max_connections = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "max-connections", "1024").c_str()));
  reactor_options.idle_timeout = std::chrono::milliseconds(
      std::atoll(FlagOr(flags, "idle-timeout-ms", "60000").c_str()));
  reactor_options.max_request_bytes = static_cast<std::size_t>(
      std::atoll(FlagOr(flags, "max-request-bytes",
                        std::to_string(std::size_t{1} << 20))
                     .c_str()));
  auto reactor = Reactor::Create(
      reactor_options, [&frontend](std::string line, Responder responder) {
        frontend.Handle(std::move(line), std::move(responder));
      });
  if (!reactor.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 reactor.status().ToString().c_str());
    return 1;
  }

  std::printf("domd_serve: bundle %s (version %s, %zu reference avails)\n",
              bundle_it->second.c_str(), (*bundle)->version().c_str(),
              (*bundle)->data().avails.size());
  std::printf("listening on 127.0.0.1:%d\n", (*reactor)->port());
  std::fflush(stdout);

  (*reactor)->Wait();
  reactor->reset();  // join shards and release every connection.
  service.Shutdown();

  const ServeStatsSnapshot stats = service.stats();
  std::printf(
      "domd_serve: clean shutdown — %llu submitted, %llu ok, %llu "
      "rejected, %llu batches, %llu swaps\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed_ok),
      static_cast<unsigned long long>(stats.rejected_overload),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.swaps));
  return 0;
}

}  // namespace
}  // namespace domd

int main(int argc, char** argv) {
  // A peer closing mid-write must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);
  return domd::Run(domd::ParseFlags(argc, argv, 1));
}
