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
//              [--repl-role primary|follower]
//
// Only the flags above are accepted: an unknown flag, a flag without a
// value, or a number that does not parse or is out of range (--port 70000,
// --threads abc, --max-queue -1) exits 2 with an error naming the flag. So
// does a replication flag the server would misread or ignore: a
// --repl-role other than primary or follower, a --repl-quorum above the
// replica count (the --repl-peers entries plus this one), or any --repl-*
// flag without --persist-dir or --ingest-log.
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
// --repl-quorum replicas (counting this one) hold it, and the primary
// ships each follower what it lacks straight from the store's tail (a
// snapshot when the follower sits below the last persisted merge).
// --repl-role primary promotes eagerly at startup (after syncing from
// reachable peers); the default follower stance promotes on the first
// routed ingest. --repl-quorum 1 (default) acks on local durability alone.
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
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/host_map.h"
#include "common/strings.h"
#include "ingest/data_store.h"
#include "serve/frontend.h"
#include "serve/reactor.h"
#include "serve/replication.h"
#include "serve/wire.h"
#include "tool_flags.h"

namespace domd {
namespace {

std::vector<FlagSpec> ServeFlags() {
  return WithReactorFlags(
      {Required(StringFlag("bundle")), IntFlag("threads", 0, kMaxThreadsFlag),
       IntFlag("max-queue", 0, kMaxIntFlag),
       IntFlag("max-batch", 1, kMaxIntFlag),
       IntFlag("batch-linger-us", 0, kMaxIntFlag),
       IntFlag("cache-bytes", 0, kMaxBytesFlag),
       IntFlag("load-retries", 1, kMaxIntFlag),
       IntFlag("breaker-threshold", 0, kMaxIntFlag),
       IntFlag("breaker-open-ms", 0, kMaxIntFlag),
       IntFlag("max-request-bytes", 1, kMaxBytesFlag),
       StringFlag("ingest-log"), StringFlag("retrain-root"),
       IntFlag("merge-threshold", 0, kMaxIntFlag), StringFlag("persist-dir"),
       StringFlag("repl-peers"), IntFlag("repl-quorum", 1, kMaxIntFlag),
       StringFlag("repl-role")});
}

/// The replication the flags configure: nullopt without --repl-peers or
/// --repl-role, which keeps a plain ingest server's exact pre-replication
/// wire behavior. kInvalidArgument, naming the flag, for a flag the server
/// would otherwise misread or ignore.
StatusOr<std::optional<ReplicationOptions>> ReplicationFromFlags(
    const Flags& flags) {
  const bool has_store =
      !flags.String("persist-dir").empty() || flags.Has("ingest-log");
  for (const std::string name : {"repl-peers", "repl-quorum", "repl-role"}) {
    if (flags.Has(name) && !has_store) {
      return Status::InvalidArgument(
          "--" + name +
          " needs --persist-dir or --ingest-log: replication ships the "
          "ingest store");
    }
  }
  const std::string role = flags.String("repl-role");
  if (flags.Has("repl-role") && role != "primary" && role != "follower") {
    return Status::InvalidArgument(
        "--repl-role must be primary or follower, got \"" + role + "\"");
  }
  ReplicationOptions options;
  for (const std::string& token : StrSplit(flags.String("repl-peers"), ',')) {
    if (token.empty()) continue;
    auto endpoint = cluster::Endpoint::Parse(token);
    if (!endpoint.ok()) {
      return Status::InvalidArgument("--repl-peers: " +
                                     endpoint.status().ToString());
    }
    options.peers.push_back(*endpoint);
  }
  options.quorum = static_cast<std::size_t>(flags.Int("repl-quorum", 1));
  if (options.quorum > options.peers.size() + 1) {
    return Status::InvalidArgument(
        "--repl-quorum " + std::to_string(options.quorum) +
        " exceeds the replica count " +
        std::to_string(options.peers.size() + 1) +
        " (this replica plus the --repl-peers entries)");
  }
  if (options.peers.empty() && role.empty()) {
    return std::optional<ReplicationOptions>();
  }
  options.start_primary = role == "primary";
  return std::optional<ReplicationOptions>(std::move(options));
}

int Run(const Flags& flags) {
  const auto repl_options = ReplicationFromFlags(flags);
  if (!repl_options.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 repl_options.status().message().c_str());
    return 2;
  }
  const std::string bundle_dir = flags.String("bundle");
  Parallelism parallelism;
  parallelism.num_threads = static_cast<int>(flags.Int("threads", 0));
  const auto cache_bytes = static_cast<std::size_t>(
      flags.Int("cache-bytes", kDefaultViewCacheBytes));

  RetryOptions load_retry;
  load_retry.max_attempts = static_cast<int>(flags.Int("load-retries", 4));
  auto bundle = LoadBundleWithRetry(bundle_dir, parallelism, cache_bytes,
                                    load_retry);
  if (!bundle.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }

  ServeOptions options;
  options.max_queue_depth =
      static_cast<std::size_t>(flags.Int("max-queue", 256));
  options.max_batch_size = static_cast<std::size_t>(flags.Int("max-batch", 16));
  options.batch_linger =
      std::chrono::microseconds(flags.Int("batch-linger-us", 200));
  options.parallelism = parallelism;
  options.breaker_failure_threshold =
      static_cast<std::size_t>(flags.Int("breaker-threshold", 5));
  options.breaker_open_duration =
      std::chrono::milliseconds(flags.Int("breaker-open-ms", 1000));
  PredictionService service(*bundle, options);

  // Streaming ingestion: the store's base is the bundle's reference
  // fleet, so freshness epochs and retrain cuts both extend the data the
  // live model was trained from.
  std::unique_ptr<DataStore> store;
  const std::string persist_dir = flags.String("persist-dir");
  if (!persist_dir.empty() || flags.Has("ingest-log")) {
    DataStoreOptions store_options;
    store_options.log_path = flags.String("ingest-log");
    store_options.merge_threshold =
        static_cast<std::size_t>(flags.Int("merge-threshold", 0));
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
        const Status seeded = WriteBaseTables((*bundle)->data(), persist_dir);
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

  std::unique_ptr<ReplicationManager> repl;
  if (repl_options->has_value()) {
    const ReplicationOptions& replication = **repl_options;
    repl = std::make_unique<ReplicationManager>(store.get(), replication);
    std::printf("domd_serve: replication on (%zu peers, quorum %zu, %s)\n",
                replication.peers.size(), replication.quorum,
                ReplRoleName(repl->role()));
  }

  FrontendOptions frontend_options;
  frontend_options.parallelism = parallelism;
  frontend_options.cache_bytes = cache_bytes;
  frontend_options.load_retry = load_retry;
  frontend_options.store = store.get();
  frontend_options.retrain_root = flags.String("retrain-root");
  frontend_options.repl = repl.get();
  ServeFrontend frontend(&service, frontend_options);

  ReactorOptions reactor_options = ReactorOptionsFromFlags(flags, 7433);
  reactor_options.max_request_bytes = static_cast<std::size_t>(
      flags.Int("max-request-bytes", std::int64_t{1} << 20));
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
              bundle_dir.c_str(), (*bundle)->version().c_str(),
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
  const auto flags =
      domd::ParseToolFlags("domd_serve", argc, argv, 1, domd::ServeFlags());
  return flags.has_value() ? domd::Run(*flags) : 2;
}
