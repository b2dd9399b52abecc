// domd_router — cluster routing front-end for a fleet of domd_serve shards.
//
//   domd_router --cluster-spec FILE [--port P] [--workers W]
//               [--max-queue Q] [--hedge-ms H] [--upstream-deadline-ms D]
//               [--probe-interval-ms I] [--probe-timeout-ms T]
//               [--rollout-deadline-ms R] [--loop-shards S]
//               [--max-connections C] [--idle-timeout-ms T]
//               [--fault-spec SPEC]
//
// Speaks the same newline-delimited JSON wire protocol as domd_serve and
// listens on 127.0.0.1:P (P = 0 picks an ephemeral port, printed as
// "listening on 127.0.0.1:<port>"). Clients talk to the router exactly as
// they would a single shard:
//
//   {"avail_id": 7, "t_star": 60}        routed to the shard owning avail 7
//                                        on the consistent-hash ring; the
//                                        response is the shard's answer
//                                        byte-for-byte
//   {"avail": {...}, "rccs": [...]}      detached scoring, routed by ship_id
//   {"avail_ids": [3, 9, 41], ...}       scatter-gather: per-id subrequests
//                                        fan out to the owning shards and
//                                        merge back in request order
//   {"cmd": "health"}                    per-shard routing state (up/ready/
//                                        bundle version per replica)
//   {"cmd": "stats"}                     router counters (routed, hedged, ...)
//   {"cmd": "metrics"}                   Prometheus text exposition
//   {"cmd": "rollout", "bundle": DIR}    coordinated rollout: stage on every
//                                        shard, verify health, flip shard-
//                                        by-shard; halts and reports on the
//                                        first failure, leaving unflipped
//                                        shards on last-known-good
//   {"cmd": "ingest", ...}               mutations split by owning shard,
//                                        each part sent to that shard's
//                                        ingest primary
//   {"cmd": "freshness"}                 every replica's epochs, with per-
//                                        shard convergence
//   {"cmd": "retrain", "version": V}     one training per shard: one
//                                        replica trains and ships its
//                                        models, the others adopt them for
//                                        the same epoch (or retrain when
//                                        their data differs); answers after
//                                        every replica has swapped
//   {"cmd": "ping"} / {"cmd": "shutdown"}
//
// The cluster-spec file is JSON (see src/cluster/host_map.h):
//
//   {"vnodes": 64,
//    "shards": [{"id": 0, "replicas": ["127.0.0.1:7501", "127.0.0.1:7601"]},
//               {"id": 1, "replicas": ["127.0.0.1:7502"]}]}
//
// Availability: a health prober marks replicas up/down every
// --probe-interval-ms, and routed requests hedge — a replica that is down,
// breaker-open, or silent past --hedge-ms is abandoned and the request
// retries on the next replica of the shard, so killing one replica costs
// at most a hedge delay, not an outage.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "cluster/router.h"
#include "fault/fault.h"
#include "serve/reactor.h"

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
  std::fprintf(stderr, "domd_router: fault injection armed: %s\n",
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
  const auto spec_it = flags.find("cluster-spec");
  if (spec_it == flags.end()) {
    std::fprintf(stderr, "error: --cluster-spec is required\n");
    return 2;
  }
  if (const int rc = ArmFaults(flags); rc != 0) return rc;

  auto host_map = cluster::HostMap::LoadFile(spec_it->second);
  if (!host_map.ok()) {
    std::fprintf(stderr, "error: %s\n", host_map.status().ToString().c_str());
    return 1;
  }

  cluster::RouterOptions options;
  options.workers = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "workers", "4").c_str()));
  options.max_queue_depth = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "max-queue", "512").c_str()));
  options.hedge_deadline = std::chrono::milliseconds(
      std::atoi(FlagOr(flags, "hedge-ms", "250").c_str()));
  options.upstream_deadline = std::chrono::milliseconds(
      std::atoi(FlagOr(flags, "upstream-deadline-ms", "5000").c_str()));
  options.probe_interval = std::chrono::milliseconds(
      std::atoi(FlagOr(flags, "probe-interval-ms", "500").c_str()));
  options.probe_timeout = std::chrono::milliseconds(
      std::atoi(FlagOr(flags, "probe-timeout-ms", "250").c_str()));
  options.rollout_rpc_deadline = std::chrono::milliseconds(
      std::atoi(FlagOr(flags, "rollout-deadline-ms", "30000").c_str()));
  cluster::ClusterRouter router(std::move(*host_map), options);

  ReactorOptions reactor_options;
  reactor_options.port = std::atoi(FlagOr(flags, "port", "7432").c_str());
  reactor_options.num_shards = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "loop-shards", "2").c_str()));
  reactor_options.max_connections = static_cast<std::size_t>(
      std::atoi(FlagOr(flags, "max-connections", "1024").c_str()));
  reactor_options.idle_timeout = std::chrono::milliseconds(
      std::atoll(FlagOr(flags, "idle-timeout-ms", "60000").c_str()));
  auto reactor = Reactor::Create(
      reactor_options, [&router](std::string line, Responder responder) {
        router.Handle(std::move(line), std::move(responder));
      });
  if (!reactor.ok()) {
    std::fprintf(stderr, "error: %s\n", reactor.status().ToString().c_str());
    return 1;
  }

  std::printf("domd_router: %zu shards from %s\n",
              router.host_map().num_shards(), spec_it->second.c_str());
  std::printf("listening on 127.0.0.1:%d\n", (*reactor)->port());
  std::fflush(stdout);

  (*reactor)->Wait();
  reactor->reset();  // join shards and release every connection.

  const cluster::RouterStatsSnapshot stats = router.stats();
  std::printf(
      "domd_router: clean shutdown — %llu routed, %llu scattered, %llu "
      "hedged, %llu failed, %llu rollouts\n",
      static_cast<unsigned long long>(stats.routed),
      static_cast<unsigned long long>(stats.scattered),
      static_cast<unsigned long long>(stats.hedged),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rollouts));
  return 0;
}

}  // namespace
}  // namespace domd

int main(int argc, char** argv) {
  // A shard closing mid-write must not kill the router.
  std::signal(SIGPIPE, SIG_IGN);
  return domd::Run(domd::ParseFlags(argc, argv, 1));
}
