// domd_router — cluster routing front-end for a fleet of domd_serve shards.
//
//   domd_router --cluster-spec FILE [--port P] [--workers W]
//               [--max-queue Q] [--hedge-ms H] [--upstream-deadline-ms D]
//               [--probe-interval-ms I] [--probe-timeout-ms T]
//               [--rollout-deadline-ms R] [--loop-shards S]
//               [--max-connections C] [--idle-timeout-ms T]
//               [--fault-spec SPEC]
//
// Only the flags above are accepted: an unknown flag, a flag without a
// value, or a number that does not parse or is out of range (--port 70000,
// --workers abc, --max-queue -1) exits 2 with an error naming the flag.
//
// Points and scatters forward on the --loop-shards event-loop threads,
// each over one pipelined connection per replica, and hedge there too.
// --workers (4) threads do the blocking upstream I/O: detached
// predictions, ingest, freshness, retrain and rollout. --max-queue (512)
// bounds both
// the worker queue and the points and scatters in flight; a request past
// either bound is answered RESOURCE_EXHAUSTED.
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
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "serve/reactor.h"
#include "tool_flags.h"

namespace domd {
namespace {

std::vector<FlagSpec> RouterFlags() {
  return WithReactorFlags({Required(StringFlag("cluster-spec")),
                           IntFlag("workers", 0, kMaxThreadsFlag),
                           IntFlag("max-queue", 0, kMaxIntFlag),
                           IntFlag("hedge-ms", 0, kMaxIntFlag),
                           IntFlag("upstream-deadline-ms", 0, kMaxIntFlag),
                           IntFlag("probe-interval-ms", 0, kMaxIntFlag),
                           IntFlag("probe-timeout-ms", 0, kMaxIntFlag),
                           IntFlag("rollout-deadline-ms", 0, kMaxIntFlag)});
}

int Run(const Flags& flags) {
  const std::string spec_path = flags.String("cluster-spec");

  auto host_map = cluster::HostMap::LoadFile(spec_path);
  if (!host_map.ok()) {
    std::fprintf(stderr, "error: %s\n", host_map.status().ToString().c_str());
    return 1;
  }

  cluster::RouterOptions options;
  options.workers = static_cast<std::size_t>(flags.Int("workers", 4));
  options.max_queue_depth =
      static_cast<std::size_t>(flags.Int("max-queue", 512));
  options.hedge_deadline =
      std::chrono::milliseconds(flags.Int("hedge-ms", 250));
  options.upstream_deadline =
      std::chrono::milliseconds(flags.Int("upstream-deadline-ms", 5000));
  options.probe_interval =
      std::chrono::milliseconds(flags.Int("probe-interval-ms", 500));
  options.probe_timeout =
      std::chrono::milliseconds(flags.Int("probe-timeout-ms", 250));
  options.rollout_rpc_deadline =
      std::chrono::milliseconds(flags.Int("rollout-deadline-ms", 30000));
  cluster::ClusterRouter router(std::move(*host_map), options);

  auto reactor = Reactor::Create(
      ReactorOptionsFromFlags(flags, 7432),
      [&router](std::string line, Responder responder) {
        router.Handle(std::move(line), std::move(responder));
      });
  if (!reactor.ok()) {
    std::fprintf(stderr, "error: %s\n", reactor.status().ToString().c_str());
    return 1;
  }

  std::printf("domd_router: %zu shards from %s\n",
              router.host_map().num_shards(), spec_path.c_str());
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
  const auto flags =
      domd::ParseToolFlags("domd_router", argc, argv, 1, domd::RouterFlags());
  return flags.has_value() ? domd::Run(*flags) : 2;
}
