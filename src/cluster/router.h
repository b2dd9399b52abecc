#ifndef DOMD_CLUSTER_ROUTER_H_
#define DOMD_CLUSTER_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/host_map.h"
#include "cluster/upstream.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "serve/reactor.h"
#include "serve/verb_table.h"

namespace domd {
namespace cluster {

/// Tuning knobs of the routing tier.
struct RouterOptions {
  /// Worker threads for the routed verbs that block on a shard: detached
  /// predictions, ingest, freshness, retrain and rollout. Points and
  /// scatters forward on the reactor's event-loop shards, every hedge
  /// included, and never reach this pool.
  std::size_t workers = 4;
  /// Bounds both the worker queue and the points and scatters in flight
  /// on the event loop; a request beyond either bound is rejected with
  /// RESOURCE_EXHAUSTED — the same explicit backpressure contract as the
  /// PredictionService admission queue.
  std::size_t max_queue_depth = 512;
  /// Per-attempt budget against one replica. An attempt that has not
  /// answered by this deadline is abandoned and hedged to the next
  /// replica; the final replica in the preference order gets the full
  /// remaining upstream_deadline instead.
  std::chrono::milliseconds hedge_deadline{250};
  /// Total budget for one routed request across every hedge attempt.
  std::chrono::milliseconds upstream_deadline{5000};
  /// Health-probe period. Each round probes `health` on every replica of
  /// every shard and updates the routing state (up/down, breaker
  /// readiness, served bundle version). The first round runs as the
  /// prober starts, the next one probe_interval later.
  std::chrono::milliseconds probe_interval{500};
  /// Probe RPC budget (smaller than a routed request: probes must fail
  /// fast so a dead shard is detected within ~one probe round).
  std::chrono::milliseconds probe_timeout{250};
  /// Per-RPC budget during rollout. Staging loads and validates a full
  /// bundle on the shard, so this is deliberately much larger than the
  /// predict-path deadlines.
  std::chrono::milliseconds rollout_rpc_deadline{30000};
  /// Start the background prober (tests drive ProbeOnce() by hand).
  bool start_prober = true;
};

/// What the router currently believes about one replica endpoint.
struct ReplicaState {
  bool up = false;     ///< transport-level liveness (probe or traffic).
  bool ready = false;  ///< shard admits work (breaker not open).
  std::string bundle_version;  ///< from the last successful health probe.
  std::uint64_t probe_failures = 0;  ///< consecutive, resets on success.
  /// Replication stance from the last health probe ("primary",
  /// "follower", ...; empty when the replica runs un-replicated). Ingest
  /// prefers the replica that already owns the write path.
  std::string ingest_role;
};

/// Monotonic router counters, exposed by the stats verb and mirrored into
/// the obs registry (domd_router_*).
struct RouterStatsSnapshot {
  std::uint64_t routed = 0;         ///< single-shard requests forwarded.
  std::uint64_t scattered = 0;      ///< multi-avail scatter-gather requests.
  std::uint64_t ingest_routed = 0;  ///< ingest sub-batches routed to shards.
  std::uint64_t hedged = 0;         ///< requests that needed >= 1 hedge.
  std::uint64_t failed = 0;         ///< requests with no live replica left.
  /// Requests answered RESOURCE_EXHAUSTED: a full worker queue, or
  /// max_queue_depth points and scatters already in flight.
  std::uint64_t rejected_overload = 0;
  std::uint64_t probes = 0;         ///< health probes sent.
  std::uint64_t rollouts = 0;       ///< rollout attempts.
  std::uint64_t rollout_failures = 0;
};

/// The cluster routing tier (DESIGN.md §12): terminates client NDJSON
/// connections (plugged into a Reactor exactly like ServeFrontend),
/// partitions prediction traffic across the host map's shards on the
/// consistent-hash ring, and answers with the owning shard's response
/// verbatim — a routed request that succeeds is bit-identical to asking
/// that shard directly.
///
/// The constructor registers every verb on a VerbTable. The control verbs
/// (ping, health, stats, and the table's metrics and shutdown) and the
/// predictions run inline: a point or a scatter's per-id points forward
/// on the reactor shard that read them, over that shard's pipelined
/// connection to the replica (Reactor::Call). Detached predictions,
/// rollout, ingest, freshness and retrain run on a pool of `workers`
/// threads whose queue `max_queue_depth` bounds. Each Run* handler
/// documents its verb; tools/domd_router.cc lists the wire forms.
///
/// Hedging: each routed request walks the shard's replica preference
/// order (primary first, replicas the prober marked down or breaker-open
/// moved last). A replica that is down, not ready, or silent past
/// hedge_deadline is abandoned and the request is retried on the next
/// replica. One attempt rule (NextAttempt, Judge) decides every attempt's
/// budget and verdict, driven by two loops: a point's or scatter id's
/// attempts all run on the reactor shard that read it (Forward), and the
/// worker verbs' attempts block on a worker (RouteWithOrder). Only
/// transport failures and breaker sheds hedge — an application-level
/// error (bad request, unknown avail) is a deterministic answer and
/// forwards as-is.
class ClusterRouter {
 public:
  using Clock = std::chrono::steady_clock;

  ClusterRouter(HostMap host_map, RouterOptions options = {});
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Routes one client request line; always answers via `responder`,
  /// exactly once. Call it from a reactor handler: control verbs answer
  /// and points forward on the reactor shard, the other routed verbs hop
  /// to the table's bounded worker pool.
  void Handle(std::string line, Responder responder);

  /// One synchronous probe round over every replica of every shard
  /// (the background prober calls this; tests call it directly).
  void ProbeOnce();

  const HostMap& host_map() const { return host_map_; }
  RouterStatsSnapshot stats() const;
  /// Snapshot of the routing state of shards()[shard_index].
  std::vector<ReplicaState> replica_states(std::size_t shard_index) const;

 private:
  /// Obs cells (null when compiled out), registered once per router.
  struct MetricCells {
    std::vector<obs::Counter*> routed_by_shard;  ///< {shard="<id>"}.
    std::vector<obs::Counter*> ingest_routed_by_shard;  ///< {shard="<id>"}.
    std::vector<obs::Gauge*> shard_up;  ///< routable replicas per shard.
    obs::Counter* hedged = nullptr;
    obs::Counter* failed = nullptr;
    obs::Histogram* fanout = nullptr;   ///< shards touched per scatter.
    obs::Counter* rollouts = nullptr;
    obs::Counter* rollout_failures = nullptr;
  };

  struct Gather;

  /// One request's walk down a shard's replicas (DESIGN.md §12 "Hedged
  /// retries").
  struct Walk {
    Walk(std::size_t shard, std::vector<std::size_t> replicas,
         Clock::time_point until)
        : shard_index(shard), order(std::move(replicas)), deadline(until) {}

    std::size_t shard_index;
    std::vector<std::size_t> order;  ///< replica indexes, attempt order.
    Clock::time_point deadline;      ///< the whole request's.
    std::size_t tried = 0;           ///< attempts started.
    std::string shed;  ///< the last breaker shed's answer, if any.
    Status error;      ///< why the last attempt failed.
  };

  void ProberLoop();

  /// Predictions, inline: a scatter, a point, or a detached request
  /// handed to a worker.
  void RunPredict(const VerbRequest& request, Responder responder);
  void RunScatter(const VerbRequest& request, Responder responder);
  /// Takes one of the max_queue_depth places for a point or a scatter of
  /// `slots` ids, or answers RESOURCE_EXHAUSTED and returns null.
  std::shared_ptr<Gather> Admit(const Responder& responder,
                                std::size_t slots, bool scatter);
  /// Sends `line` down `walk` from this event-loop shard and fills `slot`
  /// of `gather` with the result. Each attempt's answer is judged on the
  /// same shard, which starts the next attempt until Judge calls one final.
  void Forward(Walk walk, std::string line, std::shared_ptr<Gather> gather,
               std::size_t slot);
  /// Writes a finished point's or scatter's answer.
  void Answer(Gather& gather);
  /// Answers a request forwarded to one shard, point or detached: the
  /// shard's line verbatim, or the error.
  void Reply(const Responder& responder, StatusOr<std::string> result,
             bool hedged);
  /// Worker verbs.
  void RunRollout(const VerbRequest& request, Responder responder);
  void RunIngest(const VerbRequest& request, Responder responder);
  void RunFreshness(const VerbRequest& request, Responder responder);
  void RunRetrainScatter(const VerbRequest& request, Responder responder);

  /// Sends `line` down `walk`, blocking on a worker: the detached and
  /// ingest loop over the attempt rule. `hedged` reports whether more than
  /// one attempt ran.
  StatusOr<std::string> RouteWithOrder(Walk walk, const std::string& line,
                                       bool* hedged);

  /// The attempt rule. NextAttempt starts `walk`'s next attempt: it
  /// returns the replica and sets `budget`, min(deadline, now +
  /// hedge_deadline) for a non-final attempt and what remains of the
  /// deadline for the last replica. Judge gives the verdict on that
  /// attempt's `answer`: true when it is the request's result. A
  /// non-hedgeable answer is. A breaker shed is marked, kept and moves on;
  /// a transport failure is marked and moves on. After the last replica,
  /// `answer` becomes the last shed answer if any replica shed, else the
  /// last error.
  std::size_t NextAttempt(Walk& walk, Clock::time_point* budget) const;
  bool Judge(Walk& walk, StatusOr<std::string>& answer);

  /// Replica indexes of shard `shard_index` in attempt order: routable
  /// replicas first (spec order), then the rest as a last resort.
  std::vector<std::size_t> PreferenceOrder(std::size_t shard_index) const;
  /// Ingest attempt order: the replica whose last probe reported
  /// ingest_role == "primary" first, then the routable order — so writes
  /// stick to the current primary and fail over only when it dies or
  /// refuses.
  std::vector<std::size_t> IngestPreferenceOrder(
      std::size_t shard_index) const;

  void CountRouted(std::size_t shard_index);
  void CountHedged();
  void CountFailed();
  void MarkServing(std::size_t shard_index, std::size_t replica_index);
  void MarkTransportFailure(std::size_t shard_index,
                            std::size_t replica_index);
  void MarkBreakerShed(std::size_t shard_index, std::size_t replica_index);
  void PublishShardGauges();

  JsonValue HealthJson() const;
  JsonValue StatsJson() const;

  const HostMap host_map_;
  const RouterOptions options_;
  UpstreamPool pool_;
  /// peers_[shard][replica]: where the event loop sends points.
  std::vector<std::vector<CallPeer>> peers_;
  MetricCells cells_;

  mutable std::mutex state_mutex_;  ///< guards replica_states_.
  std::vector<std::vector<ReplicaState>> replica_states_;  ///< [shard][rep].

  std::mutex rollout_mutex_;  ///< one rollout at a time.

  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;

  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> scattered_{0};
  std::atomic<std::uint64_t> ingest_routed_{0};
  std::atomic<std::uint64_t> hedged_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> rollouts_{0};
  std::atomic<std::uint64_t> rollout_failures_{0};
  /// Points and scatters admitted and not yet gone (Admit, ~Gather).
  std::atomic<std::size_t> in_flight_{0};

  std::thread prober_;  ///< joined in the destructor.
  /// Last member: its workers answer every queued request and join before
  /// the state they route over is destroyed.
  VerbTable verbs_;
};

}  // namespace cluster
}  // namespace domd

#endif  // DOMD_CLUSTER_ROUTER_H_
