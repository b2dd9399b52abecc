#ifndef DOMD_SERVE_REPLICATION_H_
#define DOMD_SERVE_REPLICATION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/upstream.h"
#include "ingest/data_store.h"
#include "obs/metrics.h"
#include "serve/json.h"

namespace domd {

/// Knobs of the ingest replication layer (DESIGN.md §15).
struct ReplicationOptions {
  /// The other replicas of this shard. Empty runs standalone (every
  /// replication path is a no-op and the wire behavior is exactly the
  /// un-replicated server's).
  std::vector<cluster::Endpoint> peers;
  /// Write quorum counted across the whole replica set including this
  /// node: an ingest acks once the mutation is locally durable AND
  /// quorum - 1 peers confirmed it. 1 (the default) acks on local
  /// durability alone — the pre-replication behavior.
  std::size_t quorum = 1;
  /// How long AwaitQuorum waits for follower acks before reporting the
  /// write as durable-locally-only (kUnavailable; redelivery is safe —
  /// sequenced applies are idempotent).
  std::chrono::milliseconds ack_timeout{5000};
  /// Per-RPC deadline of replicate/catchup calls.
  std::chrono::milliseconds rpc_timeout{2000};
  /// Sender idle tick: how often an idle primary re-examines a peer
  /// (lag check, liveness probe of a silently restarted follower).
  std::chrono::milliseconds idle_poll{200};
  /// Records per push: the most one `replicate` a sender ships, or one
  /// `catchup` answer a promoting replica pulls, carries.
  std::size_t catchup_batch = 512;
  /// Eagerly promote at startup (background, best-effort): the node
  /// syncs from reachable peers and starts pushing without waiting for
  /// the first routed ingest.
  bool start_primary = false;
};

/// A replica's current stance toward the write path.
enum class ReplRole {
  kStandalone,  ///< no peers configured; replication is a no-op.
  kFollower,    ///< applies pushed batches; promotes on routed ingest.
  kCatchingUp,  ///< promoting: syncing to the highest reachable sequence.
  kPrimary,     ///< accepts ingest, ships the log, awaits quorum.
};

const char* ReplRoleName(ReplRole role);

/// Sequenced log shipping between the replicas of one shard (DESIGN.md
/// §15). The manager owns one sender thread per peer, and every sender
/// ships from the store's tail (DataStore::TailFrom) alone, as a Raft
/// leader ships from its log. A sender keeps the (seq, chain) position
/// the peer last reported and pushes the records past it, at most
/// catchup_batch per `replicate`, until the peer is level. When that
/// position is unknown (after a promotion, a failed exchange or stale
/// contact) the sender probes for it first; a peer below the tail's
/// compacted base, or on a diverged history, gets a full snapshot.
///
/// Roles are write-path-defined rather than elected: the replica the
/// router lands `ingest` on promotes itself (after syncing to the highest
/// acknowledged sequence it can reach among its peers), and a primary
/// that receives a valid replicate push demotes to follower. There is no
/// partition-tolerant consensus here — the router's single write entry
/// point plus health-ordered failover keeps one primary per shard in
/// every non-partitioned configuration, and dual-primary windows during a
/// partition are bounded by demote-on-push (documented non-goal:
/// split-brain arbitration).
///
/// Thread-safe. The DataStore must outlive the manager.
class ReplicationManager {
 public:
  using Clock = std::chrono::steady_clock;

  ReplicationManager(DataStore* store, ReplicationOptions options);
  ~ReplicationManager();

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  ReplRole role() const;

  /// Makes this replica the shard's primary before an ingest is applied:
  /// standalone and already-primary return immediately; a follower
  /// promotes by first syncing from every reachable peer (so a failed-
  /// over primary-elect never acks below the highest acknowledged
  /// sequence it can reach). kUnavailable while a promotion is already in
  /// flight on another thread — the router hedges to the next replica.
  Status EnsurePrimary();

  /// Called once a batch is locally durable through `seq`: wakes the
  /// senders to ship it (at any quorum), then blocks until quorum - 1
  /// peers acknowledged everything through `seq` (at most ack_timeout).
  /// kUnavailable on timeout: the batch is durable locally and the
  /// senders keep shipping it from the tail, so the caller reports the
  /// write as not-yet-quorum-replicated rather than lost.
  Status AwaitQuorum(std::uint64_t seq);

  /// The `replicate` verb: applies a sequenced batch (or installs a
  /// pushed snapshot) and answers with this replica's resulting sequence
  /// position. A valid push demotes a primary receiver to follower.
  JsonValue HandleReplicate(const JsonValue& request);

  /// The `catchup` verb: streams the log tail (or a snapshot) from the
  /// requested sequence.
  JsonValue HandleCatchup(const JsonValue& request);

  /// Highest per-peer replication lag in records (primary only; 0
  /// otherwise).
  std::uint64_t lag() const;
  /// Completed catch-up transfers (pushed, served, or — for snapshot
  /// installs — applied: the receiver counts too, so a lost ack cannot
  /// make a real transfer invisible).
  std::uint64_t catchups() const;

  /// Replication block for the `stats` verb.
  JsonValue StatsJson() const;

 private:
  /// A peer's last applied sequence and its history chain there, as one
  /// of its answers reported them.
  struct Position {
    std::uint64_t seq = 0;
    std::uint64_t chain = 0;
  };
  struct Peer {
    cluster::Endpoint endpoint;
    std::uint64_t acked_seq = 0;
    /// Unknown until the peer answers, and again after a failed exchange,
    /// a stale contact or a promotion: the next push probes first.
    std::optional<Position> position;
    Clock::time_point last_contact{};
    obs::Gauge* lag_cell = nullptr;
  };

  void SenderLoop(std::size_t peer_index);
  void PromoterLoop();
  /// Pushes tail records (or a snapshot) until the peer is level, probing
  /// its position first when it is unknown. False = forget the position
  /// and retry after the next idle tick.
  bool PushTail(std::size_t peer_index);
  Status SyncFromPeers();
  StatusOr<JsonValue> RpcJson(const cluster::Endpoint& endpoint,
                              const JsonValue& message);
  /// Records the position a peer's answer reports (its ack, contact time
  /// and lag); nullopt when last_seq or chain is absent or malformed.
  std::optional<Position> RecordPosition(std::size_t peer_index,
                                         const JsonValue& response);
  void NoteCatchup();
  void DemoteOnPush();

  DataStore* const store_;
  const ReplicationOptions options_;
  cluster::UpstreamPool pool_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< wakes senders (and the promoter).
  std::condition_variable ack_cv_;   ///< wakes quorum waiters.
  ReplRole role_ = ReplRole::kStandalone;
  bool stopping_ = false;
  std::uint64_t catchups_ = 0;
  std::vector<Peer> peers_;
  obs::Counter* catchups_cell_ = nullptr;

  std::vector<std::thread> senders_;  ///< last members: join first.
  std::thread promoter_;
};

}  // namespace domd

#endif  // DOMD_SERVE_REPLICATION_H_
