// Chaos battery for replicated ingest (DESIGN.md §15): an in-process
// replica set of real serve stacks (DataStore over a persisted dir +
// PredictionService + ReplicationManager + ServeFrontend + epoll Reactor,
// each on its own loopback port) talking real replication RPCs over actual
// TCP. The suites drive kill points through every replication fault site
// (repl.send / repl.ack / repl.apply / repl.catchup) and the ingest log
// sites, kill and restart replicas mid-stream, and assert the two
// invariants the design promises: no acknowledged mutation is ever lost
// while any quorum member survives, and every replica converges to a
// bit-identical store epoch — including a rejoining replica whose
// unacknowledged timeline diverged and must be replaced wholesale.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/fingerprint.h"
#include "cluster/host_map.h"
#include "cluster/router.h"
#include "common/strings.h"
#include "fault/fault.h"
#include "ingest/data_store.h"
#include "serve/frontend.h"
#include "serve/json.h"
#include "serve/prediction_service.h"
#include "serve/reactor.h"
#include "serve/reactor_test_client.h"
#include "serve/replication.h"
#include "serve/serve_test_fixture.h"

namespace domd {
namespace {

using fault::ScopedFaultInjection;
using testing_internal::GetServeFixture;
using testing_internal::Rpc;
using testing_internal::WaitFor;

JsonValue ParsedRpc(int port, const std::string& line) {
  auto parsed = JsonValue::Parse(Rpc(port, line));
  return parsed.ok() ? *parsed : JsonValue::Object();
}

/// A fresh, valid avail row (ids chosen far above the fixture fleet's).
JsonValue AvailJson(std::int64_t id) {
  JsonValue avail = JsonValue::Object();
  avail.Set("id", JsonValue::Number(static_cast<double>(id)));
  avail.Set("ship_id", JsonValue::Number(static_cast<double>(900 + id)));
  avail.Set("status", JsonValue::String("closed"));
  avail.Set("planned_start", JsonValue::String("2021-03-01"));
  avail.Set("planned_end", JsonValue::String("2021-09-01"));
  avail.Set("actual_start", JsonValue::String("2021-03-02"));
  avail.Set("actual_end", JsonValue::String("2021-10-15"));
  avail.Set("ship_class", JsonValue::Number(1));
  avail.Set("rmc_id", JsonValue::Number(2));
  avail.Set("ship_age_years", JsonValue::Number(12.5));
  avail.Set("avail_type", JsonValue::Number(1));
  avail.Set("homeport", JsonValue::Number(2));
  avail.Set("prior_avail_count", JsonValue::Number(3));
  avail.Set("contract_value_musd", JsonValue::Number(42.75));
  avail.Set("crew_size", JsonValue::Number(250));
  return avail;
}

JsonValue RccJson(std::int64_t id, std::int64_t avail_id) {
  JsonValue rcc = JsonValue::Object();
  rcc.Set("id", JsonValue::Number(static_cast<double>(id)));
  rcc.Set("avail_id", JsonValue::Number(static_cast<double>(avail_id)));
  rcc.Set("type", JsonValue::String("N"));
  rcc.Set("swlin", JsonValue::String("434-11-001"));
  rcc.Set("creation_date", JsonValue::String("2021-04-01"));
  rcc.Set("settled_date", JsonValue::String("2021-06-15"));
  rcc.Set("settled_amount", JsonValue::Number(1357.25));
  return rcc;
}

/// An ingest request of `count` fresh avails (plus one RCC each), ids
/// [first_id, first_id + count). Redelivering the same line is safe:
/// upserts are idempotent by id.
std::string IngestLine(std::int64_t first_id, int count) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("ingest"));
  JsonValue avails = JsonValue::Array();
  JsonValue rccs = JsonValue::Array();
  for (int i = 0; i < count; ++i) {
    const std::int64_t id = first_id + i;
    avails.Append(AvailJson(id));
    rccs.Append(RccJson(90000 + id, id));
  }
  request.Set("avails", std::move(avails));
  request.Set("rccs", std::move(rccs));
  return request.Serialize();
}

std::vector<std::int64_t> IdsOf(std::int64_t first_id, int count) {
  std::vector<std::int64_t> ids;
  for (int i = 0; i < count; ++i) ids.push_back(first_id + i);
  return ids;
}

bool HasAvailIds(DataStore* store, const std::vector<std::int64_t>& ids) {
  const auto snap = store->Snapshot();
  std::set<std::int64_t> present;
  for (const Avail& avail : snap->data().avails.rows()) {
    present.insert(avail.id);
  }
  for (const std::int64_t id : ids) {
    if (present.count(id) == 0) return false;
  }
  return true;
}

bool HasNoAvailIds(DataStore* store, const std::vector<std::int64_t>& ids) {
  const auto snap = store->Snapshot();
  for (const Avail& avail : snap->data().avails.rows()) {
    for (const std::int64_t id : ids) {
      if (avail.id == id) return false;
    }
  }
  return true;
}

/// Replication knobs tuned for test wall-clock: a quorum wait short enough
/// that the deliberately-unreplicatable test finishes fast, and the
/// caller's idle poll (ReplCluster's default of 50 ms makes catch-up and
/// liveness probes fire within milliseconds).
ReplicationOptions FastReplOptions(std::vector<cluster::Endpoint> peers,
                                   std::size_t quorum,
                                   std::chrono::milliseconds idle_poll) {
  ReplicationOptions options;
  options.peers = std::move(peers);
  options.quorum = quorum;
  options.ack_timeout = std::chrono::milliseconds(3000);
  options.rpc_timeout = std::chrono::milliseconds(1000);
  options.idle_poll = idle_poll;
  options.catchup_batch = 8;  // small: multi-round-trip catch-ups.
  return options;
}

/// One in-process replica: the exact stack domd_serve wires up for
/// --persist-dir + --repl-peers, on an ephemeral loopback port. The
/// reactor outlives stack rebuilds (its handler indirects through the
/// atomic `serving` pointer), so a "process restart" keeps the replica's
/// address — which is what the static peer lists require.
struct ReplReplica {
  std::string dir;
  int port = 0;
  std::chrono::milliseconds idle_poll{50};  ///< its senders' idle tick.
  std::unique_ptr<DataStore> store;
  std::unique_ptr<PredictionService> service;
  std::unique_ptr<ReplicationManager> repl;
  std::unique_ptr<ServeFrontend> frontend;
  std::atomic<ServeFrontend*> serving{nullptr};
  /// `replicate` requests that reached this replica's reactor.
  std::atomic<int> replicate_requests{0};
  std::unique_ptr<Reactor> reactor;  ///< after what its handler reads.

  /// Binds the reactor on `at` (0 = ephemeral). Its handler indirects
  /// through `serving`, so it outlives stack rebuilds.
  bool Listen(int at) {
    ReactorOptions options;
    options.port = at;
    options.num_shards = 1;
    auto created = Reactor::Create(
        options, [this](std::string line, Responder responder) {
          if (StrStartsWith(line, R"({"cmd":"replicate")")) {
            replicate_requests.fetch_add(1);
          }
          ServeFrontend* frontend = serving.load();
          if (frontend == nullptr) {
            responder.Respond("{\"ok\":false,\"error\":\"starting\"}");
            return;
          }
          frontend->Handle(std::move(line), std::move(responder));
        });
    if (!created.ok()) return false;
    reactor = std::move(*created);
    port = reactor->port();
    return true;
  }

  /// Opens the persisted store (replaying the log), builds the serve
  /// stack, and publishes it to the reactor. `quorum` 0 builds without a
  /// ReplicationManager (the pre-replication stack, for wire-identity
  /// checks).
  bool BuildStack(std::vector<cluster::Endpoint> peers, std::size_t quorum) {
    auto opened = DataStore::OpenDir(dir);
    if (!opened.ok()) return false;
    store = std::move(*opened);
    service = std::make_unique<PredictionService>(GetServeFixture().v1);
    if (quorum > 0) {
      repl = std::make_unique<ReplicationManager>(
          store.get(), FastReplOptions(std::move(peers), quorum, idle_poll));
    }
    FrontendOptions options;
    options.store = store.get();
    options.repl = repl.get();
    options.retrain_root = dir + "/retrain";
    frontend = std::make_unique<ServeFrontend>(service.get(), options);
    serving.store(frontend.get());
    return true;
  }

  /// Simulated process death: unpublish, then tear down in domd_serve's
  /// reverse construction order. The dir (log + base CSVs) survives.
  void Kill() {
    serving.store(nullptr);
    reactor.reset();
    frontend.reset();
    repl.reset();
    service.reset();
    store.reset();
  }
};

/// N replicas of one shard, each the other N-1's peer.
class ReplCluster {
 public:
  static std::unique_ptr<ReplCluster> Start(
      std::size_t n, std::size_t quorum,
      std::chrono::milliseconds idle_poll = std::chrono::milliseconds(50)) {
    auto cluster = std::make_unique<ReplCluster>();
    cluster->quorum_ = quorum;
    // Phase 1: reactors first — peer lists need every port before any
    // ReplicationManager exists. No traffic flows until phase 2 publishes
    // the frontends (every replica starts as a quiescent follower).
    for (std::size_t i = 0; i < n; ++i) {
      auto replica = std::make_unique<ReplReplica>();
      replica->idle_poll = idle_poll;
      if (!replica->Listen(0)) return nullptr;
      cluster->replicas_.push_back(std::move(replica));
    }
    // Phase 2: persisted dirs seeded with the fixture fleet, then the
    // serve stacks.
    const Dataset& data = GetServeFixture().pipeline.data;
    const std::string root = ::testing::TempDir() + "/domd_repl_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(next_cluster_id_++);
    for (std::size_t i = 0; i < n; ++i) {
      ReplReplica& replica = *cluster->replicas_[i];
      replica.dir = root + "/r" + std::to_string(i);
      std::error_code ec;
      std::filesystem::remove_all(replica.dir, ec);
      std::filesystem::create_directories(replica.dir, ec);
      if (ec) return nullptr;
      if (!WriteBaseTables(data, replica.dir).ok()) return nullptr;
      if (!replica.BuildStack(cluster->PeersOf(i), quorum)) return nullptr;
    }
    return cluster;
  }

  ~ReplCluster() {
    for (auto& replica : replicas_) replica->Kill();
    for (auto& replica : replicas_) {
      std::error_code ec;
      std::filesystem::remove_all(replica->dir, ec);
    }
  }

  std::vector<cluster::Endpoint> PeersOf(std::size_t index) const {
    std::vector<cluster::Endpoint> peers;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (i != index) peers.push_back({"127.0.0.1", replicas_[i]->port});
    }
    return peers;
  }

  void Kill(std::size_t index) { replicas_[index]->Kill(); }

  /// Process restart on the same address: rebuild the stack from the
  /// surviving dir, then rebind the old port (the reactor sets
  /// SO_REUSEADDR, so the rebind races nothing).
  bool Restart(std::size_t index) {
    ReplReplica& replica = *replicas_[index];
    if (!replica.BuildStack(PeersOf(index), quorum_)) return false;
    return replica.Listen(replica.port);
  }

  int port(std::size_t index) const { return replicas_[index]->port; }
  const std::string& replica_dir(std::size_t index) const {
    return replicas_[index]->dir;
  }
  DataStore* store(std::size_t index) const {
    return replicas_[index]->store.get();
  }
  ReplicationManager* repl(std::size_t index) const {
    return replicas_[index]->repl.get();
  }
  int replicate_requests(std::size_t index) const {
    return replicas_[index]->replicate_requests.load();
  }

  /// Every listed replica at one (last_seq, epoch) — the bit-identity
  /// invariant: same history => same merged row order => same epoch.
  bool Converged(const std::vector<std::size_t>& alive) const {
    DataStore* reference = store(alive.front());
    const std::uint64_t seq = reference->last_seq();
    const std::uint64_t epoch = reference->Snapshot()->epoch();
    for (const std::size_t index : alive) {
      if (store(index)->last_seq() != seq) return false;
      if (store(index)->Snapshot()->epoch() != epoch) return false;
    }
    return true;
  }

 private:
  static std::atomic<int> next_cluster_id_;
  std::size_t quorum_ = 1;
  std::vector<std::unique_ptr<ReplReplica>> replicas_;
};

std::atomic<int> ReplCluster::next_cluster_id_{0};

/// Ingests `line` against `port` until the write is acknowledged (a
/// promotion right after a failover legitimately answers kUnavailable
/// while it syncs). Idempotent by construction: sequenced redelivery of
/// the same upserts deduplicates.
bool IngestUntilAcked(int port, const std::string& line,
                      std::chrono::milliseconds timeout =
                          std::chrono::milliseconds(15000)) {
  return WaitFor(
      [&] { return ParsedRpc(port, line).BoolOr("ok", false); }, timeout);
}

// ---------------------------------------------------------------------------
// Kill-point matrix: for every replication fault site, inject one failure
// mid-stream, kill the primary, fail over, and prove that every
// acknowledged mutation survives on the new quorum and that a restarted
// replica rejoins bit-identically.
// ---------------------------------------------------------------------------

TEST(ReplChaosTest, KillPointMatrixLosesNoAckedMutation) {
  const std::vector<std::string> sites = {
      "ingest.log.append", "ingest.log.fsync", "repl.send",
      "repl.ack",          "repl.apply",       "repl.catchup",
  };
  for (const std::string& site : sites) {
    SCOPED_TRACE("fault site: " + site);
    auto cluster = ReplCluster::Start(3, /*quorum=*/2);
    ASSERT_NE(cluster, nullptr);
    std::vector<std::int64_t> acked;

    // Batch A: clean quorum write through replica 0 (it promotes).
    ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(5000, 3)));
    for (const std::int64_t id : IdsOf(5000, 3)) acked.push_back(id);
    ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                        std::chrono::milliseconds(10000)));

    // Batch B under the armed site. Only an acknowledged write joins the
    // must-survive set — a failed ack promises nothing.
    {
      ScopedFaultInjection fault(site + "=fail-nth:1");
      const JsonValue response =
          ParsedRpc(cluster->port(0), IngestLine(5100, 3));
      if (response.BoolOr("ok", false)) {
        for (const std::int64_t id : IdsOf(5100, 3)) acked.push_back(id);
      }
    }

    // Primary dies; batch C lands on a surviving replica, which must
    // promote at or above every acknowledged sequence.
    cluster->Kill(0);
    ASSERT_TRUE(IngestUntilAcked(cluster->port(1), IngestLine(5200, 3)));
    for (const std::int64_t id : IdsOf(5200, 3)) acked.push_back(id);

    ASSERT_TRUE(WaitFor([&] { return cluster->Converged({1, 2}); },
                        std::chrono::milliseconds(10000)));
    EXPECT_TRUE(HasAvailIds(cluster->store(1), acked));
    EXPECT_TRUE(HasAvailIds(cluster->store(2), acked));

    // The dead primary rejoins as a follower and is pushed level.
    ASSERT_TRUE(cluster->Restart(0));
    ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                        std::chrono::milliseconds(15000)));
    EXPECT_TRUE(HasAvailIds(cluster->store(0), acked));
    EXPECT_EQ(cluster->store(0)->Snapshot()->epoch(),
              cluster->store(1)->Snapshot()->epoch());
  }
}

// An unacknowledged batch that was durable ONLY on the dead primary forks
// the timeline: the failed-over primary assigns the same sequence numbers
// to new writes. When the old primary rejoins, its sequence position looks
// level — only the history chain betrays the divergence. The catch-up
// handshake must replace the forked suffix with a snapshot instead of
// extending it.
TEST(ReplChaosTest, UnackedDivergentTimelineReplacedAfterFailover) {
  auto cluster = ReplCluster::Start(3, /*quorum=*/2);
  ASSERT_NE(cluster, nullptr);

  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(6000, 2)));
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                      std::chrono::milliseconds(10000)));

  // Batch B becomes durable on replica 0 alone: every outbound replicate
  // fails, so quorum 2 cannot be reached and the client is told so. The
  // kill happens inside the fault scope: once the scope closes, replica
  // 0's sender would ship B to its peers.
  {
    ScopedFaultInjection fault("repl.send=fail-first:1000000");
    const JsonValue response =
        ParsedRpc(cluster->port(0), IngestLine(6100, 2));
    ASSERT_FALSE(response.BoolOr("ok", false));
    cluster->Kill(0);
  }

  // Batch C takes B's sequence numbers on the new primary's timeline.
  ASSERT_TRUE(IngestUntilAcked(cluster->port(1), IngestLine(6200, 2)));
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({1, 2}); },
                      std::chrono::milliseconds(10000)));

  // The old primary rejoins holding the forked suffix at the same
  // sequence position. Convergence here is exactly the chain check: a
  // sequence-number-only handshake would call it level and leave it
  // diverged forever.
  ASSERT_TRUE(cluster->Restart(0));
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                      std::chrono::milliseconds(15000)));
  EXPECT_TRUE(HasAvailIds(cluster->store(0), IdsOf(6200, 2)));
  EXPECT_TRUE(HasNoAvailIds(cluster->store(0), IdsOf(6100, 2)));
  EXPECT_EQ(cluster->store(0)->Snapshot()->epoch(),
            cluster->store(1)->Snapshot()->epoch());
}

// A failed log rotation on the primary must leave replication untouched:
// the merge aborts cleanly, later writes still reach quorum, and a retried
// merge persists.
TEST(ReplChaosTest, RotationFaultDuringReplicatedMergeIsClean) {
  auto cluster = ReplCluster::Start(3, /*quorum=*/2);
  ASSERT_NE(cluster, nullptr);

  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(6300, 3)));
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                      std::chrono::milliseconds(10000)));

  {
    ScopedFaultInjection fault("ingest.log.rotate=fail-nth:1");
    EXPECT_FALSE(cluster->store(0)->Merge().ok());
  }
  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(6400, 2)));
  auto merged = cluster->store(0)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->persisted);

  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(6500, 2)));
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                      std::chrono::milliseconds(10000)));
  EXPECT_TRUE(HasAvailIds(cluster->store(2), IdsOf(6500, 2)));
}

// ---------------------------------------------------------------------------
// Catch-up across a primary-side log rotation: the records a dead follower
// needs get compacted into the base CSVs while it is down, so its rejoin
// must switch from tail streaming to a snapshot install — and still land
// on the identical epoch.
// ---------------------------------------------------------------------------

TEST(ReplCatchupTest, FollowerCatchesUpAcrossPrimaryRotation) {
  auto cluster = ReplCluster::Start(3, /*quorum=*/1);
  ASSERT_NE(cluster, nullptr);

  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(7000, 3)));
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                      std::chrono::milliseconds(10000)));

  cluster->Kill(2);
  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(7100, 4)));

  // Wait for the primary's sender to fail a push to the dead peer and
  // forget its position (the peer flips to catching_up). The sender then
  // probes the restarted replica before shipping anything, and finds it
  // below the tail that the merge below compacts away.
  const std::string dead_endpoint = "127.0.0.1:" +
                                    std::to_string(cluster->port(2));
  ASSERT_TRUE(WaitFor(
      [&] {
        const JsonValue stats = cluster->repl(0)->StatsJson();
        const JsonValue* peers = stats.Find("peers");
        if (peers == nullptr) return false;
        for (const JsonValue& peer : peers->items()) {
          if (peer.StringOr("endpoint", "") == dead_endpoint) {
            return peer.BoolOr("catching_up", false);
          }
        }
        return false;
      },
      std::chrono::milliseconds(10000)));

  // Persisting merge on the primary: base CSVs rewritten, log truncated,
  // the tail the dead follower needs compacted away.
  auto merged = cluster->store(0)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_TRUE(merged->persisted);

  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(7200, 2)));

  ASSERT_TRUE(cluster->Restart(2));
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                      std::chrono::milliseconds(15000)));
  EXPECT_TRUE(HasAvailIds(cluster->store(2), IdsOf(7100, 4)));
  EXPECT_TRUE(HasAvailIds(cluster->store(2), IdsOf(7200, 2)));
  // The replayed follower sat below the primary's compacted tail, so its
  // rejoin can only have been a snapshot install — counted on the
  // receiver, where it is immune to a lost ack making the primary's
  // retry find the peer already level and record nothing. Polled, not
  // read once: InstallSnapshot commits the converged state a few
  // instructions before the handler increments the counter, so a single
  // read can land in that gap.
  EXPECT_TRUE(WaitFor([&] { return cluster->repl(2)->catchups() > 0; },
                      std::chrono::milliseconds(10000)))
      << "repl2=" << cluster->repl(2)->StatsJson().Serialize();
}

// ---------------------------------------------------------------------------
// Senders ship from the store's tail and probe only when they do not know
// where a peer is: N acknowledged ingests reach the follower as at most
// N + 1 `replicate` requests — one push each, plus the probe that follows
// the promotion. A sender that probed before every push would send 2N.
// ---------------------------------------------------------------------------

TEST(ReplPushTest, OnePushPerAckedIngest) {
  // An idle tick far past the test's length: contact goes stale only
  // after five of them, so no liveness probe fires.
  auto cluster =
      ReplCluster::Start(2, /*quorum=*/2, std::chrono::milliseconds(30000));
  ASSERT_NE(cluster, nullptr);
  constexpr int kIngests = 12;
  for (int i = 0; i < kIngests; ++i) {
    const JsonValue response =
        ParsedRpc(cluster->port(0), IngestLine(9800 + 10 * i, 2));
    ASSERT_TRUE(response.BoolOr("ok", false)) << response.Serialize();
  }
  EXPECT_TRUE(WaitFor([&] { return cluster->Converged({0, 1}); },
                      std::chrono::milliseconds(10000)));
  EXPECT_LE(cluster->replicate_requests(1), kIngests + 1);
  EXPECT_GE(cluster->replicate_requests(1), kIngests);
  EXPECT_EQ(cluster->replicate_requests(0), 0);
}

// ---------------------------------------------------------------------------
// Replication rides the same UpstreamPool as the router: transient
// transport fault bursts on the shared connect/send/recv sites must only
// delay convergence, never corrupt it.
// ---------------------------------------------------------------------------

TEST(ReplUpstreamTest, RouteFaultBurstsOnlyDelayConvergence) {
  auto cluster = ReplCluster::Start(3, /*quorum=*/2);
  ASSERT_NE(cluster, nullptr);
  std::vector<std::int64_t> acked;

  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(8000, 3)));
  for (const std::int64_t id : IdsOf(8000, 3)) acked.push_back(id);
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                      std::chrono::milliseconds(10000)));

  {
    ScopedFaultInjection fault(
        "cluster.route.connect=fail-first:3,cluster.route.send=fail-first:3,"
        "cluster.route.recv=fail-first:3");
    const JsonValue response =
        ParsedRpc(cluster->port(0), IngestLine(8100, 3));
    if (response.BoolOr("ok", false)) {
      for (const std::int64_t id : IdsOf(8100, 3)) acked.push_back(id);
    }
  }

  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(8200, 3)));
  for (const std::int64_t id : IdsOf(8200, 3)) acked.push_back(id);

  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1, 2}); },
                      std::chrono::milliseconds(15000)));
  for (const std::size_t index : {0u, 1u, 2u}) {
    EXPECT_TRUE(HasAvailIds(cluster->store(index), acked))
        << "replica " << index;
  }
}

// ---------------------------------------------------------------------------
// Wire identity: with no ReplicationManager the server's ingest / health /
// stats responses are exactly the pre-replication ones (no new members);
// attaching a standalone manager adds precisely the documented fields.
// ---------------------------------------------------------------------------

std::vector<std::string> KeysOf(const JsonValue& object) {
  std::vector<std::string> keys;
  for (const auto& member : object.members()) keys.push_back(member.first);
  return keys;
}

TEST(ReplRegressionTest, WireIdentityWithoutReplication) {
  // Two single-replica "clusters": one without a ReplicationManager (the
  // pre-replication stack), one with a standalone (peerless) manager.
  auto bare = ReplCluster::Start(1, /*quorum=*/0);
  auto standalone = ReplCluster::Start(1, /*quorum=*/1);
  ASSERT_NE(bare, nullptr);
  ASSERT_NE(standalone, nullptr);
  ASSERT_EQ(bare->repl(0), nullptr);
  ASSERT_NE(standalone->repl(0), nullptr);

  const std::string line = IngestLine(9000, 2);
  const JsonValue bare_response = ParsedRpc(bare->port(0), line);
  const JsonValue repl_response = ParsedRpc(standalone->port(0), line);
  ASSERT_TRUE(bare_response.BoolOr("ok", false));
  ASSERT_TRUE(repl_response.BoolOr("ok", false));

  // The un-replicated response is exactly the pre-replication member set.
  const std::vector<std::string> expected = {"ok", "appended",
                                             "pending_mutations",
                                             "store_epoch"};
  EXPECT_EQ(KeysOf(bare_response), expected);
  // The standalone response is that set plus last_seq, with every shared
  // member identical (same seeded fleet, same mutations => same epoch).
  std::vector<std::string> with_seq = expected;
  with_seq.push_back("last_seq");
  EXPECT_EQ(KeysOf(repl_response), with_seq);
  for (const std::string& key : expected) {
    ASSERT_NE(bare_response.Find(key), nullptr) << key;
    ASSERT_NE(repl_response.Find(key), nullptr) << key;
    EXPECT_EQ(bare_response.Find(key)->Serialize(),
              repl_response.Find(key)->Serialize())
        << key;
  }
  EXPECT_EQ(repl_response.NumberOr("last_seq", 0), 4.0);  // 2 avails + 2 rccs.

  // health: the replication stance appears only when replication is on.
  const JsonValue bare_health =
      ParsedRpc(bare->port(0), "{\"cmd\":\"health\"}");
  const JsonValue repl_health =
      ParsedRpc(standalone->port(0), "{\"cmd\":\"health\"}");
  EXPECT_EQ(bare_health.Find("ingest_role"), nullptr);
  EXPECT_EQ(bare_health.Find("ingest_last_seq"), nullptr);
  EXPECT_EQ(bare_health.Find("repl_lag"), nullptr);
  EXPECT_EQ(repl_health.StringOr("ingest_role", ""), "standalone");
  EXPECT_EQ(repl_health.NumberOr("ingest_last_seq", -1), 4.0);
  EXPECT_EQ(repl_health.NumberOr("repl_lag", -1), 0.0);

  // stats: the repl block appears only when replication is on.
  const JsonValue bare_stats =
      ParsedRpc(bare->port(0), "{\"cmd\":\"stats\"}");
  const JsonValue repl_stats =
      ParsedRpc(standalone->port(0), "{\"cmd\":\"stats\"}");
  EXPECT_EQ(bare_stats.Find("repl"), nullptr);
  const JsonValue* repl_block = repl_stats.Find("repl");
  ASSERT_NE(repl_block, nullptr);
  EXPECT_EQ(repl_block->StringOr("role", ""), "standalone");
  EXPECT_EQ(repl_block->NumberOr("quorum", 0), 1.0);

  // replicate/catchup are registered only when replication is on.
  const JsonValue bare_replicate = ParsedRpc(
      bare->port(0), "{\"cmd\":\"replicate\",\"first_seq\":1,\"records\":[]}");
  EXPECT_FALSE(bare_replicate.BoolOr("ok", false));
  const JsonValue repl_probe = ParsedRpc(
      standalone->port(0),
      "{\"cmd\":\"replicate\",\"first_seq\":5,\"records\":[]}");
  EXPECT_TRUE(repl_probe.BoolOr("ok", false));
  EXPECT_EQ(repl_probe.NumberOr("last_seq", 0), 4.0);
}

// ---------------------------------------------------------------------------
// Sequence members are integers checked before the cast: a fractional,
// negative or overflowing from_seq / first_seq / max_records answers
// INVALID_ARGUMENT over the wire instead of being truncated (2.5 -> 2),
// clamped (-1 -> 0, a snapshot request) or cast with undefined behavior
// (1e300). So do a chain or have_chain that is not 1-16 hex digits (a
// snapshot push at chain "zz" must not install at chain 0) and a record
// whose int field overflows int (ship_class 4294967297 is not 1).
// ---------------------------------------------------------------------------

TEST(ReplRegressionTest, RejectsNonIntegralSequenceMembers) {
  auto cluster = ReplCluster::Start(1, /*quorum=*/1);
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(9500, 2)));

  std::vector<std::string> wrapping_avail = StrSplit(
      EncodeMutation(MakeAvailUpsert(
          cluster->store(0)->Snapshot()->data().avails.rows().front())),
      '|');
  wrapping_avail[8] = "4294967297";  // ship_class.
  const std::string wrapping_record =
      R"({"cmd":"replicate","first_seq":5,"records":[")" +
      StrJoin(wrapping_avail, "|") + R"("]})";
  const auto snapshot_at = [](const std::string& chain) {
    return R"({"cmd":"replicate","snapshot":true,"rows":[],"last_seq":3,)"
           R"("chain":)" + chain + "}";
  };
  for (const std::string& bad :
       {std::string(R"({"cmd":"catchup","from_seq":2.5})"),
        std::string(R"({"cmd":"catchup","from_seq":-1})"),
        std::string(R"({"cmd":"catchup","from_seq":1e300})"),
        std::string(R"({"cmd":"catchup","from_seq":1,"max_records":-1})"),
        std::string(R"({"cmd":"catchup","from_seq":1,"max_records":1e300})"),
        std::string(R"({"cmd":"replicate","first_seq":2.5,"records":[]})"),
        std::string(R"({"cmd":"replicate","first_seq":-1,"records":[]})"),
        std::string(R"({"cmd":"replicate","first_seq":1e300,"records":[]})"),
        std::string(R"({"cmd":"replicate","snapshot":true,"rows":[],)"
                    R"("last_seq":2.5,"chain":"0"})"),
        snapshot_at(R"("zz")"), snapshot_at(R"("")"), snapshot_at(R"("-1")"),
        snapshot_at(R"("12zz")"), snapshot_at(R"("0x12")"),
        snapshot_at(R"("00000000000000001")"), snapshot_at("7"),
        std::string(R"({"cmd":"catchup","from_seq":1,"have_chain":"zz"})"),
        std::string(R"({"cmd":"catchup","from_seq":1,"have_chain":" 1"})"),
        wrapping_record}) {
    const JsonValue response = ParsedRpc(cluster->port(0), bad);
    EXPECT_FALSE(response.BoolOr("ok", true)) << bad;
    EXPECT_EQ(response.StringOr("code", ""), "INVALID_ARGUMENT") << bad;
  }
  // Integral doubles are integers: the store is untouched and catch-up
  // still answers.
  const JsonValue tail = ParsedRpc(
      cluster->port(0), R"({"cmd":"catchup","from_seq":1.0,"max_records":8})");
  EXPECT_TRUE(tail.BoolOr("ok", false)) << tail.Serialize();
  EXPECT_EQ(tail.NumberOr("last_seq", 0), 4.0);
  EXPECT_EQ(cluster->store(0)->last_seq(), 4u);
}

// ---------------------------------------------------------------------------
// A snapshot push is checked like an append: an RCC naming an avail that no
// row of the snapshot upserts answers NOT_FOUND, and the replica installs
// nothing and keeps its role.
// ---------------------------------------------------------------------------

TEST(ReplRegressionTest, SnapshotPushWithUnknownAvailInstallsNothing) {
  auto cluster = ReplCluster::Start(1, /*quorum=*/1);
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(9700, 2)));
  DataStore* store = cluster->store(0);
  const auto before = store->Snapshot();
  std::uint64_t seq = 0;
  std::uint64_t chain = 0;
  store->Position(&seq, &chain);

  const Dataset& data = before->data();
  std::int64_t ghost_avail = 0;
  for (const Avail& avail : data.avails.rows()) {
    ghost_avail = std::max(ghost_avail, avail.id + 100);
  }
  Rcc orphan = data.rccs.rows().front();
  orphan.avail_id = ghost_avail;
  const std::string push =
      R"({"cmd":"replicate","snapshot":true,"rows":[")" +
      EncodeMutation(MakeAvailUpsert(data.avails.rows().front())) + R"(",")" +
      EncodeMutation(MakeRccUpsert(orphan)) +
      R"("],"last_seq":99,"chain":"abc"})";
  const JsonValue response = ParsedRpc(cluster->port(0), push);
  EXPECT_FALSE(response.BoolOr("ok", true)) << response.Serialize();
  EXPECT_EQ(response.StringOr("code", ""), "NOT_FOUND");
  EXPECT_NE(response.StringOr("error", "")
                .find("references unknown avail " +
                      std::to_string(ghost_avail)),
            std::string::npos)
      << response.Serialize();

  std::uint64_t seq_after = 0;
  std::uint64_t chain_after = 0;
  store->Position(&seq_after, &chain_after);
  EXPECT_EQ(seq_after, seq);
  EXPECT_EQ(chain_after, chain);
  EXPECT_EQ(store->Snapshot()->epoch(), before->epoch());
  const JsonValue health = ParsedRpc(cluster->port(0), R"({"cmd":"health"})");
  EXPECT_EQ(health.StringOr("ingest_role", ""), "standalone");
}

// ---------------------------------------------------------------------------
// A promoting replica whose pulled tail contradicts its own history
// (DATA_LOSS on apply) asks that peer for a snapshot (from_seq 0) and
// installs what it sends, even one at a lower sequence than its own: its
// own history is the one that diverged.
// ---------------------------------------------------------------------------

TEST(ReplRegressionTest, DivergedPullInstallsThePeersSnapshot) {
  const Dataset& fleet = GetServeFixture().pipeline.data;
  const std::string dir = ::testing::TempDir() + "/domd_repl_pull_" +
                          std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  ASSERT_TRUE(WriteBaseTables(fleet, dir).ok());
  auto store = DataStore::OpenDir(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Avail avail = fleet.avails.rows().front();
  for (int i = 0; i < 2; ++i) {
    avail.crew_size += 1;
    ASSERT_TRUE((*store)->Append(MakeAvailUpsert(avail)).ok());
  }

  // The peer holds another record at sequence 1, and its snapshot is the
  // fixture fleet at sequence 1.
  avail.crew_size += 10;
  const std::string other = EncodeMutation(MakeAvailUpsert(avail));
  JsonValue rows = JsonValue::Array();
  for (const Avail& row : fleet.avails.rows()) {
    rows.Append(JsonValue::String(EncodeMutation(MakeAvailUpsert(row))));
  }
  for (const Rcc& row : fleet.rccs.rows()) {
    rows.Append(JsonValue::String(EncodeMutation(MakeRccUpsert(row))));
  }
  std::atomic<int> snapshots{0};
  ReactorOptions peer_options;
  peer_options.port = 0;
  peer_options.num_shards = 1;
  auto peer = Reactor::Create(
      peer_options, [&](std::string line, Responder responder) {
        const auto request = JsonValue::Parse(line);
        JsonValue out = JsonValue::Object();
        const bool catchup =
            request.ok() && request->StringOr("cmd", "") == "catchup";
        out.Set("ok", JsonValue::Bool(catchup));
        if (catchup) {
          const double from_seq = request->NumberOr("from_seq", -1);
          out.Set("last_seq", JsonValue::Number(1));
          if (from_seq == 0) {
            snapshots.fetch_add(1);
            out.Set("snapshot", JsonValue::Bool(true));
            out.Set("chain", JsonValue::String("abc"));
            out.Set("rows", rows);
          } else {
            // Before the snapshot: the overlapping, contradicting record.
            // After it: nothing newer.
            JsonValue records = JsonValue::Array();
            if (snapshots.load() == 0) records.Append(JsonValue::String(other));
            out.Set("first_seq", JsonValue::Number(
                                     snapshots.load() == 0 ? 1 : from_seq));
            out.Set("records", std::move(records));
          }
        }
        responder.Respond(out.Serialize());
      });
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  {
    ReplicationManager repl(
        store->get(), FastReplOptions({{"127.0.0.1", (*peer)->port()}}, 1,
                                      std::chrono::milliseconds(50)));
    const Status promoted = repl.EnsurePrimary();
    ASSERT_TRUE(promoted.ok()) << promoted.ToString();
    EXPECT_EQ(snapshots.load(), 1);
    std::uint64_t seq = 0;
    std::uint64_t chain = 0;
    (*store)->Position(&seq, &chain);
    EXPECT_EQ(seq, 1u);
    EXPECT_EQ(chain, 0xabcu);
    EXPECT_EQ((*store)->epoch(), ComputeDatasetFingerprint(fleet));
  }
  peer->reset();
  store->reset();
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Train once per shard (DESIGN.md §14): behind a ClusterRouter, `retrain`
// trains on one replica of each shard and the others adopt its models for
// the trained-on epoch — or retrain themselves when their data differs.
// ---------------------------------------------------------------------------

/// A ClusterRouter on its own reactor over `shards` (replica ports per
/// shard, shard ids 0..n-1). The prober is off, so each shard's preference
/// order is its spec order.
struct RouterFront {
  std::unique_ptr<cluster::ClusterRouter> router;
  std::unique_ptr<Reactor> reactor;
  int port = 0;

  static std::unique_ptr<RouterFront> Start(
      const std::vector<std::vector<int>>& shards) {
    std::vector<cluster::ShardSpec> specs;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      cluster::ShardSpec spec;
      spec.id = static_cast<int>(s);
      for (const int port : shards[s]) {
        spec.replicas.push_back({"127.0.0.1", port});
      }
      specs.push_back(std::move(spec));
    }
    auto host_map = cluster::HostMap::Create(std::move(specs));
    if (!host_map.ok()) return nullptr;
    cluster::RouterOptions options;
    options.workers = 2;
    options.start_prober = false;
    auto front = std::make_unique<RouterFront>();
    front->router = std::make_unique<cluster::ClusterRouter>(
        std::move(*host_map), options);
    ReactorOptions reactor_options;
    reactor_options.port = 0;
    reactor_options.num_shards = 1;
    cluster::ClusterRouter* router = front->router.get();
    auto reactor = Reactor::Create(
        reactor_options, [router](std::string line, Responder responder) {
          router->Handle(std::move(line), std::move(responder));
        });
    if (!reactor.ok()) return nullptr;
    front->reactor = std::move(*reactor);
    front->port = front->reactor->port();
    return front;
  }
};

/// The "retrained" entries of a router retrain answer.
std::vector<JsonValue> RetrainedEntries(const JsonValue& response) {
  const JsonValue* retrained = response.Find("retrained");
  if (retrained == nullptr || !retrained->is_array()) return {};
  return retrained->items();
}

std::size_t CountTrained(const std::vector<JsonValue>& entries) {
  std::size_t trained = 0;
  for (const JsonValue& entry : entries) {
    if (entry.BoolOr("trained", false)) ++trained;
  }
  return trained;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A point answer with its per-request latency removed.
std::string PointBytes(int port, std::int64_t avail_id) {
  const JsonValue answer = ParsedRpc(
      port, "{\"avail_id\": " + std::to_string(avail_id) +
                ", \"t_star\": 60, \"top_k\": 3}");
  JsonValue stripped = JsonValue::Object();
  for (const auto& [key, value] : answer.members()) {
    if (key != "latency_ms") stripped.Set(key, value);
  }
  return stripped.Serialize();
}

/// Avails whose points the tests compare: a few of the fixture fleet's
/// plus every streamed one.
std::vector<std::int64_t> PointIds(const std::vector<std::int64_t>& streamed) {
  std::vector<std::int64_t> ids = streamed;
  const auto& rows = GetServeFixture().pipeline.data.avails.rows();
  for (std::size_t i = 0; i < rows.size() && i < 4; ++i) {
    ids.push_back(rows[i].id);
  }
  return ids;
}

TEST(ReplRouterTest, RetrainTrainsOncePerShardAndAdoptersMatchTheTrainer) {
  auto cluster = ReplCluster::Start(2, /*quorum=*/2);
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(9600, 3)));
  ASSERT_TRUE(WaitFor([&] { return cluster->Converged({0, 1}); },
                      std::chrono::milliseconds(10000)));
  auto front = RouterFront::Start({{cluster->port(0), cluster->port(1)}});
  ASSERT_NE(front, nullptr);

  const JsonValue response =
      ParsedRpc(front->port, R"({"cmd":"retrain","version":"r1"})");
  ASSERT_TRUE(response.BoolOr("ok", false)) << response.Serialize();
  const std::vector<JsonValue> entries = RetrainedEntries(response);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(CountTrained(entries), 1u) << response.Serialize();
  for (const JsonValue& entry : entries) {
    EXPECT_TRUE(entry.BoolOr("ok", false));
    EXPECT_EQ(entry.StringOr("bundle_version", ""), "r1");
    EXPECT_EQ(entry.Find("models"), nullptr);  // the router keeps them.
  }

  // The adopter's bundle directory is what its own training would have
  // written: every file, MANIFEST included, equals the trainer's.
  for (const char* name :
       {"MANIFEST", "models.txt", "avails.csv", "rccs.csv"}) {
    const std::string trainer =
        FileBytes(cluster->replica_dir(0) + "/retrain/r1/" + name);
    ASSERT_FALSE(trainer.empty()) << name;
    EXPECT_EQ(FileBytes(cluster->replica_dir(1) + "/retrain/r1/" + name),
              trainer)
        << name;
  }

  // Routed and direct points agree byte for byte (latency aside), on
  // both replicas, for fleet and streamed avails alike.
  for (const std::int64_t id : PointIds(IdsOf(9600, 3))) {
    const std::string routed = PointBytes(front->port, id);
    EXPECT_NE(routed.find("\"bundle_version\":\"r1\""), std::string::npos)
        << routed;
    EXPECT_EQ(PointBytes(cluster->port(0), id), routed) << id;
    EXPECT_EQ(PointBytes(cluster->port(1), id), routed) << id;
  }
}

TEST(ReplRouterTest, LaggingReplicaRefusesAdoptKeepsServingThenRetrains) {
  auto cluster = ReplCluster::Start(2, /*quorum=*/1);
  ASSERT_NE(cluster, nullptr);
  // Every outbound replicate fails, so replica 1 never sees the batch that
  // quorum 1 acknowledges on replica 0: their epochs differ.
  ScopedFaultInjection lag("repl.send=fail-first:1000000");
  ASSERT_TRUE(IngestUntilAcked(cluster->port(0), IngestLine(9700, 2)));
  ASSERT_NE(cluster->store(0)->epoch(), cluster->store(1)->epoch());

  const JsonValue trained = ParsedRpc(
      cluster->port(0),
      R"({"cmd":"retrain","version":"t1","ship_models":true})");
  ASSERT_TRUE(trained.BoolOr("ok", false)) << trained.Serialize();
  JsonValue adopt = JsonValue::Object();
  adopt.Set("cmd", JsonValue::String("adopt"));
  adopt.Set("version", JsonValue::String("t1"));
  for (const char* key : {"bundle_epoch", "models", "models_checksum"}) {
    adopt.Set(key, JsonValue::String(trained.StringOr(key, "")));
  }
  const std::vector<std::int64_t> ids = PointIds({});
  std::vector<std::string> before;
  for (const std::int64_t id : ids) {
    before.push_back(PointBytes(cluster->port(1), id));
  }
  const JsonValue refused = ParsedRpc(cluster->port(1), adopt.Serialize());
  EXPECT_FALSE(refused.BoolOr("ok", true));
  EXPECT_EQ(refused.StringOr("code", ""), "FAILED_PRECONDITION")
      << refused.Serialize();
  EXPECT_FALSE(std::filesystem::exists(cluster->replica_dir(1) +
                                       "/retrain/t1"));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(PointBytes(cluster->port(1), ids[i]), before[i]) << ids[i];
  }

  // The router's adopt meets the same refusal, and the lagging replica is
  // retrained on its own data instead.
  auto front = RouterFront::Start({{cluster->port(0), cluster->port(1)}});
  ASSERT_NE(front, nullptr);
  const JsonValue response =
      ParsedRpc(front->port, R"({"cmd":"retrain","version":"r1"})");
  ASSERT_TRUE(response.BoolOr("ok", false)) << response.Serialize();
  const std::vector<JsonValue> entries = RetrainedEntries(response);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(CountTrained(entries), 2u) << response.Serialize();
  EXPECT_NE(FileBytes(cluster->replica_dir(0) + "/retrain/r1/avails.csv"),
            FileBytes(cluster->replica_dir(1) + "/retrain/r1/avails.csv"));
  for (const std::size_t r : {0u, 1u}) {
    EXPECT_EQ(ParsedRpc(cluster->port(r), R"({"cmd":"ping"})")
                  .StringOr("bundle_version", ""),
              "r1");
  }
}

TEST(ReplRouterTest, StandaloneReplicasWithDifferentDataBothTrain) {
  auto a = ReplCluster::Start(1, /*quorum=*/1);
  auto b = ReplCluster::Start(1, /*quorum=*/1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(IngestUntilAcked(b->port(0), IngestLine(9800, 2)));
  ASSERT_NE(a->store(0)->epoch(), b->store(0)->epoch());
  auto front = RouterFront::Start({{a->port(0), b->port(0)}});
  ASSERT_NE(front, nullptr);

  const JsonValue response =
      ParsedRpc(front->port, R"({"cmd":"retrain","version":"r1"})");
  ASSERT_TRUE(response.BoolOr("ok", false)) << response.Serialize();
  const std::vector<JsonValue> entries = RetrainedEntries(response);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(CountTrained(entries), 2u) << response.Serialize();
  for (const JsonValue& entry : entries) {
    EXPECT_TRUE(entry.BoolOr("ok", false));
    EXPECT_EQ(entry.StringOr("bundle_version", ""), "r1");
  }
}

}  // namespace
}  // namespace domd
