// Chaos battery for the cluster routing tier (DESIGN.md §12): an
// in-process cluster of real serve stacks (PredictionService +
// ServeFrontend + epoll Reactor, each on an ephemeral port) fronted by a
// real ClusterRouter behind its own Reactor, driven over actual TCP. The
// suites cover the availability contract (down-shard hedging, scatter-
// gather partial failure, bit-identity of routed answers) and the
// coordinated-rollout contract (shard-by-shard flip, halt-and-report on an
// injected serve.bundle.commit fault with every shard left on
// last-known-good).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/router.h"
#include "fault/fault.h"
#include "serve/frontend.h"
#include "serve/json.h"
#include "serve/prediction_service.h"
#include "serve/reactor.h"
#include "serve/serve_test_fixture.h"
#include "serve/reactor_test_client.h"

namespace domd {
namespace cluster {
namespace {

using testing_internal::GetServeFixture;
using testing_internal::Rpc;
using testing_internal::WaitFor;

/// One in-process serve stack: the exact objects domd_serve wires up,
/// listening on an ephemeral loopback port.
struct InProcShard {
  std::unique_ptr<PredictionService> service;
  std::unique_ptr<ServeFrontend> frontend;
  std::unique_ptr<Reactor> reactor;
  int port = 0;

  static std::unique_ptr<InProcShard> Start(
      std::shared_ptr<const ModelBundle> bundle) {
    auto shard = std::make_unique<InProcShard>();
    shard->service = std::make_unique<PredictionService>(std::move(bundle));
    shard->frontend =
        std::make_unique<ServeFrontend>(shard->service.get(),
                                        FrontendOptions{});
    ReactorOptions options;
    options.port = 0;
    options.num_shards = 1;
    ServeFrontend* frontend = shard->frontend.get();
    auto reactor = Reactor::Create(
        options, [frontend](std::string line, Responder responder) {
          frontend->Handle(std::move(line), std::move(responder));
        });
    if (!reactor.ok()) return nullptr;
    shard->reactor = std::move(*reactor);
    shard->port = shard->reactor->port();
    return shard;
  }

  void Kill() { reactor.reset(); }  // connections die; service stays up.
};

/// A cluster of shards plus the router under test. `replicas_per_shard`
/// extra stacks serve the same partition (same bundle) as hedge targets.
struct InProcCluster {
  // shards[s][r]: replica r of shard s (r == 0 is the primary).
  std::vector<std::vector<std::unique_ptr<InProcShard>>> shards;
  HostMap host_map;
  std::unique_ptr<ClusterRouter> router;
  std::unique_ptr<Reactor> router_reactor;
  int router_port = 0;

  static std::unique_ptr<InProcCluster> Start(
      std::size_t num_shards, std::size_t replicas_per_shard,
      std::shared_ptr<const ModelBundle> bundle, RouterOptions options) {
    auto cluster = std::make_unique<InProcCluster>();
    std::vector<ShardSpec> specs;
    for (std::size_t s = 0; s < num_shards; ++s) {
      cluster->shards.emplace_back();
      ShardSpec spec;
      spec.id = static_cast<int>(s);
      for (std::size_t r = 0; r < replicas_per_shard; ++r) {
        auto shard = InProcShard::Start(bundle);
        if (shard == nullptr) return nullptr;
        spec.replicas.push_back({"127.0.0.1", shard->port});
        cluster->shards.back().push_back(std::move(shard));
      }
      specs.push_back(std::move(spec));
    }
    auto host_map = HostMap::Create(std::move(specs));
    if (!host_map.ok()) return nullptr;
    cluster->host_map = *host_map;
    cluster->router =
        std::make_unique<ClusterRouter>(std::move(*host_map), options);
    ReactorOptions reactor_options;
    reactor_options.port = 0;
    reactor_options.num_shards = 1;
    ClusterRouter* router = cluster->router.get();
    auto reactor = Reactor::Create(
        reactor_options, [router](std::string line, Responder responder) {
          router->Handle(std::move(line), std::move(responder));
        });
    if (!reactor.ok()) return nullptr;
    cluster->router_reactor = std::move(*reactor);
    cluster->router_port = cluster->router_reactor->port();
    return cluster;
  }

  /// The shard index (into shards) owning `avail_id`.
  std::size_t OwnerOf(std::int64_t avail_id) const {
    return host_map.OwnerIndexOf(KeyForAvail(avail_id));
  }

  /// Some reference avail id owned by shard `shard_index`.
  std::int64_t AvailOwnedBy(std::size_t shard_index) const {
    for (const Avail& avail : GetServeFixture().pipeline.data.avails.rows()) {
      if (OwnerOf(avail.id) == shard_index) return avail.id;
    }
    return -1;
  }
};

RouterOptions FastRouterOptions() {
  RouterOptions options;
  options.workers = 2;
  options.hedge_deadline = std::chrono::milliseconds(300);
  options.upstream_deadline = std::chrono::milliseconds(5000);
  options.start_prober = false;  // tests drive ProbeOnce() deterministically.
  return options;
}

/// Serializes `line` with its "latency_ms" member dropped: latency is
/// measured per-request by whichever process answered, so it is the one
/// field that legitimately differs between a routed and a direct answer.
std::string StripLatency(const std::string& line) {
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok() || !parsed->is_object()) return line;
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : parsed->members()) {
    if (key != "latency_ms") out.Set(key, value);
  }
  return out.Serialize();
}

TEST(RouterChaosTest, RoutedAnswersAreBitIdenticalToDirectShard) {
  auto cluster = InProcCluster::Start(2, 1, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  std::size_t checked = 0;
  for (const Avail& avail : GetServeFixture().pipeline.data.avails.rows()) {
    if (checked >= 8) break;
    ++checked;
    const std::string request = "{\"avail_id\": " +
                                std::to_string(avail.id) +
                                ", \"t_star\": 60}";
    const std::string via_router = Rpc(cluster->router_port, request);
    const std::size_t owner = cluster->OwnerOf(avail.id);
    const std::string direct =
        Rpc(cluster->shards[owner][0]->port, request);
    ASSERT_FALSE(via_router.empty());
    // Byte-for-byte apart from the per-request latency measurement: the
    // router forwards the shard's response line verbatim.
    EXPECT_EQ(StripLatency(via_router), StripLatency(direct))
        << "avail " << avail.id;
  }
  EXPECT_EQ(checked, 8u);
  const auto stats = cluster->router->stats();
  EXPECT_EQ(stats.routed, 8u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(RouterChaosTest, ControlVerbsAnswerInline) {
  auto cluster = InProcCluster::Start(2, 1, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  auto ping = JsonValue::Parse(Rpc(cluster->router_port, "{\"cmd\":\"ping\"}"));
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->BoolOr("ok", false));
  EXPECT_EQ(ping->StringOr("role", ""), "router");

  cluster->router->ProbeOnce();
  auto health =
      JsonValue::Parse(Rpc(cluster->router_port, "{\"cmd\":\"health\"}"));
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->BoolOr("all_shards_routable", false));
  ASSERT_NE(health->Find("shards"), nullptr);
  EXPECT_EQ(health->Find("shards")->items().size(), 2u);
  for (const JsonValue& shard : health->Find("shards")->items()) {
    EXPECT_TRUE(shard.BoolOr("routable", false));
    for (const JsonValue& replica : shard.Find("replicas")->items()) {
      EXPECT_TRUE(replica.BoolOr("up", false));
      EXPECT_EQ(replica.StringOr("bundle_version", ""), "v1");
    }
  }

  // Exact answer lines, byte for byte. The malformed predictions and the
  // bundle-less rollout are answered before the worker queue, so none is
  // ever shed.
  const std::string invalid = R"({"ok":false,"code":"INVALID_ARGUMENT",)";
  const std::vector<std::pair<std::string, std::string>> pinned = {
      {"not json", invalid + R"("error":"json: bad token"})"},
      {R"({"cmd":"nope"})", invalid + R"("error":"unknown cmd \"nope\""})"},
      {"{}", invalid + R"("error":"request needs \"avail_id\", )"
                       R"(\"avail_ids\", or \"avail\""})"},
      {R"({"avail_ids": 3})",
       invalid + R"("error":"\"avail_ids\" must be an array"})"},
      {R"({"avail_id": "x"})",
       invalid + R"("error":"\"avail_id\" must be a number"})"},
      {R"({"cmd":"rollout"})",
       invalid + R"("error":"rollout needs \"bundle\""})"},
      {R"({"cmd":"ping"})", R"({"ok":true,"role":"router","num_shards":2})"},
  };
  for (const auto& [request, answer] : pinned) {
    EXPECT_EQ(Rpc(cluster->router_port, request), answer) << request;
  }
  EXPECT_EQ(cluster->router->stats().routed, 0u);
  EXPECT_EQ(Rpc(cluster->router_port, R"({"cmd":"shutdown"})"),
            R"({"ok":true,"shutting_down":true})");
}

TEST(RouterChaosTest, HedgesToReplicaWhenPrimaryDies) {
  auto cluster = InProcCluster::Start(2, 2, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  const std::int64_t victim_avail = cluster->AvailOwnedBy(0);
  ASSERT_GE(victim_avail, 0);
  const std::string request =
      "{\"avail_id\": " + std::to_string(victim_avail) + "}";

  // Warm path through the primary first (also parks a pooled connection
  // that will be stale after the kill — exercising the redial-then-blame
  // disambiguation).
  const std::string before = Rpc(cluster->router_port, request);
  ASSERT_TRUE(JsonValue::Parse(before).ok());

  cluster->shards[0][0]->Kill();

  // Every request keeps succeeding: the router blames the dead primary
  // after one failed attempt and hedges to the surviving replica.
  for (int i = 0; i < 4; ++i) {
    const std::string after = Rpc(cluster->router_port, request);
    auto parsed = JsonValue::Parse(after);
    ASSERT_TRUE(parsed.ok()) << after;
    EXPECT_EQ(parsed->StringOr("code", "OK"), "OK") << after;
    EXPECT_EQ(parsed->StringOr("bundle_version", ""), "v1");
  }
  const auto stats = cluster->router->stats();
  EXPECT_GE(stats.hedged, 1u);
  EXPECT_EQ(stats.failed, 0u);

  // The prober records the dead primary; health stops calling it routable
  // only once every replica of a shard is gone, which is not the case here.
  cluster->router->ProbeOnce();
  const auto states = cluster->router->replica_states(0);
  ASSERT_EQ(states.size(), 2u);
  EXPECT_FALSE(states[0].up);
  EXPECT_TRUE(states[1].up);
}

// The background prober probes as it starts, not one probe_interval later:
// with the interval at 60 s, health must report every replica up and ready
// within 2 s.
TEST(RouterChaosTest, ProberProbesAtStart) {
  RouterOptions options = FastRouterOptions();
  options.start_prober = true;
  options.probe_interval = std::chrono::seconds(60);
  auto cluster = InProcCluster::Start(2, 2, GetServeFixture().v1, options);
  ASSERT_NE(cluster, nullptr);
  const auto all_ready = [&] {
    auto health =
        JsonValue::Parse(Rpc(cluster->router_port, "{\"cmd\":\"health\"}"));
    if (!health.ok() || !health->BoolOr("all_shards_routable", false)) {
      return false;
    }
    for (const JsonValue& shard : health->Find("shards")->items()) {
      for (const JsonValue& replica : shard.Find("replicas")->items()) {
        if (!replica.BoolOr("up", false) || !replica.BoolOr("ready", false)) {
          return false;
        }
      }
    }
    return true;
  };
  ASSERT_TRUE(WaitFor(all_ready, std::chrono::milliseconds(2000)));
  for (std::size_t s = 0; s < 2; ++s) {
    for (const ReplicaState& state : cluster->router->replica_states(s)) {
      EXPECT_EQ(state.bundle_version, "v1");
    }
  }
  EXPECT_GE(cluster->router->stats().probes, 4u);
}

// A router whose replicas never answer still destructs promptly: the
// prober checks for shutdown before its first round and wakes from its
// wait, so teardown costs at most the round in flight.
TEST(RouterChaosTest, ProberOverDeadReplicasStopsPromptly) {
  std::vector<ShardSpec> specs;
  for (int s = 0; s < 2; ++s) {
    ShardSpec spec;
    spec.id = s;
    for (int r = 0; r < 2; ++r) {
      auto shard = InProcShard::Start(GetServeFixture().v1);
      ASSERT_NE(shard, nullptr);
      spec.replicas.push_back({"127.0.0.1", shard->port});
      shard.reset();  // the listener goes: nothing answers on its port.
    }
    specs.push_back(std::move(spec));
  }
  auto host_map = HostMap::Create(std::move(specs));
  ASSERT_TRUE(host_map.ok()) << host_map.status();
  RouterOptions options = FastRouterOptions();
  options.start_prober = true;
  options.probe_interval = std::chrono::seconds(60);
  options.probe_timeout = std::chrono::milliseconds(250);
  for (const auto linger : {std::chrono::milliseconds(0),
                            std::chrono::milliseconds(100)}) {
    const auto start = std::chrono::steady_clock::now();
    {
      ClusterRouter router(*host_map, options);
      std::this_thread::sleep_for(linger);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start - linger;
    EXPECT_LT(elapsed, 4 * options.probe_timeout)
        << "linger " << linger.count() << " ms";
  }
}

TEST(RouterChaosTest, ScatterGatherMergesInRequestOrder) {
  auto cluster = InProcCluster::Start(2, 1, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  // Pick ids alternating across both shards so the fan-out is real.
  std::vector<std::int64_t> ids;
  for (std::size_t s = 0; ids.size() < 6; s = (s + 1) % 2) {
    for (const Avail& avail : GetServeFixture().pipeline.data.avails.rows()) {
      if (cluster->OwnerOf(avail.id) == s &&
          std::find(ids.begin(), ids.end(), avail.id) == ids.end()) {
        ids.push_back(avail.id);
        break;
      }
    }
  }
  std::string request = "{\"avail_ids\": [";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) request += ", ";
    request += std::to_string(ids[i]);
  }
  request += "], \"t_star\": 60}";

  auto response = JsonValue::Parse(Rpc(cluster->router_port, request));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->BoolOr("ok", false));
  EXPECT_EQ(response->NumberOr("fanout", 0), 2.0);
  EXPECT_EQ(response->NumberOr("errors", -1), 0.0);
  const JsonValue* results = response->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // In-order merge: slot i answers ids[i], and each slot is the owning
    // shard's answer (bit-identity checked against a direct request).
    const JsonValue& slot = results->items()[i];
    EXPECT_EQ(slot.NumberOr("avail_id", -1),
              static_cast<double>(ids[i]));
    const std::string direct =
        Rpc(cluster->shards[cluster->OwnerOf(ids[i])][0]->port,
            "{\"avail_id\": " + std::to_string(ids[i]) +
                ", \"t_star\": 60}");
    EXPECT_EQ(StripLatency(slot.Serialize()), StripLatency(direct));
  }
}

TEST(RouterChaosTest, ScatterGatherSurvivesPartialShardFailure) {
  auto cluster = InProcCluster::Start(2, 1, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  std::vector<std::int64_t> ids;
  for (std::size_t s = 0; ids.size() < 4; s = (s + 1) % 2) {
    for (const Avail& avail : GetServeFixture().pipeline.data.avails.rows()) {
      if (cluster->OwnerOf(avail.id) == s &&
          std::find(ids.begin(), ids.end(), avail.id) == ids.end()) {
        ids.push_back(avail.id);
        break;
      }
    }
  }
  cluster->shards[1].front()->Kill();  // shard 1 has no replica to hedge to.

  std::string request = "{\"avail_ids\": [";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) request += ", ";
    request += std::to_string(ids[i]);
  }
  request += "]}";
  auto response = JsonValue::Parse(Rpc(cluster->router_port, request));
  ASSERT_TRUE(response.ok());
  // Partial failure: the response reports the loss, every slot still
  // answers in order, and slots owned by the surviving shard are real
  // predictions.
  EXPECT_FALSE(response->BoolOr("ok", true));
  EXPECT_GT(response->NumberOr("errors", 0), 0.0);
  const JsonValue* results = response->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JsonValue& slot = results->items()[i];
    if (cluster->OwnerOf(ids[i]) == 0) {
      EXPECT_EQ(slot.NumberOr("avail_id", -1),
                static_cast<double>(ids[i]));
    } else {
      EXPECT_FALSE(slot.BoolOr("ok", true));
      EXPECT_EQ(slot.StringOr("code", ""), "UNAVAILABLE");
    }
  }
}

// Routing keys are range-checked before any hop: a point whose avail_id
// is not an int64 is rejected by the router itself, a bad scatter id gets
// an error in its own slot, and an ingest row with a fractional key is
// refused whole, so no shard applies part of it.
TEST(RouterChaosTest, RejectsNonIntegralOrOutOfRangeKeysBeforeAnyHop) {
  auto cluster = InProcCluster::Start(2, 1, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  auto point = JsonValue::Parse(
      Rpc(cluster->router_port, R"({"avail_id": 1e300, "t_star": 60})"));
  ASSERT_TRUE(point.ok());
  EXPECT_FALSE(point->BoolOr("ok", true));
  EXPECT_EQ(point->StringOr("code", ""), "INVALID_ARGUMENT");
  EXPECT_EQ(cluster->router->stats().routed, 0u);

  const std::int64_t id = cluster->AvailOwnedBy(0);
  ASSERT_GE(id, 0);
  auto scatter = JsonValue::Parse(
      Rpc(cluster->router_port, "{\"avail_ids\": [" + std::to_string(id) +
                                    ", 7.5, 1e300], \"t_star\": 60}"));
  ASSERT_TRUE(scatter.ok());
  EXPECT_EQ(scatter->NumberOr("errors", -1), 2.0);
  const JsonValue* results = scatter->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), 3u);
  EXPECT_EQ(StripLatency(results->items()[0].Serialize()),
            StripLatency(Rpc(cluster->shards[0][0]->port,
                             "{\"avail_id\": " + std::to_string(id) +
                                 ", \"t_star\": 60}")));
  for (std::size_t slot : {1, 2}) {
    EXPECT_EQ(results->items()[slot].StringOr("code", ""), "INVALID_ARGUMENT")
        << slot;
  }

  auto ingest = JsonValue::Parse(Rpc(
      cluster->router_port,
      R"({"cmd": "ingest", "rccs": [{"id": 1, "avail_id": 2.5, "type": "G",)"
      R"( "swlin": "434-11-001", "creation_date": "2024-02-01"}]})"));
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest->StringOr("code", ""), "INVALID_ARGUMENT");
  EXPECT_EQ(cluster->router->stats().ingest_routed, 0u);
}

TEST(RouterChaosTest, OverloadShedsWithResourceExhausted) {
  RouterOptions options = FastRouterOptions();
  options.workers = 1;
  options.max_queue_depth = 0;  // every routed request overflows the queue.
  auto cluster =
      InProcCluster::Start(1, 1, GetServeFixture().v1, options);
  ASSERT_NE(cluster, nullptr);
  const std::int64_t id = cluster->AvailOwnedBy(0);
  auto response = JsonValue::Parse(
      Rpc(cluster->router_port, "{\"avail_id\": " + std::to_string(id) + "}"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->StringOr("code", ""), "RESOURCE_EXHAUSTED");
  EXPECT_GE(cluster->router->stats().rejected_overload, 1u);
}

TEST(ClusterRolloutTest, FlipsEveryShardToTheNewBundle) {
  auto cluster = InProcCluster::Start(3, 1, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  auto response = JsonValue::Parse(
      Rpc(cluster->router_port, "{\"cmd\": \"rollout\", \"bundle\": " +
                                    JsonQuote(GetServeFixture().dir_v2) +
                                    "}"));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->BoolOr("ok", false)) << response->Serialize();
  EXPECT_EQ(response->StringOr("bundle_version", ""), "v2");
  const JsonValue* flipped = response->Find("flipped_shards");
  ASSERT_NE(flipped, nullptr);
  ASSERT_EQ(flipped->items().size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(flipped->items()[s].number_value(), static_cast<double>(s));
    // Every shard now answers from v2, confirmed shard-direct.
    auto health = JsonValue::Parse(
        Rpc(cluster->shards[s][0]->port, "{\"cmd\":\"health\"}"));
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health->StringOr("bundle_version", ""), "v2") << "shard " << s;
  }
}

TEST(ClusterRolloutTest, HaltsOnInjectedCommitFaultAndKeepsLastKnownGood) {
  auto cluster = InProcCluster::Start(3, 1, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  {
    // The second shard's stage commit fails (the atomic-rename step of its
    // crash-safe bundle copy). Stages run in shard order, so shard 0
    // stages cleanly, shard 1 faults, shard 2 is never reached.
    fault::ScopedFaultInjection faults("serve.bundle.commit=fail-nth:2");
    auto response = JsonValue::Parse(
        Rpc(cluster->router_port, "{\"cmd\": \"rollout\", \"bundle\": " +
                                      JsonQuote(GetServeFixture().dir_v2) +
                                      "}"));
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->BoolOr("ok", true)) << response->Serialize();
    EXPECT_EQ(response->StringOr("phase", ""), "stage");
    EXPECT_EQ(response->NumberOr("failed_shard", -1), 1.0);
    EXPECT_EQ(response->StringOr("failed_endpoint", ""),
              "127.0.0.1" + std::string(":") +
                  std::to_string(cluster->shards[1][0]->port));
    ASSERT_NE(response->Find("flipped_shards"), nullptr);
    EXPECT_TRUE(response->Find("flipped_shards")->items().empty());
  }
  // Halt means halt: no shard flipped, every shard still serves v1.
  for (std::size_t s = 0; s < 3; ++s) {
    auto health = JsonValue::Parse(
        Rpc(cluster->shards[s][0]->port, "{\"cmd\":\"health\"}"));
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health->StringOr("bundle_version", ""), "v1") << "shard " << s;
  }
  EXPECT_EQ(cluster->router->stats().rollout_failures, 1u);

  // With the fault disarmed the same rollout completes, proving the halt
  // left the cluster in a retryable state.
  auto retry = JsonValue::Parse(
      Rpc(cluster->router_port, "{\"cmd\": \"rollout\", \"bundle\": " +
                                    JsonQuote(GetServeFixture().dir_v2) +
                                    "}"));
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->BoolOr("ok", false)) << retry->Serialize();
  EXPECT_EQ(retry->StringOr("bundle_version", ""), "v2");
}

TEST(ClusterRolloutTest, RejectsMissingBundleDir) {
  auto cluster = InProcCluster::Start(1, 1, GetServeFixture().v1,
                                      FastRouterOptions());
  ASSERT_NE(cluster, nullptr);
  auto response = JsonValue::Parse(
      Rpc(cluster->router_port,
          "{\"cmd\": \"rollout\", \"bundle\": \"/nonexistent/bundle\"}"));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->BoolOr("ok", true));
  EXPECT_EQ(response->StringOr("phase", ""), "stage");
  // Nothing changed: the shard still serves v1.
  auto health = JsonValue::Parse(
      Rpc(cluster->shards[0][0]->port, "{\"cmd\":\"health\"}"));
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->StringOr("bundle_version", ""), "v1");
}

}  // namespace
}  // namespace cluster
}  // namespace domd
