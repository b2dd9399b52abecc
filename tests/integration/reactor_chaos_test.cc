// Chaos suite for the epoll reactor front-end: the serve.reactor.* fault
// points (accept/read/write) must degrade per-connection — one injected
// failure closes one socket and never takes down a shard or the process —
// while the PR 5 serving semantics survive the front-end rewrite
// unchanged: breaker open/half-open shedding, bounded-queue backpressure,
// failed hot-swaps keeping the last-known-good bundle, and predictions
// bit-identical to direct PredictionService calls (the NDJSON codec
// round-trips doubles exactly, so equality is exact, not approximate).

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "fault/fault.h"
#include "ingest/data_store.h"
#include "serve/frontend.h"
#include "serve/reactor.h"
#include "serve/reactor_test_client.h"
#include "serve/serve_test_fixture.h"
#include "serve/wire.h"

#if DOMD_FAULT_COMPILED
#define DOMD_SKIP_WITHOUT_FAULTS() (void)0
#else
#define DOMD_SKIP_WITHOUT_FAULTS() \
  GTEST_SKIP() << "fault injection compiled out (DOMD_DISABLE_FAULTS)"
#endif

namespace domd {
namespace {

using fault::FaultRegistry;
using fault::ScopedFaultInjection;
using testing_internal::GetServeFixture;
using testing_internal::TestClient;
using testing_internal::WaitFor;

// The same self-contained detached request the smoke script sends: passes
// the integrity gate and flows through the admission queue + micro-batcher
// (unlike avail_id requests, which score inline against the bundle).
constexpr const char* kDetachedRequest =
    "{\"avail\": {\"id\": 1, \"ship_id\": 5, \"status\": \"ongoing\", "
    "\"planned_start\": \"2024-01-01\", \"planned_end\": \"2024-12-01\", "
    "\"actual_start\": \"2024-01-10\", \"ship_class\": 2, \"rmc_id\": 1, "
    "\"ship_age_years\": 17.5, \"avail_type\": 0, \"homeport\": 2, "
    "\"prior_avail_count\": 3, \"contract_value_musd\": 30.0, "
    "\"crew_size\": 250}, \"rccs\": [{\"type\": \"G\", \"swlin\": "
    "\"434-11-001\", \"creation_date\": \"2024-02-01\", \"settled_date\": "
    "\"2024-03-15\", \"settled_amount\": 150000.0}, {\"type\": \"N\", "
    "\"swlin\": \"234-01-002\", \"creation_date\": \"2024-03-01\", "
    "\"settled_amount\": 0}], \"t_star\": 50.0, \"top_k\": 3}";

/// A full in-process serving stack on a loopback port: PredictionService +
/// ServeFrontend + single-shard Reactor (one shard makes "the shard
/// survives" assertions unambiguous).
struct WireServer {
  explicit WireServer(std::shared_ptr<const ModelBundle> bundle,
                      ServeOptions serve_options = {},
                      FrontendOptions frontend_options = {})
      : service(std::move(bundle), serve_options) {
    frontend_options.load_retry.max_attempts = 2;
    frontend_options.load_retry.initial_backoff =
        std::chrono::milliseconds(1);
    frontend =
        std::make_unique<ServeFrontend>(&service, frontend_options);
    ReactorOptions reactor_options;
    reactor_options.num_shards = 1;
    auto created = Reactor::Create(
        reactor_options, [this](std::string line, Responder responder) {
          frontend->Handle(std::move(line), std::move(responder));
        });
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    reactor = std::move(*created);
  }

  int port() const { return reactor->port(); }

  PredictionService service;
  std::unique_ptr<ServeFrontend> frontend;
  std::unique_ptr<Reactor> reactor;  ///< last member: torn down first.
};

/// One request/response exchange; fails the test (and returns null) on any
/// wire or parse error.
JsonValue Rpc(TestClient& client, const std::string& line) {
  if (!client.SendLine(line)) {
    ADD_FAILURE() << "send failed for: " << line;
    return JsonValue();
  }
  const auto response = client.ReadLine();
  if (!response.has_value()) {
    ADD_FAILURE() << "no response for: " << line;
    return JsonValue();
  }
  auto parsed = JsonValue::Parse(*response);
  if (!parsed.ok()) {
    ADD_FAILURE() << "unparseable response: " << *response;
    return JsonValue();
  }
  return std::move(*parsed);
}

std::string CopyBundleDir(const std::string& source, const std::string& tag) {
  const std::string dest = ::testing::TempDir() + "/domd_rchaos_" + tag;
  std::filesystem::remove_all(dest);
  std::filesystem::copy(source, dest,
                        std::filesystem::copy_options::recursive);
  return dest;
}

void FlipOneByte(const std::string& path, std::size_t offset = 100) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), offset);
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ReactorChaosTest, WirePredictionsBitIdenticalToDirectServiceCalls) {
  const auto& fixture = GetServeFixture();
  WireServer server(fixture.v1);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());

  // Reference-fleet scoring: wire response vs direct bundle call. The
  // comparison is EXACT double equality — the wire codec's shortest
  // round-trip formatting guarantees parse(serialize(x)) == x bit for bit.
  std::size_t compared = 0;
  for (const Avail& avail : fixture.v1->data().avails.rows()) {
    if (compared++ == 5) break;
    const auto direct = fixture.v1->ScoreReferenceAvail(avail.id, 100.0, 3);
    const JsonValue wire =
        Rpc(client, "{\"avail_id\": " + std::to_string(avail.id) +
                        ", \"t_star\": 100, \"top_k\": 3}");
    if (!direct.ok()) {
      EXPECT_FALSE(wire.BoolOr("ok", true));
      continue;
    }
    ASSERT_TRUE(wire.BoolOr("ok", false));
    EXPECT_EQ(wire.NumberOr("avail_id", -1),
              static_cast<double>(direct->avail_id));
    EXPECT_EQ(wire.NumberOr("estimate_days", -1), direct->estimate_days);
    EXPECT_EQ(wire.NumberOr("band_low", -1), direct->band_low);
    EXPECT_EQ(wire.NumberOr("band_high", -1), direct->band_high);
  }

  // Detached scoring through the queue + batcher: same contract.
  auto parsed_request = JsonValue::Parse(kDetachedRequest);
  ASSERT_TRUE(parsed_request.ok());
  auto score = ParseScoreRequest(*parsed_request);
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  const auto direct = server.service.Predict(std::move(*score));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const JsonValue wire = Rpc(client, kDetachedRequest);
  ASSERT_TRUE(wire.BoolOr("ok", false));
  EXPECT_EQ(wire.NumberOr("estimate_days", -1), direct->estimate_days);
  EXPECT_EQ(wire.NumberOr("band_low", -1), direct->band_low);
  EXPECT_EQ(wire.NumberOr("band_high", -1), direct->band_high);
  EXPECT_EQ(wire.StringOr("bundle_version", ""), direct->bundle_version);

  // The shard's error and control answers, byte for byte. Without a
  // store, `ingest` is not a verb at all.
  const std::string invalid = R"({"ok":false,"code":"INVALID_ARGUMENT",)";
  for (const auto& [request, answer] :
       std::vector<std::pair<std::string, std::string>>{
           {"not json", invalid + R"("error":"json: bad token"})"},
           {R"({"cmd":"nope"})",
            invalid + R"("error":"unknown cmd \"nope\""})"},
           {R"({"cmd":"ingest"})",
            invalid + R"("error":"unknown cmd \"ingest\""})"},
           {R"({"cmd":"ping"})", R"({"ok":true,"bundle_version":"v1"})"},
           {R"({"cmd":"shutdown"})", R"({"ok":true,"shutting_down":true})"},
       }) {
    EXPECT_EQ(testing_internal::Rpc(server.port(), request), answer)
        << request;
  }
}

// A point's integers are range-checked before the cast: an avail_id or
// top_k outside its type (1e300, -1e19), a fraction (7.5, 2.5) or a
// negative top_k answers INVALID_ARGUMENT instead of a wrapped id, a
// truncated one, or SIZE_MAX drivers. An integral double is an integer.
TEST(ReactorChaosTest, PointRequestsRejectNonIntegralOrOutOfRangeIntegers) {
  const auto& fixture = GetServeFixture();
  WireServer server(fixture.v1);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());
  const std::string id =
      std::to_string(fixture.v1->data().avails.rows().front().id);

  for (const std::string& bad :
       {std::string(R"({"avail_id": 1e300})"),
        std::string(R"({"avail_id": -1e19})"),
        "{\"avail_id\": " + id + ".5}",
        "{\"avail_id\": " + id + ", \"top_k\": -1}",
        "{\"avail_id\": " + id + ", \"top_k\": 2.5}",
        "{\"avail_id\": " + id + ", \"top_k\": 1e300}"}) {
    const JsonValue response = Rpc(client, bad);
    EXPECT_FALSE(response.BoolOr("ok", true)) << bad;
    EXPECT_EQ(response.StringOr("code", ""), "INVALID_ARGUMENT") << bad;
  }

  // Control: integral doubles answer the integer form's bytes, all but the
  // per-request latency.
  const auto answer = [&](const std::string& line) {
    const JsonValue response = Rpc(client, line);
    EXPECT_TRUE(response.BoolOr("ok", false)) << line;
    JsonValue stripped = JsonValue::Object();
    for (const auto& [key, value] : response.members()) {
      if (key != "latency_ms") stripped.Set(key, value);
    }
    return stripped.Serialize();
  };
  EXPECT_EQ(answer("{\"avail_id\": " + id + ".0, \"top_k\": 3.0}"),
            answer("{\"avail_id\": " + id + ", \"top_k\": 3}"));
}

// A detached request's deadline becomes a microsecond clock offset: a
// "deadline_ms" beyond one day (1e300 overflowed the cast) answers
// INVALID_ARGUMENT, and a sane one still scores.
TEST(ReactorChaosTest, DetachedRequestRejectsOutOfRangeDeadline) {
  const auto& fixture = GetServeFixture();
  WireServer server(fixture.v1);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());
  std::string body = kDetachedRequest;
  body.pop_back();  // reopen the object to append a member.

  for (const char* deadline : {"1e300", "1e17", "86400001"}) {
    const JsonValue response =
        Rpc(client, body + ", \"deadline_ms\": " + deadline + "}");
    EXPECT_FALSE(response.BoolOr("ok", true)) << deadline;
    EXPECT_EQ(response.StringOr("code", ""), "INVALID_ARGUMENT") << deadline;
  }
  const JsonValue scored =
      Rpc(client, body + ", \"deadline_ms\": 60000}");
  EXPECT_TRUE(scored.BoolOr("ok", false)) << scored.Serialize();
}

TEST(ReactorChaosTest, InjectedAcceptFaultDegradesThatConnectionOnly) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  WireServer server(fixture.v1);

  ScopedFaultInjection faults("serve.reactor.accept=fail-first:1");
  // The faulted accept closes the brand-new socket before it reaches a
  // shard: the client sees a connect that immediately EOFs.
  TestClient victim = TestClient::Connect(server.port());
  ASSERT_TRUE(victim.connected());
  EXPECT_TRUE(victim.AtEof());
  EXPECT_TRUE(
      WaitFor([&] { return server.reactor->stats().accept_faults == 1; }));

  // The acceptor survived: the next connection serves normally.
  TestClient survivor = TestClient::Connect(server.port());
  ASSERT_TRUE(survivor.connected());
  const JsonValue pong = Rpc(survivor, "{\"cmd\": \"ping\"}");
  EXPECT_TRUE(pong.BoolOr("ok", false));
  EXPECT_EQ(pong.StringOr("bundle_version", ""), "v1");
}

TEST(ReactorChaosTest, InjectedReadFaultClosesOneConnectionNotTheShard) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  WireServer server(fixture.v1);

  // A healthy bystander on the SAME (single) shard, admitted before the
  // fault is armed and idle while it is live.
  TestClient bystander = TestClient::Connect(server.port());
  ASSERT_TRUE(bystander.connected());
  ASSERT_TRUE(
      WaitFor([&] { return server.reactor->stats().open_connections == 1; }));

  {
    ScopedFaultInjection faults("serve.reactor.read=fail-first:1");
    TestClient victim = TestClient::Connect(server.port());
    ASSERT_TRUE(victim.connected());
    ASSERT_TRUE(victim.SendLine("{\"cmd\": \"ping\"}"));
    // The injected recv failure closes the victim without a response.
    EXPECT_TRUE(victim.AtEof());
    EXPECT_TRUE(
        WaitFor([&] { return server.reactor->stats().read_errors >= 1; }));
  }

  // The shard survived: the bystander still serves on the same loop.
  const JsonValue pong = Rpc(bystander, "{\"cmd\": \"ping\"}");
  EXPECT_TRUE(pong.BoolOr("ok", false));
  EXPECT_EQ(server.reactor->stats().open_connections, 1u);
}

TEST(ReactorChaosTest, InjectedWriteFaultClosesOneConnectionNotTheShard) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  WireServer server(fixture.v1);

  TestClient bystander = TestClient::Connect(server.port());
  ASSERT_TRUE(bystander.connected());
  ASSERT_TRUE(
      WaitFor([&] { return server.reactor->stats().open_connections == 1; }));

  {
    ScopedFaultInjection faults("serve.reactor.write=fail-first:1");
    TestClient victim = TestClient::Connect(server.port());
    ASSERT_TRUE(victim.connected());
    ASSERT_TRUE(victim.SendLine("{\"cmd\": \"ping\"}"));
    // The request is handled, but writing the response faults: the
    // connection closes cleanly instead of delivering a torn line.
    EXPECT_TRUE(victim.AtEof());
    EXPECT_TRUE(
        WaitFor([&] { return server.reactor->stats().write_errors >= 1; }));
  }

  const JsonValue pong = Rpc(bystander, "{\"cmd\": \"ping\"}");
  EXPECT_TRUE(pong.BoolOr("ok", false));
  EXPECT_TRUE(WaitFor([&] {
    const auto stats = server.reactor->stats();
    return stats.open_connections == 1 && stats.buffered_bytes == 0;
  }));
}

TEST(ReactorChaosTest, BreakerShedsAndRecoversOverTheWire) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  ServeOptions options;
  options.max_batch_size = 1;
  options.batch_linger = std::chrono::microseconds(0);
  options.breaker_failure_threshold = 2;
  options.breaker_open_duration = std::chrono::milliseconds(100);
  WireServer server(fixture.v1, options);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());

  ScopedFaultInjection faults("serve.batch.score=fail-first:2");

  // Two consecutive whole-batch failures trip the breaker — identical to
  // the direct-service semantics asserted in chaos_test.cc, now observed
  // through the wire.
  EXPECT_EQ(Rpc(client, kDetachedRequest).StringOr("code", ""), "IO_ERROR");
  EXPECT_EQ(Rpc(client, kDetachedRequest).StringOr("code", ""), "IO_ERROR");
  EXPECT_EQ(server.service.breaker_state(), BreakerState::kOpen);

  // Open: sheds with UNAVAILABLE, and the health verb reports not-ready
  // while staying responsive.
  EXPECT_EQ(Rpc(client, kDetachedRequest).StringOr("code", ""),
            "UNAVAILABLE");
  const JsonValue health = Rpc(client, "{\"cmd\": \"health\"}");
  EXPECT_TRUE(health.BoolOr("ok", false));
  EXPECT_FALSE(health.BoolOr("ready", true));
  EXPECT_EQ(health.StringOr("breaker_state", ""), "open");

  // After the open interval, the half-open probe scores (the fault burst
  // is exhausted) and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(Rpc(client, kDetachedRequest).BoolOr("ok", false));
  EXPECT_EQ(server.service.breaker_state(), BreakerState::kClosed);

  const JsonValue stats = Rpc(client, "{\"cmd\": \"stats\"}");
  EXPECT_EQ(stats.StringOr("breaker_state", ""), "closed");
  const JsonValue* counters = stats.Find("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("batch_failures", -1), 2.0);
  EXPECT_EQ(counters->NumberOr("breaker_opens", -1), 1.0);
  EXPECT_GE(counters->NumberOr("rejected_breaker", -1), 1.0);
}

TEST(ReactorChaosTest, OverloadShedsWithResourceExhaustedInOrder) {
  const auto& fixture = GetServeFixture();
  ServeOptions options;
  options.max_queue_depth = 1;
  options.max_batch_size = 1;
  options.batch_linger = std::chrono::microseconds(0);
  WireServer server(fixture.v1, options);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());

  // Pipeline a burst far deeper than the queue: every request is answered,
  // in request order, each either scored or shed with RESOURCE_EXHAUSTED —
  // never dropped, never reordered.
  constexpr int kBurst = 24;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += std::string(kDetachedRequest) + "\n";
  ASSERT_TRUE(client.Send(burst));

  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto response = client.ReadLine();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    auto parsed = JsonValue::Parse(*response);
    ASSERT_TRUE(parsed.ok());
    if (parsed->BoolOr("ok", false)) {
      ++ok;
    } else {
      EXPECT_EQ(parsed->StringOr("code", ""), "RESOURCE_EXHAUSTED");
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);  // queue depth 1 cannot absorb a 24-deep burst.
  EXPECT_GE(server.service.stats().rejected_overload, 1u);
}

TEST(ReactorChaosTest, FailedSwapOverTheWireKeepsLastKnownGood) {
  const auto& fixture = GetServeFixture();
  WireServer server(fixture.v1);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());

  const std::int64_t probe_id = fixture.v1->data().avails.rows()[0].id;
  const std::string probe = "{\"avail_id\": " + std::to_string(probe_id) +
                            ", \"t_star\": 100, \"top_k\": 3}";
  const JsonValue before = Rpc(client, probe);
  ASSERT_TRUE(before.BoolOr("ok", false));
  EXPECT_EQ(before.StringOr("bundle_version", ""), "v1");

  // A corrupt replacement: the swap fails closed, the last-known-good
  // bundle keeps serving bit-identical answers.
  const std::string corrupt_dir = CopyBundleDir(fixture.dir_v2, "bad_swap");
  FlipOneByte(corrupt_dir + "/models.txt");
  const JsonValue failed = Rpc(
      client, "{\"cmd\": \"swap\", \"bundle\": \"" + corrupt_dir + "\"}");
  EXPECT_FALSE(failed.BoolOr("ok", true));
  EXPECT_EQ(failed.StringOr("code", ""), "DATA_LOSS");
  EXPECT_EQ(failed.StringOr("bundle_version", ""), "v1");

  const JsonValue after = Rpc(client, probe);
  ASSERT_TRUE(after.BoolOr("ok", false));
  EXPECT_EQ(after.StringOr("bundle_version", ""), "v1");
  EXPECT_EQ(after.NumberOr("estimate_days", -1),
            before.NumberOr("estimate_days", -2));
  EXPECT_EQ(after.NumberOr("band_low", -1), before.NumberOr("band_low", -2));
  EXPECT_EQ(after.NumberOr("band_high", -1),
            before.NumberOr("band_high", -2));
  EXPECT_EQ(server.service.stats().swap_failures, 1u);

  // A healthy artifact still swaps; degradation is per-failure.
  const JsonValue swapped =
      Rpc(client, "{\"cmd\": \"swap\", \"bundle\": \"" + fixture.dir_v2 +
                      "\"}");
  EXPECT_TRUE(swapped.BoolOr("ok", false));
  EXPECT_EQ(swapped.StringOr("bundle_version", ""), "v2");
  EXPECT_EQ(Rpc(client, probe).StringOr("bundle_version", ""), "v2");
}

TEST(ReactorChaosTest, InjectedSwapFaultIsCountedAndNonFatal) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  WireServer server(fixture.v1);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());

  ScopedFaultInjection faults("serve.swap=fail-first:1");
  const JsonValue failed = Rpc(
      client, "{\"cmd\": \"swap\", \"bundle\": \"" + fixture.dir_v2 + "\"}");
  EXPECT_FALSE(failed.BoolOr("ok", true));
  EXPECT_EQ(failed.StringOr("bundle_version", ""), "v1");
  EXPECT_EQ(server.service.stats().swap_failures, 1u);

  const JsonValue swapped = Rpc(
      client, "{\"cmd\": \"swap\", \"bundle\": \"" + fixture.dir_v2 + "\"}");
  EXPECT_TRUE(swapped.BoolOr("ok", false));
  EXPECT_EQ(swapped.StringOr("bundle_version", ""), "v2");
}

TEST(ReactorIngestTest, RetrainRejectsMultiComponentVersionAndFreshnessAnswers) {
  // The ingestion verb trio over a live socket: `retrain` must reject a
  // client-supplied version that names anything but a single path
  // component (a "../.." value would write and load a bundle outside the
  // retrain root), and `freshness` — a worker verb now, since Snapshot()
  // on a dirty store is O(dataset) — still answers the staleness probe.
  const auto& fixture = GetServeFixture();
  auto store = DataStore::Open(fixture.v1->data());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  FrontendOptions frontend_options;
  frontend_options.store = store->get();
  frontend_options.retrain_root =
      ::testing::TempDir() + "/domd_rchaos_retrain_root";
  WireServer server(fixture.v1, {}, frontend_options);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());

  for (const char* version : {"../outside", "a/b", "..", ".", ""}) {
    const JsonValue rejected = Rpc(
        client, std::string("{\"cmd\": \"retrain\", \"version\": \"") +
                    version + "\"}");
    EXPECT_FALSE(rejected.BoolOr("ok", true)) << version;
    EXPECT_EQ(rejected.StringOr("code", ""), "INVALID_ARGUMENT") << version;
  }
  EXPECT_FALSE(std::filesystem::exists(::testing::TempDir() + "/outside"));

  // The store's base is the bundle's reference fleet: epochs agree.
  const JsonValue fresh = Rpc(client, "{\"cmd\": \"freshness\"}");
  ASSERT_TRUE(fresh.BoolOr("ok", false));
  EXPECT_FALSE(fresh.BoolOr("stale", true));
  EXPECT_EQ(fresh.StringOr("bundle_epoch", "b"),
            fresh.StringOr("store_epoch", "s"));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// `adopt` publishes a shard peer's retrained models only at the epoch they
// were trained on: a bad version or non-string models answer
// INVALID_ARGUMENT, another epoch FAILED_PRECONDITION and a checksum
// mismatch DATA_LOSS, each leaving the live bundle serving. The right
// epoch and checksum publish exactly the shipped bytes.
TEST(ReactorIngestTest, AdoptChecksVersionModelsEpochAndChecksum) {
  const auto& fixture = GetServeFixture();
  auto store = DataStore::Open(fixture.v1->data());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const std::string root = ::testing::TempDir() + "/domd_rchaos_adopt." +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  FrontendOptions frontend_options;
  frontend_options.store = store->get();
  frontend_options.retrain_root = root;
  WireServer server(fixture.v1, {}, frontend_options);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());

  // Shipped models are the exact models.txt bytes the trainer wrote.
  const JsonValue trained = Rpc(
      client, R"({"cmd": "retrain", "version": "t1", "ship_models": true})");
  ASSERT_TRUE(trained.BoolOr("ok", false)) << trained.Serialize();
  const std::string models = trained.StringOr("models", "");
  const std::string checksum = trained.StringOr("models_checksum", "");
  const std::string epoch = trained.StringOr("bundle_epoch", "");
  ASSERT_FALSE(models.empty());
  EXPECT_EQ(models, ReadFile(root + "/t1/models.txt"));
  // A plain retrain ships nothing.
  const JsonValue plain =
      Rpc(client, R"({"cmd": "retrain", "version": "t2"})");
  ASSERT_TRUE(plain.BoolOr("ok", false));
  EXPECT_EQ(plain.Find("models"), nullptr);
  EXPECT_EQ(plain.Find("models_checksum"), nullptr);

  const auto adopt = [&](const std::string& version, JsonValue shipped,
                         const std::string& at_epoch,
                         const std::string& sum) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::String("adopt"));
    request.Set("version", JsonValue::String(version));
    request.Set("bundle_epoch", JsonValue::String(at_epoch));
    request.Set("models", std::move(shipped));
    request.Set("models_checksum", JsonValue::String(sum));
    return Rpc(client, request.Serialize());
  };
  const JsonValue text = JsonValue::String(models);
  const struct {
    JsonValue response;
    const char* code;
  } refusals[] = {
      {adopt("../outside", text, epoch, checksum), "INVALID_ARGUMENT"},
      {adopt("", text, epoch, checksum), "INVALID_ARGUMENT"},
      {adopt("a0", JsonValue::Number(7), epoch, checksum),
       "INVALID_ARGUMENT"},
      {adopt("a0", text, "0000000000000000", checksum),
       "FAILED_PRECONDITION"},
      {adopt("a0", text, epoch, "0000000000000000"), "DATA_LOSS"},
  };
  for (const auto& refusal : refusals) {
    EXPECT_FALSE(refusal.response.BoolOr("ok", true));
    EXPECT_EQ(refusal.response.StringOr("code", ""), refusal.code)
        << refusal.response.Serialize();
  }
  EXPECT_FALSE(std::filesystem::exists(root + "/a0"));
  EXPECT_EQ(Rpc(client, R"({"cmd": "ping"})").StringOr("bundle_version", ""),
            "t2");

  const JsonValue adopted = adopt("a1", text, epoch, checksum);
  ASSERT_TRUE(adopted.BoolOr("ok", false)) << adopted.Serialize();
  EXPECT_EQ(adopted.StringOr("bundle_version", ""), "a1");
  EXPECT_EQ(adopted.StringOr("bundle_epoch", ""), epoch);
  for (const char* name : {"models.txt", "avails.csv", "rccs.csv"}) {
    EXPECT_EQ(ReadFile(root + "/a1/" + name), ReadFile(root + "/t1/" + name))
        << name;
  }
  EXPECT_EQ(Rpc(client, R"({"cmd": "ping"})").StringOr("bundle_version", ""),
            "a1");
  std::filesystem::remove_all(root);
}

// A retrain over a store holding a value with more than six significant
// digits publishes a bundle whose tables are that store's, bit for bit:
// the loaded bundle's epoch is the one the retrain reports, and freshness
// answers fresh right after.
TEST(ReactorIngestTest, RetrainedBundleHoldsTheStoreExactly) {
  const auto& fixture = GetServeFixture();
  auto store = DataStore::Open(fixture.v1->data());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Rcc amended = fixture.v1->data().rccs.rows().front();
  amended.settled_amount = 12345.678901;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(amended)).ok());
  const std::string root = ::testing::TempDir() + "/domd_rchaos_exact." +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  FrontendOptions frontend_options;
  frontend_options.store = store->get();
  frontend_options.retrain_root = root;
  WireServer server(fixture.v1, {}, frontend_options);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());

  const JsonValue retrained =
      Rpc(client, R"({"cmd": "retrain", "version": "x1"})");
  ASSERT_TRUE(retrained.BoolOr("ok", false)) << retrained.Serialize();
  const std::string epoch = retrained.StringOr("bundle_epoch", "");
  EXPECT_EQ(epoch, Hex64((*store)->epoch()));
  const auto bundle = server.service.bundle();
  EXPECT_EQ(bundle->version(), "x1");
  EXPECT_EQ(Hex64(bundle->data_epoch()), epoch);
  const auto rcc = bundle->data().rccs.Find(amended.id);
  ASSERT_TRUE(rcc.ok()) << rcc.status().ToString();
  EXPECT_EQ((*rcc)->settled_amount, 12345.678901);

  const JsonValue fresh = Rpc(client, R"({"cmd": "freshness"})");
  ASSERT_TRUE(fresh.BoolOr("ok", false)) << fresh.Serialize();
  EXPECT_FALSE(fresh.BoolOr("stale", true)) << fresh.Serialize();
  EXPECT_EQ(fresh.StringOr("bundle_epoch", ""), epoch);
  std::filesystem::remove_all(root);
}

TEST(ReactorChaosTest, ArmedButDisabledReactorFaultsChangeNothing) {
  const auto& fixture = GetServeFixture();
  ASSERT_TRUE(FaultRegistry::Default()
                  .ApplySpec("serve.reactor.accept=fail-first:1000000,"
                             "serve.reactor.read=fail-first:1000000,"
                             "serve.reactor.write=fail-first:1000000")
                  .ok());
  ASSERT_FALSE(fault::Enabled());

  WireServer server(fixture.v1);
  TestClient client = TestClient::Connect(server.port());
  ASSERT_TRUE(client.connected());
  const JsonValue pong = Rpc(client, "{\"cmd\": \"ping\"}");
  EXPECT_TRUE(pong.BoolOr("ok", false));
  EXPECT_EQ(FaultRegistry::Default().TotalInjected(), 0u);
  FaultRegistry::Default().Clear();
}

}  // namespace
}  // namespace domd
