// The router's event-loop path (DESIGN.md §12): points and scatter ids
// forward on the reactor shard that read them, over one pipelined
// connection per replica, and every hedge runs on that shard too: none
// waits for the worker pool. Replicas here are scripted: reactors whose
// handler answers, holds or is killed on cue, a raw peer that never
// answers, a peer that drops its first connection mid-call, a listener
// whose accept queue is full, and a closed port that refuses connections.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/router.h"
#include "serve/json.h"
#include "serve/reactor.h"
#include "serve/reactor_test_client.h"

namespace domd {
namespace cluster {
namespace {

using testing_internal::Rpc;
using testing_internal::TestClient;
using testing_internal::WaitFor;
using Clock = std::chrono::steady_clock;
using Ms = std::chrono::milliseconds;

/// A replica on a reactor: it answers each line with the line plus
/// `"replica": <name>`, except the lines `hold` picks, whose answers wait
/// for AnswerHeld (or never come, when the replica is killed).
class ScriptedReplica {
 public:
  explicit ScriptedReplica(std::string name) : name_(std::move(name)) {
    ReactorOptions options;
    options.num_shards = 1;
    auto reactor = Reactor::Create(
        options, [this](std::string line, Responder responder) {
          std::lock_guard<std::mutex> lock(mutex_);
          ++lines_;
          if (hold_ && hold_(line)) {
            held_.emplace_back(std::move(line), std::move(responder));
            return;
          }
          responder.Respond(AnswerTo(line));
        });
    EXPECT_TRUE(reactor.ok()) << reactor.status().ToString();
    if (!reactor.ok()) return;
    reactor_ = std::move(*reactor);
    port_ = reactor_->port();
  }

  Endpoint endpoint() const { return {"127.0.0.1", port_}; }
  void Hold(std::function<bool(const std::string&)> hold) {
    std::lock_guard<std::mutex> lock(mutex_);
    hold_ = std::move(hold);
  }
  int lines() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  std::size_t held() {
    std::lock_guard<std::mutex> lock(mutex_);
    return held_.size();
  }
  void AnswerHeld() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [line, responder] : held_) responder.Respond(AnswerTo(line));
    held_.clear();
  }
  /// Closes the listener and every connection; held lines go unanswered.
  void Kill() { reactor_.reset(); }

  std::string AnswerTo(const std::string& line) const {
    return line.substr(0, line.rfind('}')) + ", \"replica\": \"" + name_ +
           "\"}";
  }

 private:
  const std::string name_;
  int port_ = 0;
  std::mutex mutex_;
  std::function<bool(const std::string&)> hold_;
  int lines_ = 0;
  std::vector<std::pair<std::string, Responder>> held_;
  std::unique_ptr<Reactor> reactor_;  ///< last: stops before the rest goes.
};

/// A loopback listener on an ephemeral port, for the raw peers below.
int Listen(int backlog, int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  auto* raw = reinterpret_cast<sockaddr*>(&addr);
  EXPECT_EQ(::bind(fd, raw, sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, backlog), 0);
  EXPECT_EQ(::getsockname(fd, raw, &len), 0);
  *port = ntohs(addr.sin_port);
  return fd;
}

/// A raw peer that accepts, reads and never answers. It counts the
/// connections it accepted and those its client closed.
class SilentPeer {
 public:
  SilentPeer() {
    listener_ = Listen(16, &port_);
    thread_ = std::thread([this] { Run(); });
  }
  ~SilentPeer() {
    stop_.store(true);
    thread_.join();
    ::close(listener_);
  }

  Endpoint endpoint() const { return {"127.0.0.1", port_}; }
  int accepted() const { return accepted_.load(); }
  int closed() const { return closed_.load(); }

 private:
  void Run() {
    std::vector<int> fds;
    while (!stop_.load()) {
      std::vector<pollfd> polled{{listener_, POLLIN, 0}};
      for (const int fd : fds) polled.push_back({fd, POLLIN, 0});
      if (::poll(polled.data(), polled.size(), 20) <= 0) continue;
      if ((polled[0].revents & POLLIN) != 0) {
        const int fd = ::accept(listener_, nullptr, nullptr);
        if (fd >= 0) {
          fds.push_back(fd);
          accepted_.fetch_add(1);
        }
      }
      for (std::size_t i = 1; i < polled.size(); ++i) {
        if (polled[i].revents == 0) continue;
        char chunk[4096];
        if (::recv(polled[i].fd, chunk, sizeof(chunk), 0) > 0) continue;
        ::close(polled[i].fd);
        fds.erase(std::find(fds.begin(), fds.end(), polled[i].fd));
        closed_.fetch_add(1);
      }
    }
    for (const int fd : fds) ::close(fd);
  }

  int listener_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> accepted_{0};
  std::atomic<int> closed_{0};
  std::thread thread_;
};

/// A raw peer whose first connection answers one line and then closes
/// when the next line arrives, without answering it; every later
/// connection answers every line. Answers name the connection:
/// {"conn": K}.
class DroppingPeer {
 public:
  DroppingPeer() {
    listener_ = Listen(16, &port_);
    thread_ = std::thread([this] { Run(); });
  }
  ~DroppingPeer() {
    ::shutdown(listener_, SHUT_RDWR);  // wakes a pending accept.
    thread_.join();
    ::close(listener_);
  }

  Endpoint endpoint() const { return {"127.0.0.1", port_}; }
  int lines() const { return lines_.load(); }
  int connections() const { return connections_.load(); }

 private:
  void Run() {
    for (int k = 1;; ++k) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      connections_.fetch_add(1);
      std::string buffer;
      int answered = 0;
      char chunk[4096];
      ssize_t n = 0;
      while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t newline = 0;
        bool dropped = false;
        while ((newline = buffer.find('\n')) != std::string::npos) {
          buffer.erase(0, newline + 1);
          lines_.fetch_add(1);
          if (k == 1 && answered == 1) {
            dropped = true;
            break;
          }
          const std::string answer = "{\"conn\": " + std::to_string(k) + "}\n";
          ::send(fd, answer.data(), answer.size(), MSG_NOSIGNAL);
          ++answered;
        }
        if (dropped) break;
      }
      ::close(fd);
    }
  }

  int listener_ = -1;
  int port_ = 0;
  std::atomic<int> lines_{0};
  std::atomic<int> connections_{0};
  std::thread thread_;
};

/// A router over `shards` (each a list of replica endpoints) behind its
/// own one-shard reactor.
struct RouterUnderTest {
  std::unique_ptr<ClusterRouter> router;
  std::unique_ptr<Reactor> reactor;  ///< declared last: stops first.

  static std::unique_ptr<RouterUnderTest> Start(
      const std::vector<std::vector<Endpoint>>& shards,
      RouterOptions options) {
    std::vector<ShardSpec> specs;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      specs.push_back(ShardSpec{static_cast<int>(s), shards[s]});
    }
    auto host_map = HostMap::Create(std::move(specs));
    EXPECT_TRUE(host_map.ok()) << host_map.status().ToString();
    if (!host_map.ok()) return nullptr;
    auto out = std::make_unique<RouterUnderTest>();
    out->router =
        std::make_unique<ClusterRouter>(std::move(*host_map), options);
    ReactorOptions reactor_options;
    reactor_options.num_shards = 1;
    ClusterRouter* router = out->router.get();
    auto reactor = Reactor::Create(
        reactor_options, [router](std::string line, Responder responder) {
          router->Handle(std::move(line), std::move(responder));
        });
    EXPECT_TRUE(reactor.ok()) << reactor.status().ToString();
    if (!reactor.ok()) return nullptr;
    out->reactor = std::move(*reactor);
    return out;
  }

  int port() const { return reactor->port(); }

  /// An avail id the ring gives shard `shard_index`.
  std::int64_t AvailOwnedBy(std::size_t shard_index) const {
    for (std::int64_t id = 1;; ++id) {
      if (router->host_map().OwnerIndexOf(KeyForAvail(id)) == shard_index) {
        return id;
      }
    }
  }

  /// A detached request whose ship the ring gives shard `shard_index`.
  std::string DetachedOwnedBy(std::size_t shard_index) const {
    for (std::int64_t ship = 1;; ++ship) {
      if (router->host_map().OwnerIndexOf(KeyForShip(ship)) == shard_index) {
        return R"({"avail": {"ship_id": )" + std::to_string(ship) +
               R"(}, "rccs": []})";
      }
    }
  }
};

/// An endpoint that refuses connections: a loopback port nothing listens
/// on any more.
Endpoint RefusingEndpoint() {
  int port = 0;
  ::close(Listen(1, &port));
  return {"127.0.0.1", port};
}

RouterOptions LoopOptions() {
  RouterOptions options;
  options.workers = 2;
  options.hedge_deadline = Ms(200);
  options.upstream_deadline = Ms(5000);
  options.start_prober = false;
  return options;
}

std::string Point(std::int64_t avail_id) {
  return "{\"avail_id\": " + std::to_string(avail_id) + "}";
}

TEST(RouterEventLoopTest, SilentReplicaHedgesWithinTheHedgeDeadlineAndIsClosed) {
  SilentPeer silent;
  ScriptedReplica backup("backup");
  auto cluster = RouterUnderTest::Start(
      {{silent.endpoint(), backup.endpoint()}}, LoopOptions());
  ASSERT_NE(cluster, nullptr);

  const auto start = Clock::now();
  const std::string answer = Rpc(cluster->port(), Point(7));
  const auto waited = Clock::now() - start;
  EXPECT_EQ(answer, backup.AnswerTo(Point(7)));
  EXPECT_GE(waited, LoopOptions().hedge_deadline);
  EXPECT_LT(waited, LoopOptions().hedge_deadline + Ms(800));
  EXPECT_EQ(silent.accepted(), 1);
  // The timed-out connection is closed, not left to answer late.
  EXPECT_TRUE(WaitFor([&] { return silent.closed() == 1; }));
  EXPECT_FALSE(cluster->router->replica_states(0)[0].up);
  EXPECT_EQ(cluster->router->stats().hedged, 1u);
  EXPECT_EQ(backup.lines(), 1);
}

TEST(RouterEventLoopTest, KilledReplicaWithPipelinedPointsAnswersEachOnce) {
  auto primary = std::make_unique<ScriptedReplica>("primary");
  ScriptedReplica backup("backup");
  const Endpoint primary_endpoint = primary->endpoint();
  std::atomic<int> seen{0};
  primary->Hold([&](const std::string&) { return seen.fetch_add(1) >= 5; });
  auto cluster = RouterUnderTest::Start(
      {{primary_endpoint, backup.endpoint()}}, LoopOptions());
  ASSERT_NE(cluster, nullptr);

  // Twenty points pipelined on one client connection share the router
  // shard's one connection to the primary, which answers five and holds
  // the rest until it dies.
  constexpr int kPoints = 20;
  TestClient client = TestClient::Connect(cluster->port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 1; i <= kPoints; ++i) burst += Point(i) + "\n";
  ASSERT_TRUE(client.Send(burst));
  ASSERT_TRUE(WaitFor([&] { return primary->held() == kPoints - 5; }));
  primary->Kill();

  for (int i = 1; i <= kPoints; ++i) {
    const auto answer = client.ReadLine();
    ASSERT_TRUE(answer.has_value()) << "point " << i;
    EXPECT_EQ(*answer, (i <= 5 ? primary->AnswerTo(Point(i))
                               : backup.AnswerTo(Point(i))));
  }
  // Nothing more comes before the answer to the next request.
  ASSERT_TRUE(client.SendLine(R"({"cmd":"ping"})"));
  EXPECT_EQ(client.ReadLine(), R"({"ok":true,"role":"router","num_shards":1})");
  EXPECT_EQ(backup.lines(), kPoints - 5);
  const auto stats = cluster->router->stats();
  EXPECT_EQ(stats.routed, static_cast<std::uint64_t>(kPoints));
  EXPECT_EQ(stats.hedged, static_cast<std::uint64_t>(kPoints - 5));
  EXPECT_EQ(stats.failed, 0u);
}

TEST(RouterEventLoopTest, ReusedConnectionRedialsOnceBeforeBlame) {
  DroppingPeer primary;
  ScriptedReplica backup("backup");
  auto cluster = RouterUnderTest::Start(
      {{primary.endpoint(), backup.endpoint()}}, LoopOptions());
  ASSERT_NE(cluster, nullptr);

  TestClient client = TestClient::Connect(cluster->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(Point(1)));
  EXPECT_EQ(client.ReadLine(), R"({"conn": 1})");
  // The answered connection drops the next point unanswered: a stale
  // connection looks like a dead peer, so the point goes to the same
  // replica once more on a fresh dial before anyone is blamed.
  ASSERT_TRUE(client.SendLine(Point(2)));
  EXPECT_EQ(client.ReadLine(), R"({"conn": 2})");
  EXPECT_EQ(primary.connections(), 2);
  EXPECT_EQ(primary.lines(), 3);
  EXPECT_EQ(backup.lines(), 0);
  EXPECT_TRUE(cluster->router->replica_states(0)[0].up);
  EXPECT_EQ(cluster->router->stats().hedged, 0u);
}

TEST(RouterEventLoopTest, PointsStayPromptWhileADetachedRequestWaits) {
  ScriptedReplica replica("only");
  replica.Hold([](const std::string& line) {
    return line.find("\"avail\"") != std::string::npos;
  });
  RouterOptions options = LoopOptions();
  options.workers = 1;  // the detached request holds the only worker.
  auto cluster = RouterUnderTest::Start({{replica.endpoint()}}, options);
  ASSERT_NE(cluster, nullptr);

  const std::string detached = R"({"avail": {"ship_id": 3}, "rccs": []})";
  TestClient slow = TestClient::Connect(cluster->port());
  ASSERT_TRUE(slow.connected() && slow.SendLine(detached));
  ASSERT_TRUE(WaitFor([&] { return replica.held() == 1; }));

  TestClient fast = TestClient::Connect(cluster->port());
  ASSERT_TRUE(fast.connected());
  for (int i = 1; i <= 5; ++i) {
    const auto start = Clock::now();
    ASSERT_TRUE(fast.SendLine(Point(i)));
    EXPECT_EQ(fast.ReadLine(Ms(2000)), replica.AnswerTo(Point(i)));
    EXPECT_LT(Clock::now() - start, Ms(500)) << "point " << i;
  }
  EXPECT_EQ(replica.held(), 1u);
  replica.AnswerHeld();
  EXPECT_EQ(slow.ReadLine(), replica.AnswerTo(detached));
}

TEST(RouterEventLoopTest, StuckDialDoesNotStallOtherShards) {
  // A listener whose accept queue is full drops every new SYN, so a dial
  // to it neither completes nor fails until its deadline.
  int stuck_port = 0;
  const int stuck = Listen(0, &stuck_port);
  std::vector<int> fillers;
  const auto dial = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(stuck_port));
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
    pollfd pfd{fd, POLLOUT, 0};
    return ::poll(&pfd, 1, 200) == 1;
  };
  ASSERT_TRUE(dial());  // takes the queue's one place.
  const bool queue_full = !dial();
  const auto cleanup = [&] {
    for (const int fd : fillers) ::close(fd);
    ::close(stuck);
  };
  if (!queue_full) {
    cleanup();
    GTEST_SKIP() << "this kernel completes dials past a full accept queue";
  }

  ScriptedReplica healthy("healthy");
  RouterOptions options = LoopOptions();
  options.upstream_deadline = Ms(600);  // a lone replica gets all of it.
  auto cluster = RouterUnderTest::Start(
      {{{"127.0.0.1", stuck_port}}, {healthy.endpoint()}}, options);
  ASSERT_NE(cluster, nullptr);
  const std::int64_t stuck_id = cluster->AvailOwnedBy(0);
  const std::int64_t healthy_id = cluster->AvailOwnedBy(1);

  const auto start = Clock::now();
  TestClient waiting = TestClient::Connect(cluster->port());
  ASSERT_TRUE(waiting.connected() && waiting.SendLine(Point(stuck_id)));
  TestClient fast = TestClient::Connect(cluster->port());
  ASSERT_TRUE(fast.connected());
  for (int i = 0; i < 5; ++i) {
    const auto sent = Clock::now();
    ASSERT_TRUE(fast.SendLine(Point(healthy_id)));
    EXPECT_EQ(fast.ReadLine(Ms(2000)), healthy.AnswerTo(Point(healthy_id)));
    EXPECT_LT(Clock::now() - sent, Ms(300)) << "point " << i;
  }
  const auto answer = waiting.ReadLine(Ms(3000));
  ASSERT_TRUE(answer.has_value());
  auto parsed = JsonValue::Parse(*answer);
  ASSERT_TRUE(parsed.ok()) << *answer;
  EXPECT_EQ(parsed->StringOr("code", ""), "UNAVAILABLE") << *answer;
  EXPECT_NE(answer->find("timed out"), std::string::npos) << *answer;
  EXPECT_GE(Clock::now() - start, options.upstream_deadline);
  cleanup();
}

TEST(RouterEventLoopTest, CallsInFlightBeyondMaxQueueDepthShed) {
  ScriptedReplica replica("only");
  replica.Hold([](const std::string&) { return true; });
  RouterOptions options = LoopOptions();
  options.max_queue_depth = 2;
  auto cluster = RouterUnderTest::Start({{replica.endpoint()}}, options);
  ASSERT_NE(cluster, nullptr);

  TestClient held = TestClient::Connect(cluster->port());
  ASSERT_TRUE(held.connected());
  ASSERT_TRUE(held.Send(Point(1) + "\n" + Point(2) + "\n"));
  ASSERT_TRUE(WaitFor([&] { return replica.held() == 2; }));

  // A scatter counts as one request, and is shed like a point.
  EXPECT_EQ(Rpc(cluster->port(), Point(3)),
            R"({"ok":false,"code":"RESOURCE_EXHAUSTED",)"
            R"("error":"router worker queue full"})");
  EXPECT_EQ(Rpc(cluster->port(), R"({"avail_ids": [4, 5]})"),
            R"({"ok":false,"code":"RESOURCE_EXHAUSTED",)"
            R"("error":"router worker queue full"})");
  EXPECT_EQ(cluster->router->stats().rejected_overload, 2u);
  EXPECT_EQ(replica.lines(), 2);

  replica.Hold({});
  replica.AnswerHeld();
  EXPECT_EQ(held.ReadLine(), replica.AnswerTo(Point(1)));
  EXPECT_EQ(held.ReadLine(), replica.AnswerTo(Point(2)));
  // The places are free again.
  EXPECT_EQ(Rpc(cluster->port(), Point(6)), replica.AnswerTo(Point(6)));
  EXPECT_EQ(cluster->router->stats().rejected_overload, 2u);
}

TEST(RouterEventLoopTest, HedgeRunsOnTheEventLoopWhileTheWorkerIsBusy) {
  ScriptedReplica backup("backup");
  ScriptedReplica holder("holder");
  holder.Hold([](const std::string&) { return true; });
  RouterOptions options = LoopOptions();
  options.workers = 1;
  auto cluster = RouterUnderTest::Start(
      {{RefusingEndpoint(), backup.endpoint()}, {holder.endpoint()}}, options);
  ASSERT_NE(cluster, nullptr);

  // A detached request another shard owns holds the only worker.
  const std::string detached = cluster->DetachedOwnedBy(1);
  TestClient slow = TestClient::Connect(cluster->port());
  ASSERT_TRUE(slow.connected() && slow.SendLine(detached));
  ASSERT_TRUE(WaitFor([&] { return holder.held() == 1; }));

  // The point's first replica refuses; the second answers it from the
  // router shard that read it, though no worker is free.
  const std::string point = Point(cluster->AvailOwnedBy(0));
  const auto start = Clock::now();
  TestClient fast = TestClient::Connect(cluster->port());
  ASSERT_TRUE(fast.connected() && fast.SendLine(point));
  EXPECT_EQ(fast.ReadLine(Ms(1000)), backup.AnswerTo(point));
  EXPECT_LT(Clock::now() - start, Ms(1000));
  EXPECT_EQ(backup.lines(), 1);
  EXPECT_FALSE(cluster->router->replica_states(0)[0].up);
  EXPECT_EQ(cluster->router->stats().hedged, 1u);

  holder.AnswerHeld();
  EXPECT_EQ(slow.ReadLine(), holder.AnswerTo(detached));
}

TEST(RouterEventLoopTest, HedgeIsNotShedWhenTheWorkerQueueIsFull) {
  ScriptedReplica backup("backup");
  ScriptedReplica holder("holder");
  holder.Hold([](const std::string&) { return true; });
  RouterOptions options = LoopOptions();
  options.workers = 1;
  options.max_queue_depth = 1;
  auto cluster = RouterUnderTest::Start(
      {{RefusingEndpoint(), backup.endpoint()}, {holder.endpoint()}}, options);
  ASSERT_NE(cluster, nullptr);

  // One detached request holds the only worker. Of the next two, one
  // waits in the queue and the other finds it full.
  const std::string detached = cluster->DetachedOwnedBy(1);
  TestClient running = TestClient::Connect(cluster->port());
  ASSERT_TRUE(running.connected() && running.SendLine(detached));
  ASSERT_TRUE(WaitFor([&] { return holder.held() == 1; }));
  TestClient second = TestClient::Connect(cluster->port());
  TestClient third = TestClient::Connect(cluster->port());
  ASSERT_TRUE(second.connected() && second.SendLine(detached));
  ASSERT_TRUE(third.connected() && third.SendLine(detached));
  ASSERT_TRUE(WaitFor(
      [&] { return cluster->router->stats().rejected_overload == 1; }));

  // The point takes the one in-flight place; its hedge needs no room in
  // the worker queue.
  const std::string point = Point(cluster->AvailOwnedBy(0));
  EXPECT_EQ(Rpc(cluster->port(), point), backup.AnswerTo(point));
  EXPECT_EQ(backup.lines(), 1);
  const auto stats = cluster->router->stats();
  EXPECT_EQ(stats.hedged, 1u);
  EXPECT_EQ(stats.rejected_overload, 1u);

  holder.Hold({});
  holder.AnswerHeld();
  EXPECT_EQ(running.ReadLine(), holder.AnswerTo(detached));
  const auto answered = [&](TestClient& client) {
    const auto answer = client.ReadLine();
    return answer.has_value() && *answer == holder.AnswerTo(detached);
  };
  // Of those two, one ran and the other was shed.
  EXPECT_NE(answered(second), answered(third));
}

TEST(RouterEventLoopTest, HedgePipelinedBehindATimedOutCallFailsWithIt) {
  // Replica "shared" serves both shards, so shard 1's first attempts and
  // shard 0's hedges share the router shard's one connection to it: the
  // pipelining a hedge meets whenever the preference orders differ.
  ScriptedReplica shared("shared");
  ScriptedReplica spare("spare");
  RouterOptions options = LoopOptions();
  options.hedge_deadline = Ms(1000);
  auto cluster = RouterUnderTest::Start(
      {{RefusingEndpoint(), shared.endpoint()},
       {shared.endpoint(), spare.endpoint()}},
      options);
  ASSERT_NE(cluster, nullptr);
  const std::string stalled = Point(cluster->AvailOwnedBy(1));
  const std::string hedged = Point(cluster->AvailOwnedBy(0));
  shared.Hold([&](const std::string& line) { return line == stalled; });

  TestClient first = TestClient::Connect(cluster->port());
  ASSERT_TRUE(first.connected() && first.SendLine(stalled));
  ASSERT_TRUE(WaitFor([&] { return shared.held() == 1; }));
  // The replica reads the hedge at once, but answers in order, so the
  // hedge's answer waits behind the stalled one.
  TestClient second = TestClient::Connect(cluster->port());
  ASSERT_TRUE(second.connected() && second.SendLine(hedged));
  ASSERT_TRUE(WaitFor([&] { return shared.lines() == 2; }));

  // The stalled call times out and closes the connection, failing the
  // hedge on it: the hedge was its point's last replica.
  EXPECT_EQ(second.ReadLine(Ms(3000)),
            R"({"ok":false,"code":"UNAVAILABLE",)"
            R"("error":"upstream read timed out"})");
  EXPECT_EQ(first.ReadLine(Ms(3000)), spare.AnswerTo(stalled));
  // Neither call went out to the stalled replica twice.
  EXPECT_EQ(shared.lines(), 2);
  EXPECT_EQ(spare.lines(), 1);
  const auto stats = cluster->router->stats();
  EXPECT_EQ(stats.hedged, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

}  // namespace
}  // namespace cluster
}  // namespace domd
