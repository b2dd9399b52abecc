// The one socket client: UpstreamConn's deadline-bounded waits and line
// framing, the pool's retry-once rule, and where the cluster.route.* fault
// sites fire. Peers are real reactors on a loopback port with a scripted
// handler, or a raw socket that splits the byte stream where a test says.

#include "cluster/upstream.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/router.h"
#include "fault/fault.h"
#include "serve/reactor_test_client.h"

namespace domd {
namespace cluster {
namespace {

using testing_internal::WaitFor;
using Clock = UpstreamConn::Clock;
using Ms = std::chrono::milliseconds;

Clock::time_point In(int ms) { return Clock::now() + Ms(ms); }

/// A scripted NDJSON peer on a loopback port: it counts the lines it
/// receives and answers "pong:<line>" at once, except "hold", whose
/// answer waits for AnswerHeld (or never comes).
class ScriptedPeer {
 public:
  explicit ScriptedPeer(int port = 0) {
    ReactorOptions options;
    options.port = port;
    options.num_shards = 1;
    auto reactor = Reactor::Create(options, [this](std::string line,
                                                   Responder responder) {
      lines_.fetch_add(1);
      std::lock_guard<std::mutex> lock(mutex_);
      if (line == "hold") {
        held_.push_back(std::move(responder));
      } else {
        responder.Respond("pong:" + line);
      }
    });
    EXPECT_TRUE(reactor.ok()) << reactor.status().ToString();
    if (reactor.ok()) reactor_ = std::move(*reactor);
  }

  Endpoint endpoint() const { return {"127.0.0.1", reactor_->port()}; }
  int lines() const { return lines_.load(); }
  std::size_t held() {
    std::lock_guard<std::mutex> lock(mutex_);
    return held_.size();
  }
  void AnswerHeld(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Responder& responder : held_) responder.Respond(line);
    held_.clear();
  }

 private:
  std::atomic<int> lines_{0};
  std::mutex mutex_;
  std::vector<Responder> held_;
  std::unique_ptr<Reactor> reactor_;  ///< last: stops before the rest goes.
};

void IgnoreSignal(int) {}

TEST(UpstreamConnTest, ReadLineWaitsThroughASignalUntilTheAnswer) {
  ScriptedPeer peer;
  auto conn = UpstreamConn::Dial(peer.endpoint(), In(1000));
  ASSERT_TRUE(conn.ok() && conn->SendLine("hold", In(1000)).ok());
  ASSERT_TRUE(WaitFor([&] { return peer.held() == 1; }));

  struct sigaction action {}, previous {};
  action.sa_handler = IgnoreSignal;  // no SA_RESTART: poll sees EINTR.
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  const pthread_t reader = ::pthread_self();
  const auto start = Clock::now();
  std::thread peer_side([&] {
    std::this_thread::sleep_until(start + Ms(200));
    ::pthread_kill(reader, SIGUSR1);
    std::this_thread::sleep_until(start + Ms(1000));
    peer.AnswerHeld("late");
  });
  auto line = conn->ReadLine(start + Ms(3000));
  const auto waited = Clock::now() - start;
  peer_side.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, "late");
  EXPECT_GE(waited, Ms(1000));
}

TEST(UpstreamConnTest, ReadLineEndsAtItsDeadlineAndPollsOnceWhenItHasPassed) {
  ScriptedPeer peer;
  auto conn = UpstreamConn::Dial(peer.endpoint(), In(1000));
  ASSERT_TRUE(conn.ok() && conn->SendLine("hold", In(1000)).ok());

  // A silent peer: the read ends at its deadline, not before.
  const auto start = Clock::now();
  EXPECT_EQ(conn->ReadLine(start + Ms(100)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_GE(Clock::now() - start, Ms(100));

  // A late read still takes a line that has already arrived.
  peer.AnswerHeld("answered");
  ASSERT_TRUE(WaitFor([&] {
    pollfd pfd{conn->fd(), POLLIN, 0};
    return ::poll(&pfd, 1, 0) == 1;
  }));
  auto late = conn->ReadLine(Clock::now() - Ms(1));
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(*late, "answered");
}

/// A raw loopback peer that accepts one connection and sends it `writes`
/// in order, each as its own blocking send after `pause`, so the client
/// sees the byte stream split where the test says.
class WritingPeer {
 public:
  WritingPeer(std::vector<std::string> writes, Ms pause) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    auto* raw = reinterpret_cast<sockaddr*>(&addr);
    EXPECT_EQ(::bind(listener_, raw, sizeof(addr)), 0);
    EXPECT_EQ(::listen(listener_, 1), 0);
    EXPECT_EQ(::getsockname(listener_, raw, &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, writes = std::move(writes), pause] {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      for (const std::string& bytes : writes) {
        std::this_thread::sleep_for(pause);
        std::size_t sent = 0;
        while (sent < bytes.size()) {
          const ssize_t n = ::send(fd, bytes.data() + sent,
                                   bytes.size() - sent, MSG_NOSIGNAL);
          if (n <= 0) break;
          sent += static_cast<std::size_t>(n);
        }
      }
      char byte;
      ::recv(fd, &byte, 1, 0);  // held open until the client closes.
      ::close(fd);
    });
  }
  ~WritingPeer() {
    ::shutdown(listener_, SHUT_RDWR);  // wakes an accept no dial reached.
    thread_.join();
    ::close(listener_);
  }

  Endpoint endpoint() const { return {"127.0.0.1", port_}; }

 private:
  int listener_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(UpstreamConnTest, ReadsAMultiMegabyteLineIntact) {
  // Larger than a bench-fleet snapshot (4.6 MB), so it arrives over
  // hundreds of reads; a line pipelined behind it follows intact.
  std::string big(6 << 20, 'x');
  for (std::size_t i = 0; i < big.size(); i += 251) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  WritingPeer peer({big + "\nafter\n"}, Ms(0));
  auto conn = UpstreamConn::Dial(peer.endpoint(), In(1000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto line = conn->ReadLine(In(10000));
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_TRUE(*line == big) << "read " << line->size() << " bytes";
  auto after = conn->ReadLine(In(1000));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, "after");
  conn->Close();
}

TEST(UpstreamConnTest, SplitAndPipelinedLinesArriveWholeAndInOrder) {
  // Lines split across sends, several lines in one send, a split right
  // after a newline and an empty line.
  WritingPeer peer({"al", "pha\nbe", "ta\ngamma\ndelta\n", "eps", "ilon\n",
                    "\nzeta\n"},
                   Ms(20));
  auto conn = UpstreamConn::Dial(peer.endpoint(), In(1000));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  for (const char* want :
       {"alpha", "beta", "gamma", "delta", "epsilon", "", "zeta"}) {
    auto line = conn->ReadLine(In(2000));
    ASSERT_TRUE(line.ok()) << want << ": " << line.status().ToString();
    EXPECT_EQ(*line, want);
  }
  conn->Close();
}

TEST(UpstreamPoolTest, StaleIdleConnectionsRetryOnAFreshDial) {
  auto restarted = std::make_unique<ScriptedPeer>();
  const Endpoint endpoint = restarted->endpoint();
  UpstreamPool pool;
  // Park two idle connections, then restart the peer on the same port:
  // both parked connections are now stale.
  auto first = pool.Checkout(endpoint, In(1000));
  auto second = pool.Checkout(endpoint, In(1000));
  ASSERT_TRUE(first.ok() && second.ok());
  pool.Return(endpoint, std::move(*first));
  pool.Return(endpoint, std::move(*second));
  restarted.reset();
  ScriptedPeer peer(endpoint.port);

  auto answer = pool.Rpc(endpoint, "ping", In(2000));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(*answer, "pong:ping");
  EXPECT_EQ(peer.lines(), 1);
}

TEST(UpstreamPoolTest, ReadTimeoutOnAReusedConnectionIsNotResent) {
  ScriptedPeer peer;
  UpstreamPool pool;
  ASSERT_TRUE(pool.Rpc(peer.endpoint(), "warm", In(1000)).ok());

  // The parked connection is reused and the answer comes after the
  // deadline. A resend would reach the peer at once over a fresh dial.
  EXPECT_EQ(pool.Rpc(peer.endpoint(), "hold", In(200)).status().code(),
            StatusCode::kUnavailable);
  std::this_thread::sleep_for(Ms(300));
  EXPECT_EQ(peer.lines(), 2);
  EXPECT_EQ(peer.held(), 1u);
}

/// Hits of cluster.route.{connect,send,recv}, in that order, counted
/// under a policy that never fails.
using RouteHits = std::array<std::uint64_t, 3>;
constexpr char kCountRouteSites[] =
    "cluster.route.connect=latency-ms:0,cluster.route.send=latency-ms:0,"
    "cluster.route.recv=latency-ms:0";

RouteHits CountRouteHits() {
  auto& registry = fault::FaultRegistry::Default();
  return {registry.GetPoint("cluster.route.connect").hits(),
          registry.GetPoint("cluster.route.send").hits(),
          registry.GetPoint("cluster.route.recv").hits()};
}

TEST(UpstreamPoolTest, RouteFaultSitesFireForPoolTrafficOnly) {
  if (!DOMD_FAULT_COMPILED) GTEST_SKIP() << "fault injection compiled out";
  ScriptedPeer peer;
  fault::ScopedFaultInjection counting(kCountRouteSites);

  // A bare connection is its owner's own client: no site fires.
  auto conn = UpstreamConn::Dial(peer.endpoint(), In(1000));
  ASSERT_TRUE(conn.ok() && conn->SendLine("bare", In(1000)).ok());
  ASSERT_TRUE(conn->ReadLine(In(1000)).ok());
  EXPECT_EQ(CountRouteHits(), (RouteHits{0, 0, 0}));

  // An Rpc on a fresh dial fires each site once; one on the parked
  // connection fires send and recv once.
  UpstreamPool pool;
  ASSERT_TRUE(pool.Rpc(peer.endpoint(), "a", In(1000)).ok());
  EXPECT_EQ(CountRouteHits(), (RouteHits{1, 1, 1}));
  ASSERT_TRUE(pool.Rpc(peer.endpoint(), "b", In(1000)).ok());
  EXPECT_EQ(CountRouteHits(), (RouteHits{1, 2, 2}));
}

TEST(UpstreamPoolTest, ScatterFiresRouteSitesOncePerSubrequest) {
  if (!DOMD_FAULT_COMPILED) GTEST_SKIP() << "fault injection compiled out";
  ScriptedPeer shard0, shard1;
  auto host_map = HostMap::Create(
      {ShardSpec{0, {shard0.endpoint()}}, ShardSpec{1, {shard1.endpoint()}}});
  ASSERT_TRUE(host_map.ok()) << host_map.status().ToString();
  std::set<std::size_t> touched;
  for (const std::int64_t id : {11, 12, 13, 14, 15, 16}) {
    touched.insert(host_map->OwnerIndexOf(KeyForAvail(id)));
  }
  RouterOptions options;
  options.start_prober = false;
  ClusterRouter router(std::move(*host_map), options);
  auto front = Reactor::Create(
      ReactorOptions{}, [&router](std::string line, Responder responder) {
        router.Handle(std::move(line), std::move(responder));
      });
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  const std::string scatter = R"({"avail_ids": [11, 12, 13, 14, 15, 16]})";

  // The client's own connection fires nothing; each router reactor shard
  // dials each touched shard once, then pipelines one send and one read
  // per id. The second Rpc's connection lands on the front's other
  // reactor shard, which dials its own connections.
  fault::ScopedFaultInjection counting(kCountRouteSites);
  const std::string first = testing_internal::Rpc((*front)->port(), scatter);
  EXPECT_NE(first.find("\"errors\": 0"), std::string::npos) << first;
  EXPECT_EQ(CountRouteHits(), (RouteHits{touched.size(), 6, 6}));
  EXPECT_EQ(testing_internal::Rpc((*front)->port(), scatter), first);
  EXPECT_EQ(CountRouteHits(), (RouteHits{2 * touched.size(), 12, 12}));
  EXPECT_EQ(shard0.lines() + shard1.lines(), 12);
}

}  // namespace
}  // namespace cluster
}  // namespace domd
