// Wire-level battery for the epoll reactor front-end (DESIGN.md §11).
// Every test drives a real loopback socket against a scripted handler, so
// the assertions are about observable wire behavior: framing across
// arbitrary read boundaries, pipelined response ordering, bounded buffers,
// half-close/reset reaping, and deterministic idle-timeout reaping under an
// injectable clock. No model bundle is involved — the reactor is
// codec-agnostic, and the NDJSON routing on top of it has its own tests.
// The one codec-level test here pins the response serializer's non-finite
// handling at the wire: NaN/Inf predictions must arrive as JSON nulls.

#include "serve/reactor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/reactor_test_client.h"
#include "serve/wire.h"

namespace domd {
namespace {

using testing_internal::TestClient;
using testing_internal::WaitFor;

using Ms = std::chrono::milliseconds;

/// An echo handler: responds "echo:<line>" inline on the shard.
Reactor::Handler EchoHandler() {
  return [](std::string line, Responder responder) {
    responder.Respond("echo:" + line);
  };
}

std::unique_ptr<Reactor> MustCreate(ReactorOptions options,
                                    Reactor::Handler handler) {
  auto reactor = Reactor::Create(std::move(options), std::move(handler));
  EXPECT_TRUE(reactor.ok()) << reactor.status().ToString();
  return std::move(*reactor);
}

TEST(ReactorTest, EchoesOneRequest) {
  auto reactor = MustCreate(ReactorOptions{}, EchoHandler());
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("hello"));
  const auto response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:hello");
  EXPECT_GE(reactor->stats().requests, 1u);
  EXPECT_GE(reactor->stats().responses, 1u);
}

TEST(ReactorTest, RequestSplitAcrossArbitraryReadBoundaries) {
  auto reactor = MustCreate(ReactorOptions{}, EchoHandler());
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());

  // One request delivered a byte at a time: the reactor must frame on the
  // newline no matter how recv() slices the stream.
  ASSERT_TRUE(client.SendByteByByte("split-me-anywhere\n"));
  auto response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:split-me-anywhere");

  // Two requests where the second line straddles two writes.
  ASSERT_TRUE(client.Send("first\nseco"));
  std::this_thread::sleep_for(Ms(20));
  ASSERT_TRUE(client.Send("nd\n"));
  response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:first");
  response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:second");
}

TEST(ReactorTest, PipelinedRequestsAnsweredInRequestOrder) {
  // The handler hoards every Responder and completes them in REVERSE once
  // all have arrived; the ordered response slots must still deliver
  // responses in request order.
  constexpr int kRequests = 8;
  struct Shared {
    std::mutex mutex;
    std::vector<std::pair<std::string, Responder>> held;
  };
  auto shared = std::make_shared<Shared>();
  auto reactor = MustCreate(
      ReactorOptions{}, [shared](std::string line, Responder responder) {
        std::vector<std::pair<std::string, Responder>> to_answer;
        {
          std::lock_guard<std::mutex> lock(shared->mutex);
          shared->held.emplace_back(std::move(line), std::move(responder));
          if (shared->held.size() < kRequests) return;
          to_answer.swap(shared->held);
        }
        for (auto it = to_answer.rbegin(); it != to_answer.rend(); ++it) {
          it->second.Respond("r:" + it->first);
        }
      });

  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "q" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(client.Send(burst));
  for (int i = 0; i < kRequests; ++i) {
    const auto response = client.ReadLine();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    EXPECT_EQ(*response, "r:q" + std::to_string(i));
  }
}

// An answer the shard's own thread posts wakes nothing (no eventfd write),
// so the loop must apply it before it waits again: a loop that waited
// first would hold the answers for one poll cadence (200 ms here). The
// fastest of three bursts must beat half a cadence.
TEST(ReactorTest, InlineAnswersGoOutBeforeTheLoopWaits) {
  auto reactor = MustCreate(ReactorOptions{}, EchoHandler());
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  constexpr int kRequests = 50;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "q" + std::to_string(i) + "\n";
  }
  auto fastest = std::chrono::steady_clock::duration::max();
  for (int round = 0; round < 3; ++round) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Send(burst));
    for (int i = 0; i < kRequests; ++i) {
      const auto response = client.ReadLine();
      ASSERT_TRUE(response.has_value()) << "response " << i;
      EXPECT_EQ(*response, "echo:q" + std::to_string(i));
    }
    fastest = std::min(fastest, std::chrono::steady_clock::now() - start);
  }
  EXPECT_LT(fastest, Ms(100));
}

TEST(ReactorTest, LongLinesOverManyReadsAndPipelinedLinesArriveWhole) {
  // Lines that span many reads, sent in uneven pieces with short lines
  // pipelined before, between and after them: each request arrives whole
  // and is answered in order.
  auto reactor = MustCreate(ReactorOptions{}, EchoHandler());
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  std::string big(300000, 'x');
  for (std::size_t i = 0; i < big.size(); i += 101) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  const std::string medium = big.substr(0, 40000);
  const std::string stream =
      "one\ntwo\n" + big + "\nthree\n" + medium + "\nfour\n";
  std::size_t piece = 7;
  for (std::size_t pos = 0; pos < stream.size(); pos += piece) {
    piece = piece * 7 % 50021 + 1;
    ASSERT_TRUE(client.Send(stream.substr(pos, piece)));
    std::this_thread::sleep_for(Ms(1));
  }
  for (const std::string& want : {std::string("one"), std::string("two"),
                                  big, std::string("three"), medium,
                                  std::string("four")}) {
    const auto response = client.ReadLine();
    ASSERT_TRUE(response.has_value()) << want.substr(0, 8);
    EXPECT_TRUE(*response == "echo:" + want) << want.substr(0, 8);
  }
}

TEST(ReactorTest, OversizedRequestAnsweredAndConnectionKeptAlive) {
  ReactorOptions options;
  options.max_request_bytes = 64;
  options.oversize_response = "{\"ok\": false, \"code\": \"INVALID_ARGUMENT\"}";
  auto reactor = MustCreate(options, EchoHandler());
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());

  // A complete-but-too-long line: rejected, connection survives.
  ASSERT_TRUE(client.SendLine(std::string(200, 'x')));
  auto response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, options.oversize_response);
  ASSERT_TRUE(client.SendLine("still-alive"));
  response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:still-alive");

  // An oversized line that arrives WITHOUT its newline: the reject fires
  // as soon as the bound is crossed and the tail is discarded up to the
  // eventual newline; the next request still works.
  ASSERT_TRUE(client.Send(std::string(300, 'y')));
  response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, options.oversize_response);
  ASSERT_TRUE(client.Send(std::string(50, 'y') + "\nafter\n"));
  response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:after");

  EXPECT_EQ(reactor->stats().oversized_requests, 2u);
  EXPECT_EQ(reactor->stats().open_connections, 1u);
}

TEST(ReactorTest, HalfCloseStillDeliversPendingResponseThenCloses) {
  // The handler answers asynchronously AFTER the client half-closes: the
  // reactor must keep the write side open until every slot drains.
  struct Shared {
    std::mutex mutex;
    std::vector<Responder> held;
  };
  auto shared = std::make_shared<Shared>();
  auto reactor = MustCreate(
      ReactorOptions{}, [shared](std::string, Responder responder) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        shared->held.push_back(std::move(responder));
      });

  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("work"));
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(shared->mutex);
    return !shared->held.empty();
  }));
  client.ShutdownWrite();  // FIN: "no more requests, still reading".
  std::this_thread::sleep_for(Ms(50));
  {
    std::lock_guard<std::mutex> lock(shared->mutex);
    shared->held.front().Respond("late-but-delivered");
  }
  const auto response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "late-but-delivered");
  EXPECT_TRUE(client.AtEof());
  // Reaped without leaking: no open connection, no buffered bytes.
  EXPECT_TRUE(WaitFor([&] {
    const auto stats = reactor->stats();
    return stats.open_connections == 0 && stats.buffered_bytes == 0;
  }));
}

TEST(ReactorTest, AbruptResetReapsConnectionWithoutLeakingBuffers) {
  auto reactor = MustCreate(ReactorOptions{}, EchoHandler());
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  // Park a partial request in the server's read buffer, then RST.
  ASSERT_TRUE(client.Send("partial-line-without-newline"));
  ASSERT_TRUE(WaitFor([&] { return reactor->stats().buffered_bytes > 0; }));
  client.ResetAbruptly();
  EXPECT_TRUE(WaitFor([&] {
    const auto stats = reactor->stats();
    return stats.open_connections == 0 && stats.buffered_bytes == 0;
  }));
}

TEST(ReactorTest, IdleTimeoutReapingIsDeterministicUnderInjectableClock) {
  // Fake time: the test advances `fake_ms` and only then may reaping
  // fire. Two connections with different activity times are reaped at
  // their own deadlines, exercising lazy re-bucketing on the wheel.
  auto fake_ms = std::make_shared<std::atomic<std::int64_t>>(0);
  const auto epoch = Reactor::Clock::now();
  ReactorOptions options;
  options.idle_timeout = Ms(1000);
  options.clock = [fake_ms, epoch] {
    return epoch + Ms(fake_ms->load(std::memory_order_acquire));
  };
  auto reactor = MustCreate(options, EchoHandler());

  TestClient idle_client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(idle_client.connected());
  // A round trip at fake t=0. open_connections counts a connection when
  // it is accepted, but its shard stamps its activity when it adopts it,
  // which without this could happen after the clock moves to 500.
  ASSERT_TRUE(idle_client.SendLine("hello"));
  ASSERT_TRUE(idle_client.ReadLine().has_value());
  ASSERT_TRUE(WaitFor([&] { return reactor->stats().open_connections == 1; }));

  TestClient active_client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(active_client.connected());
  ASSERT_TRUE(WaitFor([&] { return reactor->stats().open_connections == 2; }));

  // Refresh the active client at fake t=500ms.
  fake_ms->store(500);
  ASSERT_TRUE(active_client.SendLine("keepalive"));
  ASSERT_TRUE(active_client.ReadLine().has_value());

  // Nothing may be reaped before any deadline.
  std::this_thread::sleep_for(Ms(300));
  EXPECT_EQ(reactor->stats().idle_reaped, 0u);
  EXPECT_EQ(reactor->stats().open_connections, 2u);

  // Fake t=1300ms: the idle connection (deadline 1000) dies; the active
  // one (deadline 1500) survives and still works.
  fake_ms->store(1300);
  EXPECT_TRUE(WaitFor([&] { return reactor->stats().idle_reaped == 1; }));
  EXPECT_TRUE(idle_client.AtEof());
  EXPECT_EQ(reactor->stats().open_connections, 1u);
  ASSERT_TRUE(active_client.SendLine("still-here"));  // activity at 1300.
  ASSERT_TRUE(active_client.ReadLine().has_value());

  // Fake t=2500ms: past the refreshed deadline (1300+1000) too.
  fake_ms->store(2500);
  EXPECT_TRUE(WaitFor([&] { return reactor->stats().idle_reaped == 2; }));
  EXPECT_TRUE(active_client.AtEof());
  EXPECT_EQ(reactor->stats().open_connections, 0u);
  EXPECT_EQ(reactor->stats().buffered_bytes, 0u);
}

TEST(ReactorTest, SlowReaderGetsBoundedBufferThenCleanDisconnect) {
  // A client that stops reading: the per-connection write buffer is
  // bounded, and crossing the bound disconnects (write-stall shedding)
  // instead of growing without limit.
  ReactorOptions options;
  options.max_write_buffer_bytes = 64 * 1024;
  options.sndbuf_bytes = 4096;  // back-pressure after a few KB, not MB.
  const std::string big_payload(32 * 1024, 'z');
  auto reactor = MustCreate(
      options, [big_payload](std::string, Responder responder) {
        responder.Respond(big_payload);
      });

  TestClient client = TestClient::Connect(reactor->port(),
                                          /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(client.connected());
  // Pipeline many requests and never read a byte.
  for (int i = 0; i < 64; ++i) {
    if (!client.SendLine("gimme")) break;  // server may disconnect mid-burst.
  }
  EXPECT_TRUE(
      WaitFor([&] { return reactor->stats().write_stall_disconnects >= 1; }));
  EXPECT_TRUE(WaitFor([&] {
    const auto stats = reactor->stats();
    return stats.open_connections == 0 && stats.buffered_bytes == 0;
  }));
}

TEST(ReactorTest, GlobalBufferBoundDisconnectsTheGrowingConnection) {
  ReactorOptions options;
  options.max_total_buffer_bytes = 1024;  // tiny global budget.
  options.sndbuf_bytes = 4096;
  const std::string big_payload(32 * 1024, 'z');
  auto reactor = MustCreate(
      options, [big_payload](std::string, Responder responder) {
        responder.Respond(big_payload);
      });

  TestClient client = TestClient::Connect(reactor->port(),
                                          /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 32; ++i) {
    if (!client.SendLine("gimme")) break;
  }
  EXPECT_TRUE(
      WaitFor([&] { return reactor->stats().buffer_limit_disconnects >= 1; }));
  EXPECT_TRUE(WaitFor([&] {
    const auto stats = reactor->stats();
    return stats.open_connections == 0 && stats.buffered_bytes == 0;
  }));
}

TEST(ReactorTest, AcceptsAreShedAtMaxConnections) {
  ReactorOptions options;
  options.max_connections = 2;
  auto reactor = MustCreate(options, EchoHandler());

  TestClient first = TestClient::Connect(reactor->port());
  TestClient second = TestClient::Connect(reactor->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(WaitFor([&] { return reactor->stats().open_connections == 2; }));

  TestClient third = TestClient::Connect(reactor->port());
  ASSERT_TRUE(third.connected());  // TCP accepts; the reactor sheds.
  EXPECT_TRUE(third.AtEof());
  EXPECT_TRUE(
      WaitFor([&] { return reactor->stats().rejected_at_capacity >= 1; }));

  // The admitted connections are unaffected.
  ASSERT_TRUE(first.SendLine("one"));
  EXPECT_EQ(first.ReadLine().value_or(""), "echo:one");
  ASSERT_TRUE(second.SendLine("two"));
  EXPECT_EQ(second.ReadLine().value_or(""), "echo:two");
}

TEST(ReactorTest, RespondThenStopDrainsTheResponseFirst) {
  auto reactor = MustCreate(
      ReactorOptions{}, [](std::string line, Responder responder) {
        if (line == "shutdown") {
          responder.RespondThenStop("bye");
        } else {
          responder.Respond("echo:" + line);
        }
      });
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("shutdown"));
  const auto response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "bye");
  reactor->Wait();
  EXPECT_TRUE(reactor->stopped());
  EXPECT_TRUE(client.AtEof());
}

TEST(ReactorTest, ResponderOutlivesReactorSafely) {
  struct Shared {
    std::mutex mutex;
    std::vector<Responder> held;
  };
  auto shared = std::make_shared<Shared>();
  auto reactor = MustCreate(
      ReactorOptions{}, [shared](std::string, Responder responder) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        shared->held.push_back(std::move(responder));
      });
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("orphan-me"));
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(shared->mutex);
    return !shared->held.empty();
  }));
  reactor.reset();  // tears down shards, acceptor, every connection.
  // A completion for a dead reactor is dropped, never dereferenced.
  shared->held.front().Respond("into the void");
  shared->held.front().Respond("double-respond is also fine");
}

TEST(ReactorTest, NonFinitePredictionServesAsValidJsonNulls) {
  // A numerically-poisoned prediction (NaN estimate, infinite band) must
  // cross the wire as parseable JSON with nulls — never bare "nan"/"inf"
  // tokens, which no JSON client would accept. The handler runs the real
  // response serializer over a real socket.
  auto reactor = MustCreate(
      ReactorOptions{}, [](std::string, Responder responder) {
        ServePrediction prediction;
        prediction.avail_id = 9;
        prediction.t_star = 60.0;
        prediction.estimate_days = std::numeric_limits<double>::quiet_NaN();
        prediction.band_low = -std::numeric_limits<double>::infinity();
        prediction.band_high = std::numeric_limits<double>::infinity();
        prediction.num_steps = 3;
        prediction.bundle_version = "v1";
        responder.Respond(PredictionToJson(prediction, 1.25).Serialize());
      });
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"avail_id": 9, "t_star": 60})"));
  const auto line = client.ReadLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->find("nan"), std::string::npos) << *line;
  EXPECT_EQ(line->find("inf"), std::string::npos) << *line;
  const auto doc = JsonValue::Parse(*line);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_NE(doc->Find("estimate_days"), nullptr);
  EXPECT_TRUE(doc->Find("estimate_days")->is_null());
  ASSERT_NE(doc->Find("band_low"), nullptr);
  EXPECT_TRUE(doc->Find("band_low")->is_null());
  ASSERT_NE(doc->Find("band_high"), nullptr);
  EXPECT_TRUE(doc->Find("band_high")->is_null());
  EXPECT_TRUE(doc->BoolOr("ok", false));
  EXPECT_DOUBLE_EQ(doc->NumberOr("t_star", 0.0), 60.0);
}

TEST(ReactorTest, WhitespaceOnlyLinesAreIgnored) {
  auto reactor = MustCreate(ReactorOptions{}, EchoHandler());
  TestClient client = TestClient::Connect(reactor->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("\n  \t\r\n\nreal\n"));
  const auto response = client.ReadLine();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:real");
  EXPECT_EQ(reactor->stats().requests, 1u);
}

}  // namespace
}  // namespace domd
