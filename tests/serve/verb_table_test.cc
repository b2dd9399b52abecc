// VerbTable behind a live Reactor with scripted handlers: where each
// policy runs, the queue bound and the pre-queue checks, and teardown.

#include "serve/verb_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "serve/reactor.h"
#include "serve/reactor_test_client.h"

namespace domd {
namespace {

using testing_internal::Rpc;
using testing_internal::TestClient;
using testing_internal::WaitFor;

/// A latch scripted handlers block on until the test opens it.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

class VerbTableTest : public ::testing::Test {
 protected:
  void TearDown() override {
    gate_.Open();  // no scripted handler may outlive the test blocked.
    reactor_.reset();
    table_.reset();
  }

  /// Puts the table (verbs already registered) behind a one-shard reactor.
  void Serve() {
    ReactorOptions options;
    options.num_shards = 1;
    VerbTable* table = table_.get();
    auto reactor = Reactor::Create(
        options, [table](std::string line, Responder responder) {
          table->Handle(std::move(line), std::move(responder));
        });
    ASSERT_TRUE(reactor.ok()) << reactor.status().ToString();
    reactor_ = std::move(*reactor);
  }

  /// A handler that counts its start, waits for the gate, then answers.
  VerbTable::Handler Blocking(std::string answer) {
    return [this, answer](const VerbRequest&, Responder responder) {
      started_.fetch_add(1);
      gate_.Wait();
      responder.Respond(answer);
    };
  }

  static VerbTable::Handler Answer(std::string answer) {
    return [answer](const VerbRequest&, Responder responder) {
      responder.Respond(answer);
    };
  }

  int port() const { return reactor_->port(); }

  Gate gate_;
  std::atomic<int> started_{0};
  std::unique_ptr<VerbTable> table_;
  std::unique_ptr<Reactor> reactor_;
};

TEST_F(VerbTableTest, InlineVerbAnswersWhileWorkerVerbIsBlocked) {
  table_ = std::make_unique<VerbTable>(/*workers=*/1, /*slow_workers=*/0);
  table_->Register("block", VerbPolicy::kWorker, Blocking("unblocked"));
  table_->Register("peek", VerbPolicy::kInline, Answer("peeked"));
  Serve();

  TestClient blocked = TestClient::Connect(port());
  ASSERT_TRUE(blocked.SendLine(R"({"cmd":"block"})"));
  ASSERT_TRUE(WaitFor([&] { return started_.load() == 1; }));
  EXPECT_EQ(Rpc(port(), R"({"cmd":"peek"})"), "peeked");
  EXPECT_EQ(Rpc(port(), "not json"),
            R"({"ok":false,"code":"INVALID_ARGUMENT",)"
            R"("error":"json: bad token"})");
  EXPECT_EQ(Rpc(port(), R"({"cmd":"nope"})"),
            R"({"ok":false,"code":"INVALID_ARGUMENT",)"
            R"("error":"unknown cmd \"nope\""})");
  gate_.Open();
  EXPECT_EQ(blocked.ReadLine(), "unblocked");
}

TEST_F(VerbTableTest, SlowWorkerVerbInFlightDoesNotDelayWorkerVerb) {
  table_ = std::make_unique<VerbTable>(/*workers=*/1, /*slow_workers=*/1);
  table_->Register("train", VerbPolicy::kSlowWorker, Blocking("trained"));
  table_->Register("ack", VerbPolicy::kWorker, Answer("acked"));
  Serve();

  TestClient training = TestClient::Connect(port());
  ASSERT_TRUE(training.SendLine(R"({"cmd":"train"})"));
  ASSERT_TRUE(WaitFor([&] { return started_.load() == 1; }));
  EXPECT_EQ(Rpc(port(), R"({"cmd":"ack"})"), "acked");
  gate_.Open();
  EXPECT_EQ(training.ReadLine(), "trained");
}

TEST_F(VerbTableTest, ShedsAtTheQueueBoundButAnswersFailedChecksFirst) {
  table_ = std::make_unique<VerbTable>(/*workers=*/1, /*slow_workers=*/0,
                                       /*max_queue_depth=*/0,
                                       "scripted queue full");
  table_->Register("work", VerbPolicy::kWorker, Answer("worked"),
                   [](const JsonValue& request) {
                     const JsonValue* id = request.Find("id");
                     return id != nullptr && id->is_number()
                                ? Status::OK()
                                : Status::InvalidArgument(
                                      "work needs \"id\"");
                   });
  Serve();

  EXPECT_EQ(Rpc(port(), R"({"cmd":"work","id":1})"),
            R"({"ok":false,"code":"RESOURCE_EXHAUSTED",)"
            R"("error":"scripted queue full"})");
  EXPECT_EQ(table_->shed(), 1u);
  EXPECT_EQ(Rpc(port(), R"({"cmd":"work"})"),
            R"({"ok":false,"code":"INVALID_ARGUMENT",)"
            R"("error":"work needs \"id\""})");
  EXPECT_EQ(table_->shed(), 1u);
  // Inline verbs never queue, so the bound does not touch them.
  const std::string metrics = Rpc(port(), R"({"cmd":"metrics"})");
  EXPECT_EQ(metrics.rfind(R"({"ok":true,"content_type":"text/plain;)", 0),
            0u)
      << metrics;
}

TEST_F(VerbTableTest, DestructionAnswersEveryQueuedRequestAndJoins) {
  table_ = std::make_unique<VerbTable>(/*workers=*/1, /*slow_workers=*/0);
  std::atomic<int> finished{0};
  table_->Register("work", VerbPolicy::kWorker,
                   [&](const VerbRequest& request, Responder responder) {
                     gate_.Wait();
                     responder.Respond(
                         "done-" + request.json.Find("id")->Serialize());
                     finished.fetch_add(1);
                   });
  std::atomic<bool> marked{false};
  table_->Register("mark", VerbPolicy::kInline,
                   [&](const VerbRequest&, Responder responder) {
                     marked.store(true);
                     responder.Respond("marked");
                   });
  Serve();

  // One connection, pipelined: the shard hands lines over in order, so by
  // the time the inline `mark` runs all three `work` requests are queued
  // (one of them already running, blocked on the gate).
  TestClient client = TestClient::Connect(port());
  ASSERT_TRUE(client.Send(R"({"cmd":"work","id":1})"
                          "\n"
                          R"({"cmd":"work","id":2})"
                          "\n"
                          R"({"cmd":"work","id":3})"
                          "\n"
                          R"({"cmd":"mark"})"
                          "\n"));
  ASSERT_TRUE(WaitFor([&] { return marked.load(); }));

  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    table_.reset();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load());  // the destructor waits on the queue.
  gate_.Open();
  destroyer.join();
  EXPECT_EQ(finished.load(), 3);

  EXPECT_EQ(client.ReadLine(), "done-1");
  EXPECT_EQ(client.ReadLine(), "done-2");
  EXPECT_EQ(client.ReadLine(), "done-3");
  EXPECT_EQ(client.ReadLine(), "marked");
}

}  // namespace
}  // namespace domd
