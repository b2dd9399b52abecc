#include "serve/verb_table.h"

#include <utility>

#include "obs/metrics.h"
#include "serve/wire.h"

namespace domd {

VerbTable::VerbTable(std::size_t workers, std::size_t slow_workers,
                     std::size_t max_queue_depth, std::string shed_message)
    : max_queue_depth_(max_queue_depth),
      shed_message_(std::move(shed_message)) {
  Register("metrics", VerbPolicy::kInline,
           [](const VerbRequest&, Responder responder) {
             // Prometheus text exposition 0.0.4. The multi-line payload is
             // safe on the NDJSON wire because Serialize() escapes every
             // newline.
             JsonValue out = JsonValue::Object();
             out.Set("ok", JsonValue::Bool(true));
             out.Set("content_type",
                     JsonValue::String("text/plain; version=0.0.4"));
             out.Set("payload",
                     JsonValue::String(
                         obs::MetricsRegistry::Default().RenderPrometheus()));
             responder.Respond(out.Serialize());
           });
  // Stops this process's reactor only: a router's shards keep serving.
  Register("shutdown", VerbPolicy::kInline,
           [](const VerbRequest&, Responder responder) {
             JsonValue out = JsonValue::Object();
             out.Set("ok", JsonValue::Bool(true));
             out.Set("shutting_down", JsonValue::Bool(true));
             responder.RespondThenStop(out.Serialize());
           });
  for (std::size_t i = 0; i < workers; ++i) {
    worker_.threads.emplace_back([this] { Drain(&worker_); });
  }
  for (std::size_t i = 0; i < slow_workers; ++i) {
    slow_.threads.emplace_back([this] { Drain(&slow_); });
  }
}

VerbTable::~VerbTable() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  worker_.available.notify_all();
  slow_.available.notify_all();
  for (Pool* pool : {&worker_, &slow_}) {
    for (std::thread& thread : pool->threads) thread.join();
  }
}

void VerbTable::Register(const std::string& name, VerbPolicy policy,
                         Handler handler, Check check) {
  verbs_[name] = Verb{policy, std::move(handler), std::move(check)};
}

void VerbTable::Drain(Pool* pool) {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      pool->available.wait(lock,
                           [&] { return stopping_ || !pool->queue.empty(); });
      if (pool->queue.empty()) return;  // stopping, fully drained.
      job = std::move(pool->queue.front());
      pool->queue.pop_front();
    }
    job();
  }
}

bool VerbTable::Queue(VerbPolicy policy, std::function<void()> job) {
  Pool& pool = policy == VerbPolicy::kSlowWorker ? slow_ : worker_;
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || pool.queue.size() >= max_queue_depth_) return false;
  pool.queue.push_back(std::move(job));
  pool.available.notify_one();
  return true;
}

Status VerbTable::Shed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
  return Status::ResourceExhausted(shed_message_);
}

void VerbTable::Handle(std::string line, Responder responder) {
  const auto received = std::chrono::steady_clock::now();
  auto json = JsonValue::Parse(line);
  if (!json.ok()) {
    responder.Respond(ErrorToJson(json.status()).Serialize());
    return;
  }
  const std::string cmd = json->StringOr("cmd", "");
  const auto it = verbs_.find(cmd);
  if (it == verbs_.end()) {
    responder.Respond(
        ErrorToJson(Status::InvalidArgument("unknown cmd \"" + cmd + "\""))
            .Serialize());
    return;
  }
  const Verb& verb = it->second;
  if (verb.check) {
    if (const Status valid = verb.check(*json); !valid.ok()) {
      responder.Respond(ErrorToJson(valid).Serialize());
      return;
    }
  }
  VerbRequest request{std::move(*json), std::move(line), received};
  if (verb.policy == VerbPolicy::kInline) {
    verb.handler(request, std::move(responder));
    return;
  }
  const bool queued =
      Queue(verb.policy, [handler = &verb.handler,
                          request = std::move(request), responder]() {
        (*handler)(request, responder);
      });
  if (!queued) responder.Respond(ErrorToJson(Shed()).Serialize());
}

}  // namespace domd
