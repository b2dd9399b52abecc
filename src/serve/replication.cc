#include "serve/replication.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <utility>

#include "fault/fault.h"
#include "serve/wire.h"

namespace domd {
namespace {

std::string HexChain(std::uint64_t chain) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, chain);
  return std::string(buffer);
}

/// A chain member: nullopt when absent or null, else a string of 1–16 hex
/// digits, as HexChain writes it. kInvalidArgument for anything else
/// ("zz", "", "-1", "0x12", 17 digits, a number): no malformed chain reads
/// as some other chain.
StatusOr<std::optional<std::uint64_t>> ChainOf(const JsonValue& message,
                                               const std::string& key) {
  const JsonValue* member = message.Find(key);
  if (member == nullptr || member->is_null()) {
    return std::optional<std::uint64_t>();
  }
  if (member->is_string()) {
    const std::string& text = member->string_value();
    const char* end = text.data() + text.size();
    std::uint64_t chain = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, chain, 16);
    if (!text.empty() && text.size() <= 16 && ec == std::errc() &&
        ptr == end) {
      return std::optional<std::uint64_t>(chain);
    }
  }
  return Status::InvalidArgument("member \"" + key +
                                 "\" must be a string of 1-16 hex digits");
}

/// Decodes an array of EncodeMutation payload strings.
StatusOr<std::vector<IngestMutation>> DecodePayloads(const JsonValue* array) {
  std::vector<IngestMutation> mutations;
  if (array == nullptr) return mutations;
  if (!array->is_array()) {
    return Status::InvalidArgument("repl: records/rows must be an array");
  }
  mutations.reserve(array->items().size());
  for (const JsonValue& item : array->items()) {
    if (!item.is_string()) {
      return Status::InvalidArgument(
          "repl: records/rows entries must be encoded payload strings");
    }
    auto decoded = DecodeMutation(item.string_value());
    if (!decoded.ok()) return decoded.status();
    mutations.push_back(std::move(*decoded));
  }
  return mutations;
}

JsonValue PayloadArray(const std::vector<std::string>& payloads) {
  JsonValue array = JsonValue::Array();
  for (const std::string& payload : payloads) {
    array.Append(JsonValue::String(payload));
  }
  return array;
}

/// Sequences ride as JSON numbers: doubles are exact through 2^53, far
/// beyond any log this system writes (chains, which use all 64 bits, ride
/// as hex strings instead).
JsonValue SeqNumber(std::uint64_t seq) {
  return JsonValue::Number(static_cast<double>(seq));
}

/// A sequence member: 0 when absent or null, else an integer in [0, 2^63)
/// checked before the cast — kInvalidArgument for 2.5, -1 or 1e300, which
/// a cast would truncate, clamp or make undefined.
StatusOr<std::uint64_t> SeqOf(const JsonValue& message,
                              const std::string& key) {
  auto seq = IntegerMember(message, key, 0, 0);
  if (!seq.ok()) return seq.status();
  return static_cast<std::uint64_t>(*seq);
}

}  // namespace

const char* ReplRoleName(ReplRole role) {
  switch (role) {
    case ReplRole::kStandalone:
      return "standalone";
    case ReplRole::kFollower:
      return "follower";
    case ReplRole::kCatchingUp:
      return "catching_up";
    case ReplRole::kPrimary:
      return "primary";
  }
  return "unknown";
}

ReplicationManager::ReplicationManager(DataStore* store,
                                       ReplicationOptions options)
    : store_(store), options_(std::move(options)), pool_(options_.upstream) {
  role_ = options_.peers.empty() ? ReplRole::kStandalone
                                 : ReplRole::kFollower;
  peers_.resize(options_.peers.size());
  for (std::size_t i = 0; i < options_.peers.size(); ++i) {
    peers_[i].endpoint = options_.peers[i];
  }
#if DOMD_OBS_COMPILED
  auto& registry = obs::MetricsRegistry::Default();
  for (Peer& peer : peers_) {
    peer.lag_cell = &registry.GetGauge("domd_repl_lag_records{peer=\"" +
                                       peer.endpoint.ToString() + "\"}");
  }
  catchups_cell_ = &registry.GetCounter("domd_repl_catchups_total");
#endif
  senders_.reserve(peers_.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    senders_.emplace_back([this, i] { SenderLoop(i); });
  }
  if (options_.start_primary && !peers_.empty()) {
    promoter_ = std::thread([this] { PromoterLoop(); });
  }
}

ReplicationManager::~ReplicationManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
    ack_cv_.notify_all();
  }
  for (std::thread& sender : senders_) {
    if (sender.joinable()) sender.join();
  }
  if (promoter_.joinable()) promoter_.join();
}

ReplRole ReplicationManager::role() const {
  std::lock_guard<std::mutex> lock(mu_);
  return role_;
}

std::uint64_t ReplicationManager::catchups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catchups_;
}

void ReplicationManager::NoteCatchup() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++catchups_;
  }
#if DOMD_OBS_COMPILED
  if (catchups_cell_ != nullptr && obs::Enabled()) {
    catchups_cell_->Increment();
  }
#endif
}

std::uint64_t ReplicationManager::lag() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (role_ != ReplRole::kPrimary) return 0;
  const std::uint64_t last = store_->last_seq();
  std::uint64_t worst = 0;
  for (const Peer& peer : peers_) {
    const std::uint64_t acked = std::min(peer.acked_seq, last);
    worst = std::max(worst, last - acked);
  }
  return worst;
}

StatusOr<JsonValue> ReplicationManager::RpcJson(
    const cluster::Endpoint& endpoint, const JsonValue& message) {
  auto line = pool_.Rpc(endpoint, message.Serialize(),
                        Clock::now() + options_.rpc_timeout);
  if (!line.ok()) return line.status();
  return JsonValue::Parse(*line);
}

void ReplicationManager::RecordAck(std::size_t peer_index,
                                   std::uint64_t acked_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  Peer& peer = peers_[peer_index];
  peer.acked_seq = std::max(peer.acked_seq, acked_seq);
  peer.last_contact = Clock::now();
  ack_cv_.notify_all();
#if DOMD_OBS_COMPILED
  if (peer.lag_cell != nullptr && obs::Enabled()) {
    const std::uint64_t last = store_->last_seq();
    peer.lag_cell->Set(
        static_cast<double>(last - std::min(peer.acked_seq, last)));
  }
#endif
}

Status ReplicationManager::EnsurePrimary() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (role_ == ReplRole::kPrimary || role_ == ReplRole::kStandalone) {
      return Status::OK();
    }
    if (role_ == ReplRole::kCatchingUp) {
      return Status::Unavailable(
          "repl: replica is catching up before accepting writes");
    }
    role_ = ReplRole::kCatchingUp;
  }
  const Status synced = SyncFromPeers();
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return Status::Unavailable("repl: shutting down");
  if (!synced.ok()) {
    role_ = ReplRole::kFollower;
    return synced;
  }
  role_ = ReplRole::kPrimary;
  // Senders take over from here: discover every peer's position and push
  // whatever each is missing.
  for (Peer& peer : peers_) peer.need_catchup = true;
  work_cv_.notify_all();
  return Status::OK();
}

Status ReplicationManager::PullSnapshot(const cluster::Endpoint& endpoint) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("catchup"));
  request.Set("from_seq", SeqNumber(0));  // force snapshot mode.
  auto response = RpcJson(endpoint, request);
  if (!response.ok()) return response.status();
  if (!response->BoolOr("ok", false) ||
      !response->BoolOr("snapshot", false)) {
    return Status::Unavailable("repl: peer " + endpoint.ToString() +
                               " did not serve a snapshot");
  }
  auto rows = DecodePayloads(response->Find("rows"));
  if (!rows.ok()) return rows.status();
  auto snap_seq = SeqOf(*response, "last_seq");
  if (!snap_seq.ok()) return snap_seq.status();
  auto chain = ChainOf(*response, "chain");
  if (!chain.ok()) return chain.status();
  return store_->InstallSnapshot(*rows, *snap_seq, chain->value_or(0));
}

Status ReplicationManager::SyncFromPeers() {
  // Pull the tail from every peer in turn; sequenced applies deduplicate,
  // so overlapping histories cost nothing and the result is the highest
  // acknowledged sequence any reachable peer holds. Unreachable peers are
  // skipped — a sole survivor must still be able to promote.
  for (const Peer& entry : peers_) {
    const cluster::Endpoint endpoint = entry.endpoint;
    bool made_progress = true;
    while (made_progress) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) return Status::Unavailable("repl: shutting down");
      }
      made_progress = false;
      // One consistent (seq, chain) pair: an apply landing between two
      // separate reads would send a chain that does not anchor from_seq.
      std::uint64_t have_seq = 0;
      std::uint64_t have_chain = 0;
      store_->Position(&have_seq, &have_chain);
      JsonValue request = JsonValue::Object();
      request.Set("cmd", JsonValue::String("catchup"));
      request.Set("from_seq", SeqNumber(have_seq + 1));
      request.Set("have_chain", JsonValue::String(HexChain(have_chain)));
      request.Set("max_records",
                  SeqNumber(static_cast<std::uint64_t>(
                      options_.catchup_batch)));
      auto response = RpcJson(endpoint, request);
      if (!response.ok()) break;  // unreachable: skip this peer.
      if (!response->BoolOr("ok", false)) break;
      if (response->BoolOr("behind", false)) break;  // nothing newer there.
      if (response->BoolOr("snapshot", false)) {
        auto rows = DecodePayloads(response->Find("rows"));
        if (!rows.ok()) return rows.status();
        auto snap_seq = SeqOf(*response, "last_seq");
        if (!snap_seq.ok()) return snap_seq.status();
        auto chain = ChainOf(*response, "chain");
        if (!chain.ok()) return chain.status();
        if (*snap_seq <= store_->last_seq()) break;  // no forward progress.
        DOMD_RETURN_IF_ERROR(
            store_->InstallSnapshot(*rows, *snap_seq, chain->value_or(0)));
        NoteCatchup();
        made_progress = true;
        continue;
      }
      auto records = DecodePayloads(response->Find("records"));
      if (!records.ok()) return records.status();
      if (records->empty()) break;
      auto first_seq = SeqOf(*response, "first_seq");
      if (!first_seq.ok()) return first_seq.status();
      const Status applied =
          store_->ApplyReplicated(*first_seq, *records, nullptr);
      if (!applied.ok()) {
        if (applied.code() != StatusCode::kDataLoss) return applied;
        // Our history diverged from this peer's below the chain anchor:
        // discard ours wholesale.
        DOMD_RETURN_IF_ERROR(PullSnapshot(endpoint));
      }
      NoteCatchup();
      made_progress = response->BoolOr("more", false);
    }
  }
  return Status::OK();
}

void ReplicationManager::PromoterLoop() {
  // Best-effort eager promotion (--repl-role primary): retry until the
  // sync succeeds or someone else pushed to us (we became a follower of
  // an active primary — stop trying; the write path re-promotes if the
  // router lands ingest here).
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_ || role_ == ReplRole::kPrimary) return;
      work_cv_.wait_for(lock, options_.idle_poll,
                        [this] { return stopping_; });
      if (stopping_) return;
    }
    (void)EnsurePrimary();
  }
}

void ReplicationManager::QueueBatch(std::uint64_t first_seq,
                                    std::vector<std::string> payloads) {
  if (payloads.empty() || peers_.empty()) return;
  std::size_t bytes = 0;
  for (const std::string& payload : payloads) bytes += payload.size();
  std::lock_guard<std::mutex> lock(mu_);
  for (Peer& peer : peers_) {
    // A peer already in catch-up reads the log instead; queueing behind
    // its back would only replay records the catch-up already covers.
    if (peer.need_catchup) continue;
    if (peer.queued_bytes + bytes > options_.queue_bytes) {
      // Overflow: the queue is an optimization, the log is the truth.
      // Drop everything queued and let the sender resync from the log.
      peer.queue.clear();
      peer.queued_bytes = 0;
      peer.need_catchup = true;
      continue;
    }
    peer.queue.push_back(Batch{first_seq, payloads, bytes});
    peer.queued_bytes += bytes;
  }
  work_cv_.notify_all();
}

Status ReplicationManager::AwaitQuorum(std::uint64_t seq) {
  if (options_.quorum <= 1 || peers_.empty()) return Status::OK();
  const std::size_t needed = options_.quorum - 1;
  if (needed > peers_.size()) {
    return Status::Unavailable(
        "repl: quorum " + std::to_string(options_.quorum) +
        " exceeds the replica set (" + std::to_string(peers_.size() + 1) +
        " replicas)");
  }
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = Clock::now() + options_.ack_timeout;
  const auto satisfied = [&] {
    std::size_t acks = 0;
    for (const Peer& peer : peers_) {
      if (peer.acked_seq >= seq) ++acks;
    }
    return acks >= needed;
  };
  ack_cv_.wait_until(lock, deadline,
                     [&] { return stopping_ || satisfied(); });
  if (satisfied()) return Status::OK();
  return Status::Unavailable(
      "repl: write quorum not reached for sequence " + std::to_string(seq) +
      " within " + std::to_string(options_.ack_timeout.count()) +
      "ms (durable locally; sequenced redelivery is idempotent)");
}

bool ReplicationManager::SendBatch(std::size_t peer_index,
                                   const Batch& batch) {
  const cluster::Endpoint endpoint = peers_[peer_index].endpoint;
  if (!DOMD_FAULT_POINT("repl.send").Check().ok()) return false;
  JsonValue message = JsonValue::Object();
  message.Set("cmd", JsonValue::String("replicate"));
  message.Set("first_seq", SeqNumber(batch.first_seq));
  message.Set("records", PayloadArray(batch.payloads));
  auto response = RpcJson(endpoint, message);
  if (!response.ok()) return false;
  // The ack-loss window: the follower applied the batch but this fault
  // eats the acknowledgement — the sender must fall back to catch-up,
  // which deduplicates by sequence on redelivery.
  if (!DOMD_FAULT_POINT("repl.ack").Check().ok()) return false;
  const auto peer_last = SeqOf(*response, "last_seq");
  if (!peer_last.ok()) return false;
  if (response->BoolOr("ok", false)) {
    RecordAck(peer_index, *peer_last);
    return true;
  }
  if (response->BoolOr("need_catchup", false)) {
    RecordAck(peer_index, *peer_last);  // learn its true position.
  }
  return false;
}

bool ReplicationManager::PushCatchup(std::size_t peer_index) {
  const cluster::Endpoint endpoint = peers_[peer_index].endpoint;
  // Probe: an empty sequenced batch at our head. Both possible answers
  // (ok / need_catchup) report the peer's last applied (seq, chain) pair.
  // The chain is load-bearing: after a failover, a restarted replica can
  // hold a record at the same sequence number from the dead primary's
  // unreplicated timeline. The number alone looks contiguous; only the
  // chain mismatch at the anchor reveals the divergence, and TailFrom
  // answers it with a snapshot instead of extending the wrong history.
  std::uint64_t next = 0;
  std::uint64_t peer_chain = 0;
  bool peer_chain_known = false;
  // The peer's (seq, chain) position; nullopt when either is malformed.
  const auto note_position =
      [&](const JsonValue& response) -> std::optional<std::uint64_t> {
    const auto peer_last = SeqOf(response, "last_seq");
    const auto chain = ChainOf(response, "chain");
    if (!peer_last.ok() || !chain.ok()) return std::nullopt;
    RecordAck(peer_index, *peer_last);
    peer_chain_known = chain->has_value();
    peer_chain = chain->value_or(0);
    return *peer_last;
  };
  {
    if (!DOMD_FAULT_POINT("repl.send").Check().ok()) return false;
    JsonValue probe = JsonValue::Object();
    probe.Set("cmd", JsonValue::String("replicate"));
    probe.Set("first_seq", SeqNumber(store_->last_seq() + 1));
    probe.Set("records", JsonValue::Array());
    auto response = RpcJson(endpoint, probe);
    if (!response.ok()) return false;
    const auto peer_last = note_position(*response);
    if (!peer_last.has_value()) return false;
    next = *peer_last + 1;
  }
  bool transferred = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || role_ != ReplRole::kPrimary) return false;
    }
    auto tail = store_->TailFrom(
        next, peer_chain_known ? &peer_chain : nullptr,
        options_.catchup_batch);
    if (!tail.ok()) return false;
    if (tail->requester_ahead ||
        (!tail->snapshot && tail->records.empty())) {
      break;  // the peer is level with us.
    }
    JsonValue message = JsonValue::Object();
    message.Set("cmd", JsonValue::String("replicate"));
    if (tail->snapshot) {
      message.Set("snapshot", JsonValue::Bool(true));
      message.Set("rows", PayloadArray(tail->rows));
      message.Set("last_seq", SeqNumber(tail->last_seq));
      message.Set("chain", JsonValue::String(HexChain(tail->chain)));
    } else {
      message.Set("first_seq", SeqNumber(tail->first_seq));
      message.Set("records", PayloadArray(tail->records));
    }
    if (!DOMD_FAULT_POINT("repl.send").Check().ok()) return false;
    auto response = RpcJson(endpoint, message);
    if (!response.ok()) return false;
    if (!DOMD_FAULT_POINT("repl.ack").Check().ok()) return false;
    if (response->BoolOr("ok", false)) {
      const auto peer_last = note_position(*response);
      // No forward progress (or a malformed position).
      if (!peer_last.has_value() || *peer_last < next) return false;
      next = *peer_last + 1;
      transferred = true;
      continue;
    }
    if (response->BoolOr("diverged", false)) {
      // The peer's history contradicts ours where sequences overlap:
      // replace it wholesale with a snapshot at our head.
      auto snapshot = store_->TailFrom(0, nullptr, 0);
      if (!snapshot.ok()) return false;
      JsonValue install = JsonValue::Object();
      install.Set("cmd", JsonValue::String("replicate"));
      install.Set("snapshot", JsonValue::Bool(true));
      install.Set("rows", PayloadArray(snapshot->rows));
      install.Set("last_seq", SeqNumber(snapshot->last_seq));
      install.Set("chain", JsonValue::String(HexChain(snapshot->chain)));
      auto installed = RpcJson(endpoint, install);
      if (!installed.ok() || !installed->BoolOr("ok", false)) return false;
      const auto peer_last = note_position(*installed);
      if (!peer_last.has_value()) return false;
      next = *peer_last + 1;
      transferred = true;
      continue;
    }
    if (response->BoolOr("need_catchup", false)) {
      (void)note_position(*response);  // learn its true (seq, chain).
      const auto next_seq = SeqOf(*response, "next_seq");
      if (!next_seq.ok() || *next_seq == 0 || *next_seq == next) {
        return false;  // stuck.
      }
      next = *next_seq;
      continue;
    }
    return false;  // hard application error on the peer.
  }
  if (transferred) NoteCatchup();
  return true;
}

void ReplicationManager::SenderLoop(std::size_t peer_index) {
  std::unique_lock<std::mutex> lock(mu_);
  Peer& peer = peers_[peer_index];
  while (!stopping_) {
    work_cv_.wait_for(lock, options_.idle_poll, [&] {
      return stopping_ ||
             (role_ == ReplRole::kPrimary &&
              (!peer.queue.empty() || peer.need_catchup));
    });
    if (stopping_) break;
    if (role_ != ReplRole::kPrimary) {
      // Demoted (or never promoted): queued batches belong to a write
      // path we no longer own.
      peer.queue.clear();
      peer.queued_bytes = 0;
      continue;
    }
    const std::uint64_t last = store_->last_seq();
    const bool stale_contact =
        Clock::now() - peer.last_contact > 5 * options_.idle_poll;
    if (peer.need_catchup ||
        (peer.queue.empty() && (peer.acked_seq < last || stale_contact))) {
      // Log-based resync: covers queue overflow, transport failures, a
      // follower that silently restarted empty, and the periodic
      // liveness probe of an otherwise idle cluster.
      peer.need_catchup = false;
      lock.unlock();
      const bool ok = PushCatchup(peer_index);
      lock.lock();
      if (!ok && role_ == ReplRole::kPrimary) {
        peer.need_catchup = true;
        // Back off one idle tick instead of hot-spinning on a dead peer.
        work_cv_.wait_for(lock, options_.idle_poll,
                          [this] { return stopping_; });
      }
      continue;
    }
    if (peer.queue.empty()) continue;
    Batch batch = std::move(peer.queue.front());
    peer.queue.pop_front();
    peer.queued_bytes -= batch.bytes;
    lock.unlock();
    const bool sent = SendBatch(peer_index, batch);
    lock.lock();
    if (!sent) {
      peer.queue.clear();
      peer.queued_bytes = 0;
      peer.need_catchup = true;
    }
  }
}

void ReplicationManager::DemoteOnPush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (role_ != ReplRole::kPrimary) return;
  // A valid push means another replica is acting primary: the write path
  // defines the role, so step down. Senders drop their queues on the next
  // wake.
  role_ = ReplRole::kFollower;
  work_cv_.notify_all();
}

JsonValue ReplicationManager::HandleReplicate(const JsonValue& request) {
  if (request.BoolOr("snapshot", false)) {
    auto rows = DecodePayloads(request.Find("rows"));
    if (!rows.ok()) return ErrorToJson(rows.status());
    const auto snap_seq = SeqOf(request, "last_seq");
    if (!snap_seq.ok()) return ErrorToJson(snap_seq.status());
    const auto snap_chain = ChainOf(request, "chain");
    if (!snap_chain.ok()) return ErrorToJson(snap_chain.status());
    const Status installed =
        store_->InstallSnapshot(*rows, *snap_seq, snap_chain->value_or(0));
    if (!installed.ok()) return ErrorToJson(installed);
    // Counted where the data landed, not only on the pusher: if the ack
    // for this install is lost in flight, the primary's retry finds us
    // level and records no transfer, but the catch-up still happened.
    NoteCatchup();
    DemoteOnPush();
    std::uint64_t last_seq = 0;
    std::uint64_t chain = 0;
    store_->Position(&last_seq, &chain);
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(true));
    out.Set("last_seq", SeqNumber(last_seq));
    out.Set("chain", JsonValue::String(HexChain(chain)));
    return out;
  }
  const auto first_seq = SeqOf(request, "first_seq");
  if (!first_seq.ok()) return ErrorToJson(first_seq.status());
  if (*first_seq == 0) {
    return ErrorToJson(
        Status::InvalidArgument("replicate needs \"first_seq\" >= 1"));
  }
  auto records = DecodePayloads(request.Find("records"));
  if (!records.ok()) return ErrorToJson(records.status());
  const Status applied = store_->ApplyReplicated(*first_seq, *records);
  // Every answer carries the local (last_seq, chain) position as one
  // consistent pair: the sender anchors its next TailFrom on it, and the
  // chain is what lets a primary detect that this replica's record at
  // last_seq belongs to a different timeline (same number, different
  // history) before extending it.
  std::uint64_t last_seq = 0;
  std::uint64_t chain = 0;
  store_->Position(&last_seq, &chain);
  if (applied.ok()) {
    if (!records->empty()) DemoteOnPush();
    JsonValue out = JsonValue::Object();
    out.Set("ok", JsonValue::Bool(true));
    out.Set("last_seq", SeqNumber(last_seq));
    out.Set("chain", JsonValue::String(HexChain(chain)));
    return out;
  }
  JsonValue out = ErrorToJson(applied);
  out.Set("last_seq", SeqNumber(last_seq));
  out.Set("chain", JsonValue::String(HexChain(chain)));
  if (applied.code() == StatusCode::kFailedPrecondition) {
    out.Set("need_catchup", JsonValue::Bool(true));
    out.Set("next_seq", SeqNumber(last_seq + 1));
  } else if (applied.code() == StatusCode::kDataLoss) {
    out.Set("diverged", JsonValue::Bool(true));
  }
  return out;
}

JsonValue ReplicationManager::HandleCatchup(const JsonValue& request) {
  const auto from_seq = SeqOf(request, "from_seq");
  if (!from_seq.ok()) return ErrorToJson(from_seq.status());
  const auto max_records = IntegerMember(
      request, "max_records",
      static_cast<std::int64_t>(options_.catchup_batch), 0);
  if (!max_records.ok()) return ErrorToJson(max_records.status());
  const auto have_chain = ChainOf(request, "have_chain");
  if (!have_chain.ok()) return ErrorToJson(have_chain.status());
  auto tail = store_->TailFrom(
      *from_seq, have_chain->has_value() ? &have_chain->value() : nullptr,
      static_cast<std::size_t>(*max_records));
  if (!tail.ok()) return ErrorToJson(tail.status());
  NoteCatchup();
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("last_seq", SeqNumber(tail->last_seq));
  if (tail->requester_ahead) {
    out.Set("behind", JsonValue::Bool(true));
    return out;
  }
  if (tail->snapshot) {
    out.Set("snapshot", JsonValue::Bool(true));
    out.Set("chain", JsonValue::String(HexChain(tail->chain)));
    out.Set("rows", PayloadArray(tail->rows));
    return out;
  }
  out.Set("first_seq", SeqNumber(tail->first_seq));
  out.Set("records", PayloadArray(tail->records));
  out.Set("more", JsonValue::Bool(tail->more));
  return out;
}

JsonValue ReplicationManager::StatsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue out = JsonValue::Object();
  out.Set("role", JsonValue::String(ReplRoleName(role_)));
  out.Set("quorum", SeqNumber(static_cast<std::uint64_t>(options_.quorum)));
  out.Set("last_seq", SeqNumber(store_->last_seq()));
  out.Set("catchups", SeqNumber(catchups_));
  JsonValue peer_array = JsonValue::Array();
  for (const Peer& peer : peers_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("endpoint", JsonValue::String(peer.endpoint.ToString()));
    entry.Set("acked_seq", SeqNumber(peer.acked_seq));
    entry.Set("queued_bytes",
              SeqNumber(static_cast<std::uint64_t>(peer.queued_bytes)));
    entry.Set("catching_up", JsonValue::Bool(peer.need_catchup));
    peer_array.Append(std::move(entry));
  }
  out.Set("peers", std::move(peer_array));
  return out;
}

}  // namespace domd
