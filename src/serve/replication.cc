#include "serve/replication.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "fault/fault.h"
#include "serve/wire.h"

namespace domd {
namespace {

/// A chain member: nullopt when absent or null, else a string of 1–16 hex
/// digits, as Hex64 writes it. kInvalidArgument for anything else
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
    : store_(store), options_(std::move(options)) {
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

std::optional<ReplicationManager::Position>
ReplicationManager::RecordPosition(std::size_t peer_index,
                                   const JsonValue& response) {
  const auto seq = SeqOf(response, "last_seq");
  const auto chain = ChainOf(response, "chain");
  if (!seq.ok() || !chain.ok() || !chain->has_value()) return std::nullopt;
  const Position position{*seq, **chain};
  std::lock_guard<std::mutex> lock(mu_);
  Peer& peer = peers_[peer_index];
  peer.acked_seq = std::max(peer.acked_seq, position.seq);
  peer.position = position;
  peer.last_contact = Clock::now();
  ack_cv_.notify_all();
#if DOMD_OBS_COMPILED
  if (peer.lag_cell != nullptr && obs::Enabled()) {
    const std::uint64_t last = store_->last_seq();
    peer.lag_cell->Set(
        static_cast<double>(last - std::min(peer.acked_seq, last)));
  }
#endif
  return position;
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
  // Senders take over from here: probe every peer's position and push
  // whatever each is missing.
  for (Peer& peer : peers_) peer.position.reset();
  work_cv_.notify_all();
  return Status::OK();
}

Status ReplicationManager::SyncFromPeers() {
  // Pull the tail from every peer in turn; sequenced applies deduplicate,
  // so overlapping histories cost nothing and the result is the highest
  // acknowledged sequence any reachable peer holds. Unreachable peers are
  // skipped — a sole survivor must still be able to promote.
  for (const Peer& entry : peers_) {
    const cluster::Endpoint endpoint = entry.endpoint;
    // Set once our history diverged from this peer's below the chain
    // anchor: the next request asks for a snapshot (from_seq 0), and
    // whatever the peer sends replaces our history wholesale.
    bool want_snapshot = false;
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
      request.Set("from_seq", SeqNumber(want_snapshot ? 0 : have_seq + 1));
      request.Set("have_chain", JsonValue::String(Hex64(have_chain)));
      request.Set("max_records",
                  SeqNumber(static_cast<std::uint64_t>(
                      options_.catchup_batch)));
      auto response = RpcJson(endpoint, request);
      if (!response.ok() || !response->BoolOr("ok", false)) {
        if (!want_snapshot) break;  // unreachable: skip this peer.
        return Status::Unavailable("repl: peer " + endpoint.ToString() +
                                   " did not serve a snapshot");
      }
      if (response->BoolOr("behind", false)) break;  // nothing newer there.
      if (response->BoolOr("snapshot", false)) {
        auto rows = DecodePayloads(response->Find("rows"));
        if (!rows.ok()) return rows.status();
        auto snap_seq = SeqOf(*response, "last_seq");
        if (!snap_seq.ok()) return snap_seq.status();
        auto chain = ChainOf(*response, "chain");
        if (!chain.ok()) return chain.status();
        if (!want_snapshot && *snap_seq <= store_->last_seq()) {
          break;  // no forward progress.
        }
        DOMD_RETURN_IF_ERROR(
            store_->InstallSnapshot(*rows, *snap_seq, chain->value_or(0)));
        NoteCatchup();
        want_snapshot = false;
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
        want_snapshot = true;
        made_progress = true;
        continue;
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

Status ReplicationManager::AwaitQuorum(std::uint64_t seq) {
  if (peers_.empty()) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  // The records through `seq` are in the store's tail: wake the senders,
  // which ship from it.
  work_cv_.notify_all();
  if (options_.quorum <= 1) return Status::OK();
  const std::size_t needed = options_.quorum - 1;
  if (needed > peers_.size()) {
    return Status::Unavailable(
        "repl: quorum " + std::to_string(options_.quorum) +
        " exceeds the replica set (" + std::to_string(peers_.size() + 1) +
        " replicas)");
  }
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

bool ReplicationManager::PushTail(std::size_t peer_index) {
  const cluster::Endpoint endpoint = peers_[peer_index].endpoint;
  std::optional<Position> at;
  {
    std::lock_guard<std::mutex> lock(mu_);
    at = peers_[peer_index].position;
  }
  const bool probed = !at.has_value();
  if (probed) {
    // Probe: an empty sequenced batch at our head. Both possible answers
    // (ok / need_catchup) report the peer's last applied (seq, chain)
    // pair. The chain is load-bearing: after a failover, a restarted
    // replica can hold a record at the same sequence number from the dead
    // primary's unreplicated timeline. The number alone looks contiguous;
    // only the chain mismatch at the anchor reveals the divergence, and
    // TailFrom answers it with a snapshot instead of extending the wrong
    // history.
    if (!DOMD_FAULT_POINT("repl.send").Check().ok()) return false;
    JsonValue probe = JsonValue::Object();
    probe.Set("cmd", JsonValue::String("replicate"));
    probe.Set("first_seq", SeqNumber(store_->last_seq() + 1));
    probe.Set("records", JsonValue::Array());
    auto response = RpcJson(endpoint, probe);
    if (!response.ok()) return false;
    at = RecordPosition(peer_index, *response);
    if (!at.has_value()) return false;
  }
  // A push that had to find the peer first, or that shipped a snapshot,
  // is a catch-up; the push of a just-appended batch is not.
  bool caught_up = false;
  // from_seq 0 asks TailFrom for a snapshot (the peer diverged).
  std::uint64_t from = at->seq + 1;
  std::uint64_t chain = at->chain;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || role_ != ReplRole::kPrimary) return false;
    }
    auto tail = store_->TailFrom(from, from == 0 ? nullptr : &chain,
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
      message.Set("chain", JsonValue::String(Hex64(tail->chain)));
    } else {
      message.Set("first_seq", SeqNumber(tail->first_seq));
      message.Set("records", PayloadArray(tail->records));
    }
    if (!DOMD_FAULT_POINT("repl.send").Check().ok()) return false;
    auto response = RpcJson(endpoint, message);
    if (!response.ok()) return false;
    // The ack-loss window: the peer applied the push but this fault eats
    // the answer. The next push probes again, and the peer deduplicates
    // the redelivered records by sequence.
    if (!DOMD_FAULT_POINT("repl.ack").Check().ok()) return false;
    if (response->BoolOr("diverged", false)) {
      // The peer's history contradicts ours where sequences overlap:
      // replace it wholesale with a snapshot at our head.
      from = 0;
      continue;
    }
    const bool applied = response->BoolOr("ok", false);
    if (!applied && !response->BoolOr("need_catchup", false)) {
      return false;  // hard application error on the peer.
    }
    const auto position = RecordPosition(peer_index, *response);
    if (!position.has_value()) return false;
    if (applied) {
      if (position->seq < from) return false;  // no forward progress.
      caught_up = caught_up || probed || tail->snapshot;
    } else if (position->seq + 1 == from) {
      return false;  // a gap at the sequence we sent: stuck.
    }
    from = position->seq + 1;
    chain = position->chain;
  }
  if (caught_up) NoteCatchup();
  return true;
}

void ReplicationManager::SenderLoop(std::size_t peer_index) {
  std::unique_lock<std::mutex> lock(mu_);
  Peer& peer = peers_[peer_index];
  const auto stale_contact = [&] {
    return Clock::now() - peer.last_contact > 5 * options_.idle_poll;
  };
  // A primary pushes when it does not know the peer's position, when the
  // peer trails the store, or when contact went stale: the liveness probe
  // of an idle cluster, which finds a follower that silently restarted.
  // mu_ does not guard the store's last_seq, but AwaitQuorum notifies
  // under mu_ after every append, so no wait misses a record to ship.
  const auto push_due = [&] {
    return role_ == ReplRole::kPrimary &&
           (!peer.position.has_value() ||
            peer.position->seq < store_->last_seq() || stale_contact());
  };
  while (!stopping_) {
    work_cv_.wait_for(lock, options_.idle_poll,
                      [&] { return stopping_ || push_due(); });
    if (stopping_) break;
    if (!push_due()) continue;
    if (stale_contact()) peer.position.reset();
    lock.unlock();
    const bool pushed = PushTail(peer_index);
    lock.lock();
    if (!pushed) {
      peer.position.reset();
      if (role_ == ReplRole::kPrimary) {
        // Back off one idle tick instead of hot-spinning on a dead peer.
        work_cv_.wait_for(lock, options_.idle_poll,
                          [this] { return stopping_; });
      }
    }
  }
}

void ReplicationManager::DemoteOnPush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (role_ != ReplRole::kPrimary) return;
  // A valid push means another replica is acting primary: the write path
  // defines the role, so step down. Senders stop pushing on their next
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
    out.Set("chain", JsonValue::String(Hex64(chain)));
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
    out.Set("chain", JsonValue::String(Hex64(chain)));
    return out;
  }
  JsonValue out = ErrorToJson(applied);
  out.Set("last_seq", SeqNumber(last_seq));
  out.Set("chain", JsonValue::String(Hex64(chain)));
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
    out.Set("chain", JsonValue::String(Hex64(tail->chain)));
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
    entry.Set("catching_up", JsonValue::Bool(!peer.position.has_value()));
    peer_array.Append(std::move(entry));
  }
  out.Set("peers", std::move(peer_array));
  return out;
}

}  // namespace domd
