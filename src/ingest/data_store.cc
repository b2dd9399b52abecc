#include "ingest/data_store.h"

#include <algorithm>
#include <filesystem>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cache/fingerprint.h"
#include "fault/fault.h"

namespace domd {
namespace {

/// The answer to an RCC that names an avail neither the store nor its
/// batch holds: appends and snapshot installs reject it alike.
Status UnknownAvail(const Rcc& rcc) {
  return Status::NotFound("ingest: RCC " + std::to_string(rcc.id) +
                          " references unknown avail " +
                          std::to_string(rcc.avail_id));
}

/// Applies mutations in their original append (= sequence) order on top
/// of a copy of the base. Sequence order is load-bearing for replication
/// (DESIGN.md §15): applying a history prefix and then the rest produces
/// the same tables, row for row, as applying everything at once, so
/// replicas that merge at different cut points still converge to
/// bit-identical epochs. Re-applying an already-merged prefix is harmless:
/// upserts are idempotent and never move an existing row. Mutations were
/// validated at append/replay time, so upserts cannot fail here; a record
/// that still fails (defensive) is skipped deterministically.
std::shared_ptr<const Dataset> Materialize(
    const Dataset& base, const std::vector<IngestMutation>& ordered) {
  auto merged = std::make_shared<Dataset>(base);
  for (const IngestMutation& mutation : ordered) {
    if (mutation.kind == MutationKind::kAvailUpsert) {
      (void)merged->avails.Upsert(mutation.avail);
    } else {
      (void)merged->rccs.Upsert(mutation.rcc);
    }
  }
  return merged;
}

/// The rows one table of a cut shows that its base does not: the latest
/// pending value of each base row a tail record overrides, and the ids new
/// to the table in order of first appearance in the tail.
template <typename Row>
struct PendingRows {
  std::vector<std::pair<std::size_t, const Row*>> overrides;  ///< by row.
  std::vector<const Row*> added;
};

/// Splits one table's tail records into PendingRows against its base table
/// (`Row` and `Table` are Avail/AvailTable or Rcc/RccTable).
template <typename Row, typename Table>
PendingRows<Row> CollectPendingRows(const Table& base,
                                    const std::vector<const Row*>& records) {
  constexpr std::size_t kNotInBase = static_cast<std::size_t>(-1);
  // In first-appearance order: (base row or kNotInBase, latest value).
  std::vector<std::pair<std::size_t, const Row*>> latest;
  std::unordered_map<std::int64_t, std::size_t> slot_of;
  slot_of.reserve(records.size());
  for (const Row* row : records) {
    const auto [it, fresh] = slot_of.emplace(row->id, latest.size());
    if (!fresh) {
      latest[it->second].second = row;
      continue;
    }
    const auto found = base.Find(row->id);
    latest.emplace_back(
        found.ok() ? static_cast<std::size_t>(*found - base.rows().data())
                   : kNotInBase,
        row);
  }
  PendingRows<Row> out;
  for (const auto& [base_row, value] : latest) {
    if (base_row == kNotInBase) {
      out.added.push_back(value);
    } else {
      out.overrides.emplace_back(base_row, value);
    }
  }
  std::sort(out.overrides.begin(), out.overrides.end());
  return out;
}

/// Feeds one table of the cut to the fingerprint: base rows in table order,
/// each replaced by its pending value, then the added rows.
template <typename Row>
void StreamRows(std::span<const Row> base_rows,
                const PendingRows<Row>& pending,
                DatasetFingerprintStream* stream) {
  std::size_t next = 0;
  for (const auto& [row, value] : pending.overrides) {
    stream->Add(base_rows.subspan(next, row - next));
    stream->Add(std::span<const Row>(value, 1));
    next = row + 1;
  }
  stream->Add(base_rows.subspan(next));
  for (const Row* row : pending.added) {
    stream->Add(std::span<const Row>(row, 1));
  }
}

/// ComputeDatasetFingerprint(*Materialize(base, tail)) without building
/// either: the same rows in the same order go through the fingerprint.
/// Materialize keeps each base row in place with the last upsert of its
/// id, appends new ids in order of first appearance, and skips a record
/// its Upsert rejects — exactly the records ValidateMutation rejects. Only
/// the last write per id counts, so re-applying an already-merged tail
/// prefix changes nothing here either. Row fields are all the fingerprint
/// reads: an RCC moved to another avail keeps its row, and an avail amend
/// changes only its row.
std::uint64_t CutEpoch(const Dataset& base,
                       const std::vector<IngestMutation>& tail) {
  std::vector<const Avail*> avail_records;
  std::vector<const Rcc*> rcc_records;
  for (const IngestMutation& mutation : tail) {
    if (!ValidateMutation(mutation).ok()) continue;
    if (mutation.kind == MutationKind::kAvailUpsert) {
      avail_records.push_back(&mutation.avail);
    } else {
      rcc_records.push_back(&mutation.rcc);
    }
  }
  const auto avails = CollectPendingRows(base.avails, avail_records);
  const auto rccs = CollectPendingRows(base.rccs, rcc_records);
  DatasetFingerprintStream stream(base.avails.size() + avails.added.size());
  StreamRows(std::span(base.avails.rows()), avails, &stream);
  stream.BeginRccs(base.rccs.size() + rccs.added.size());
  StreamRows(std::span(base.rccs.rows()), rccs, &stream);
  return stream.value();
}

}  // namespace

Status WriteBaseTables(const Dataset& data, const std::string& dir) {
  DOMD_RETURN_IF_ERROR(
      WriteFileDurably(dir + "/avails.csv", data.avails.ToCsv().Serialize()));
  return WriteFileDurably(dir + "/rccs.csv", data.rccs.ToCsv().Serialize());
}

StatusOr<std::unique_ptr<DataStore>> DataStore::Open(
    Dataset base, DataStoreOptions options) {
  auto store = std::unique_ptr<DataStore>(new DataStore());
  store->options_ = std::move(options);
  store->base_ = std::make_shared<const Dataset>(std::move(base));
  store->base_epoch_ = ComputeDatasetFingerprint(*store->base_);
  if (!store->options_.log_path.empty()) {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(store->options_.log_path, &replay);
    if (!log.ok()) return log.status();
    store->log_ = std::move(*log);
    store->tail_base_seq_ = replay.base_seq;
    store->tail_base_chain_ = replay.base_chain;
    store->last_seq_ = replay.base_seq;
    store->last_chain_ = replay.base_chain;
    for (IngestMutation& mutation : replay.records) {
      store->last_chain_ =
          MutationChain(store->last_chain_, EncodeMutation(mutation));
      ++store->last_seq_;
      store->pending_[{mutation.kind, mutation.key_id()}] = store->last_seq_;
      store->tail_.push_back({std::move(mutation), store->last_chain_});
    }
    store->replayed_ = replay.records.size();
    if (store->replayed_ > 0) store->generation_ = 1;
  }
  if (store->options_.merge_threshold > 0) {
    store->merger_ = std::thread([s = store.get()] { s->MergerLoop(); });
  }
  return store;
}

StatusOr<std::unique_ptr<DataStore>> DataStore::OpenDir(
    const std::string& dir, DataStoreOptions options) {
  auto avails = AvailTable::ReadFile(dir + "/avails.csv");
  if (!avails.ok()) return avails.status();
  auto rccs = RccTable::ReadFile(dir + "/rccs.csv");
  if (!rccs.ok()) return rccs.status();
  Dataset base;
  base.avails = std::move(*avails);
  base.rccs = std::move(*rccs);
  if (options.log_path.empty()) {
    const std::string log_path = dir + "/ingest.log";
    if (!options.adopt_existing_log_only ||
        std::filesystem::exists(log_path)) {
      options.log_path = log_path;
    }
  }
  if (options.persist_dir.empty()) options.persist_dir = dir;
  return Open(std::move(base), std::move(options));
}

DataStore::~DataStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    merge_cv_.notify_all();
  }
  if (merger_.joinable()) merger_.join();
}

bool DataStore::HasAvailLocked(std::int64_t avail_id) const {
  return pending_.count({MutationKind::kAvailUpsert, avail_id}) > 0 ||
         base_->avails.Find(avail_id).ok();
}

Status DataStore::ValidateBatchLocked(
    const std::vector<IngestMutation>& mutations) const {
  std::unordered_set<std::int64_t> batch_avails;
  for (const IngestMutation& mutation : mutations) {
    DOMD_RETURN_IF_ERROR(ValidateMutation(mutation));
    if (mutation.kind == MutationKind::kAvailUpsert) {
      batch_avails.insert(mutation.avail.id);
    } else if (batch_avails.count(mutation.rcc.avail_id) == 0 &&
               !HasAvailLocked(mutation.rcc.avail_id)) {
      return UnknownAvail(mutation.rcc);
    }
  }
  return Status::OK();
}

void DataStore::AbsorbBatchLocked(
    const std::vector<IngestMutation>& mutations) {
  for (const IngestMutation& mutation : mutations) {
    last_chain_ = MutationChain(last_chain_, EncodeMutation(mutation));
    ++last_seq_;
    tail_.push_back({mutation, last_chain_});
    pending_[{mutation.kind, mutation.key_id()}] = last_seq_;
  }
  ++generation_;
  if (options_.merge_threshold > 0 &&
      PendingLocked() >= options_.merge_threshold) {
    merge_cv_.notify_all();
  }
}

Status DataStore::Append(const IngestMutation& mutation) {
  return AppendBatch({mutation});
}

Status DataStore::AppendBatch(const std::vector<IngestMutation>& mutations,
                              std::uint64_t* last_seq) {
  // Validation, log write, and tail append all happen under append_mu_
  // (mu_ is taken inside it, matching Merge's rotation block): referential
  // checks and visibility use one consistent cut, so an RCC referencing an
  // avail from any previously acknowledged batch can never be spuriously
  // rejected by a validate-then-apply race.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  if (mutations.empty()) {
    if (last_seq != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      *last_seq = last_seq_;
    }
    return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    DOMD_RETURN_IF_ERROR(ValidateBatchLocked(mutations));
  }
  if (log_ != nullptr) {
    DOMD_RETURN_IF_ERROR(log_->AppendBatch(mutations));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    AbsorbBatchLocked(mutations);
    appended_ += mutations.size();
    if (last_seq != nullptr) *last_seq = last_seq_;
  }
  return Status::OK();
}

Status DataStore::ApplyReplicated(
    std::uint64_t first_seq, const std::vector<IngestMutation>& mutations,
    std::uint64_t* applied_last_seq) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("repl.apply").Check());
  std::lock_guard<std::mutex> append_lock(append_mu_);
  std::vector<IngestMutation> fresh;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (applied_last_seq != nullptr) *applied_last_seq = last_seq_;
    if (first_seq > last_seq_ + 1) {
      return Status::FailedPrecondition(
          "repl: batch starts at sequence " + std::to_string(first_seq) +
          " but local history ends at " + std::to_string(last_seq_));
    }
    // Deduplicate the already-applied overlap by sequence number —
    // at-least-once redelivery is expected — but insist the sender's
    // bytes match our history where we can still check (records newer
    // than the last merge cut). A mismatch means the timelines diverged
    // and only a snapshot install reconciles them. Overlap at or below
    // the cut was compacted away; the catch-up chain handshake covers
    // prefix verification there.
    std::size_t skip = 0;
    for (; skip < mutations.size(); ++skip) {
      const std::uint64_t seq = first_seq + skip;
      if (seq > last_seq_) break;
      if (seq > tail_base_seq_) {
        const TailRecord& local =
            tail_[static_cast<std::size_t>(seq - tail_base_seq_ - 1)];
        if (EncodeMutation(local.mutation) !=
            EncodeMutation(mutations[skip])) {
          return Status::DataLoss("repl: history diverged at sequence " +
                                  std::to_string(seq));
        }
      }
    }
    fresh.assign(mutations.begin() + static_cast<std::ptrdiff_t>(skip),
                 mutations.end());
    if (!fresh.empty()) {
      DOMD_RETURN_IF_ERROR(ValidateBatchLocked(fresh));
    }
  }
  if (fresh.empty()) return Status::OK();
  if (log_ != nullptr) {
    DOMD_RETURN_IF_ERROR(log_->AppendBatch(fresh));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    AbsorbBatchLocked(fresh);
    replicated_ += fresh.size();
    if (applied_last_seq != nullptr) *applied_last_seq = last_seq_;
  }
  return Status::OK();
}

StatusOr<ReplTail> DataStore::TailFrom(std::uint64_t from_seq,
                                       const std::uint64_t* have_chain,
                                       std::size_t max_records) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("repl.catchup").Check());
  ReplTail out;
  // Tail mode reads under mu_ alone: every writer of tail_ holds it, so a
  // push never waits on an append's or a log rotation's fsync. from_seq 0
  // is the explicit "my history is useless, send everything" request: skip
  // the chain handshake and export a snapshot directly.
  if (from_seq != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    out.last_seq = last_seq_;
    out.chain = last_chain_;
    if (from_seq > last_seq_ + 1) {
      out.requester_ahead = true;
      return out;
    }
    // The requester claims history through from_seq - 1. Verify its chain
    // against ours at that anchor when we still hold it; an anchor below
    // our tail base means the records it wants were compacted into the
    // base tables, and only a snapshot can bring it forward.
    const std::uint64_t anchor = from_seq - 1;
    const bool compacted = anchor < tail_base_seq_;
    const bool diverged =
        !compacted && have_chain != nullptr &&
        *have_chain != (anchor == tail_base_seq_
                            ? tail_base_chain_
                            : tail_[static_cast<std::size_t>(
                                        anchor - tail_base_seq_ - 1)]
                                  .chain);
    if (!compacted && !diverged) {
      out.first_seq = from_seq;
      const std::uint64_t end =
          std::min<std::uint64_t>(last_seq_, from_seq + max_records - 1);
      out.records.reserve(
          static_cast<std::size_t>(end >= from_seq ? end - from_seq + 1 : 0));
      for (std::uint64_t seq = from_seq; seq <= end; ++seq) {
        out.records.push_back(EncodeMutation(
            tail_[static_cast<std::size_t>(seq - tail_base_seq_ - 1)]
                .mutation));
      }
      out.more = end < last_seq_;
      return out;
    }
  }
  // Snapshot export. append_mu_ pins the store: no writer can advance it
  // between the position read below and the Snapshot() call, so the
  // exported rows are exactly the state at (last_seq, chain).
  std::lock_guard<std::mutex> append_lock(append_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.last_seq = last_seq_;
    out.chain = last_chain_;
  }
  const auto snap = Snapshot();
  out.snapshot = true;
  const Dataset& data = snap->data();
  out.rows.reserve(data.avails.rows().size() + data.rccs.rows().size());
  for (const Avail& avail : data.avails.rows()) {
    out.rows.push_back(EncodeAvailUpsert(avail));
  }
  for (const Rcc& rcc : data.rccs.rows()) {
    out.rows.push_back(EncodeRccUpsert(rcc));
  }
  return out;
}

Status DataStore::InstallSnapshot(const std::vector<IngestMutation>& rows,
                                  std::uint64_t last_seq,
                                  std::uint64_t chain) {
  if (log_ != nullptr && options_.persist_dir.empty()) {
    return Status::FailedPrecondition(
        "repl: snapshot install needs a persist_dir when a log is "
        "attached (the rotated-empty log is only recoverable next to "
        "freshly persisted base tables)");
  }
  // Build the replacement dataset outside every lock: rows arrive avail
  // rows first, then RCC rows, both in the responder's table row order,
  // so upserting them in order reproduces its tables byte for byte.
  // An RCC must name an avail upserted before it, as Append requires; a
  // rejected snapshot installs nothing.
  Dataset data;
  for (const IngestMutation& row : rows) {
    DOMD_RETURN_IF_ERROR(ValidateMutation(row));
    if (row.kind == MutationKind::kAvailUpsert) {
      DOMD_RETURN_IF_ERROR(data.avails.Upsert(row.avail));
    } else if (!data.avails.Find(row.rcc.avail_id).ok()) {
      return UnknownAvail(row.rcc);
    } else {
      DOMD_RETURN_IF_ERROR(data.rccs.Upsert(row.rcc));
    }
  }
  auto merged = std::make_shared<const Dataset>(std::move(data));
  const std::uint64_t new_epoch = ComputeDatasetFingerprint(*merged);

  std::lock_guard<std::mutex> merge_lock(merge_mu_);
  std::lock_guard<std::mutex> append_lock(append_mu_);
  if (!options_.persist_dir.empty()) {
    DOMD_RETURN_IF_ERROR(WriteBaseTables(*merged, options_.persist_dir));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_ = std::move(merged);
    base_epoch_ = new_epoch;
    pending_.clear();
    tail_.clear();
    tail_base_seq_ = last_seq;
    tail_base_chain_ = chain;
    last_seq_ = last_seq;
    last_chain_ = chain;
    ++generation_;
    merge_cv_.notify_all();
  }
  if (log_ != nullptr) {
    // A crash between the CSV writes above and this rotation replays the
    // old log's records onto the new base — stale values for keys the
    // snapshot advanced past. That interim state is self-healing: the
    // replica still reports its old sequence position, so the next
    // catch-up re-streams (or re-installs) everything past it and
    // re-applying a history suffix in order converges back to the
    // snapshot state (DESIGN.md §15).
    DOMD_RETURN_IF_ERROR(log_->Rotate({}, last_seq, chain));
  }
  return Status::OK();
}

DataStore::Cut DataStore::PinCutLocked() const {
  Cut cut;
  cut.generation = generation_;
  cut.seq = last_seq_;
  cut.base = base_;
  cut.base_epoch = base_epoch_;
  cut.depth = PendingLocked();
  if (cut.depth > 0) {
    // The tail can reach below the pending cut (an un-rotated log keeps
    // already-merged records in it); re-applying that prefix is a no-op
    // on content and row order, so the whole tail is the cut.
    cut.tail.reserve(tail_.size());
    for (const TailRecord& record : tail_) cut.tail.push_back(record.mutation);
  }
  return cut;
}

std::shared_ptr<const DataSnapshot> DataStore::Snapshot() const {
  Cut cut;
  std::optional<std::uint64_t> known_epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cached_snapshot_ != nullptr && cached_generation_ == generation_) {
      return cached_snapshot_;
    }
    cut = PinCutLocked();
    if (cached_epoch_.has_value() &&
        cached_epoch_->generation == cut.generation) {
      known_epoch = cached_epoch_->epoch;
    }
  }

  auto snapshot = std::shared_ptr<DataSnapshot>(new DataSnapshot());
  snapshot->delta_depth_ = cut.depth;
  if (cut.depth == 0) {
    snapshot->data_ = cut.base;
    snapshot->epoch_ = cut.base_epoch;
  } else {
    // Materialization happens outside the lock: appends keep landing on
    // the tail while this cut is assembled.
    auto merged = Materialize(*cut.base, cut.tail);
    snapshot->epoch_ = known_epoch.has_value()
                           ? *known_epoch
                           : CutEpoch(*cut.base, cut.tail);
    snapshot->data_ = std::move(merged);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (generation_ == cut.generation) {
    cached_snapshot_ = snapshot;
    cached_generation_ = cut.generation;
    cached_epoch_ = CachedEpoch{cut.generation, snapshot->epoch_};
  }
  // Even if newer appends arrived meanwhile, this is a valid consistent
  // cut as of the call — return it without caching.
  return snapshot;
}

StatusOr<MergeStats> DataStore::Merge() {
  std::lock_guard<std::mutex> merge_lock(merge_mu_);

  Cut cut;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cut = PinCutLocked();
  }
  MergeStats stats;
  stats.merged_mutations = cut.depth;
  stats.old_epoch = cut.base_epoch;
  stats.new_epoch = cut.base_epoch;
  if (cut.depth == 0) return stats;

  // The expensive half runs without any store lock: copy + apply + epoch
  // fingerprint over the merged tables. The input is the append-order
  // tail, so the merged row order — and with it the epoch — is a pure
  // function of history, independent of where this replica's merge cuts
  // happen to land (see Materialize).
  auto merged = Materialize(*cut.base, cut.tail);
  const std::uint64_t new_epoch = ComputeDatasetFingerprint(*merged);

  const Status fault = DOMD_FAULT_POINT("ingest.merge.commit").Check();
  if (!fault.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++merge_failures_;
    return fault;
  }

  if (!options_.persist_dir.empty()) {
    const Status persisted = WriteBaseTables(*merged, options_.persist_dir);
    if (!persisted.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++merge_failures_;
      return persisted;
    }
    stats.persisted = true;
  }

  const bool will_rotate = stats.persisted && log_ != nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_ = std::move(merged);
    base_epoch_ = new_epoch;
    // Keys upserted again after the cut stay pending.
    std::erase_if(pending_, [&cut](const auto& entry) {
      return entry.second <= cut.seq;
    });
    if (log_ == nullptr || will_rotate) {
      // The new base embodies the tail through cut.seq — drop that
      // prefix, advancing the tail base (and its chain anchor) to the
      // cut. When the log sticks around un-rotated (no persist_dir) the
      // tail keeps mirroring it instead, so TailFrom can still serve
      // every sequence the log would replay.
      while (!tail_.empty() && tail_base_seq_ < cut.seq) {
        tail_base_chain_ = tail_.front().chain;
        ++tail_base_seq_;
        tail_.pop_front();
      }
    }
    ++generation_;
    ++merges_;
    merge_cv_.notify_all();
  }

  if (will_rotate) {
    // The merged prefix is durable in the CSVs now; rotate the log down
    // to the records that arrived after the cut, preserving their
    // sequence numbering via the new header base. Rotate() never
    // truncates the old log — it renames a durable replacement over it —
    // so a crash anywhere in this window replays either the full old log
    // (merged records are idempotent upserts) or exactly the pending
    // suffix, and acknowledged mutations are never lost.
    std::lock_guard<std::mutex> append_lock(append_mu_);
    std::vector<IngestMutation> still_pending;
    std::uint64_t base_seq = 0;
    std::uint64_t base_chain = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      base_seq = tail_base_seq_;
      base_chain = tail_base_chain_;
      still_pending.reserve(tail_.size());
      for (const TailRecord& record : tail_) {
        still_pending.push_back(record.mutation);
      }
    }
    DOMD_RETURN_IF_ERROR(log_->Rotate(still_pending, base_seq, base_chain));
  }

  stats.new_epoch = new_epoch;
  return stats;
}

std::uint64_t DataStore::epoch() const {
  Cut cut;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (PendingLocked() == 0) return base_epoch_;
    if (cached_epoch_.has_value() &&
        cached_epoch_->generation == generation_) {
      return cached_epoch_->epoch;
    }
    cut = PinCutLocked();
  }
  const std::uint64_t epoch = CutEpoch(*cut.base, cut.tail);
  // The cached snapshot of an older generation stays put: dropping it
  // here would free a whole dataset copy on the ack path. The next
  // Snapshot() replaces it.
  std::lock_guard<std::mutex> lock(mu_);
  if (generation_ == cut.generation) {
    cached_epoch_ = CachedEpoch{cut.generation, epoch};
  }
  return epoch;
}

std::uint64_t DataStore::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

void DataStore::Position(std::uint64_t* seq, std::uint64_t* chain) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (seq != nullptr) *seq = last_seq_;
  if (chain != nullptr) *chain = last_chain_;
}

std::size_t DataStore::pending_mutations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PendingLocked();
}

IngestStats DataStore::stats() const {
  IngestStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.appended = appended_;
    out.replayed = replayed_;
    out.replicated = replicated_;
    out.merges = merges_;
    out.merge_failures = merge_failures_;
    out.pending = PendingLocked();
    out.last_seq = last_seq_;
  }
  if (log_ != nullptr) {
    std::lock_guard<std::mutex> append_lock(append_mu_);
    out.log_bytes = log_->size_bytes();
  }
  return out;
}

void DataStore::MergerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    merge_cv_.wait(lock, [this] {
      return stopping_ ||
             PendingLocked() >= options_.merge_threshold;
    });
    if (stopping_) break;
    lock.unlock();
    const auto merged = Merge();
    lock.lock();
    if (!merged.ok()) {
      // Injected or real commit failure: hold position until new appends
      // change the picture instead of spinning on the same delta.
      const std::uint64_t generation = generation_;
      merge_cv_.wait(lock, [this, generation] {
        return stopping_ || generation_ != generation;
      });
    }
  }
}

}  // namespace domd
