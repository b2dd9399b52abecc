#ifndef DOMD_INGEST_DATA_STORE_H_
#define DOMD_INGEST_DATA_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/tables.h"
#include "ingest/ingest_log.h"
#include "ingest/mutation.h"

namespace domd {

/// Construction knobs for a DataStore.
struct DataStoreOptions {
  /// Append-only mutation log. Empty disables durability (in-memory
  /// store); otherwise the log is replayed on open and every Append is
  /// fsync'd through it before becoming visible.
  std::string log_path;
  /// Where Merge persists the compacted base tables (avails.csv +
  /// rccs.csv, durably). Empty means merges stay in-memory and the log is
  /// never truncated, so a restart can still rebuild the full state.
  std::string persist_dir;
  /// When > 0, a background merger thread compacts the delta into the
  /// base whenever at least this many mutations are pending.
  std::size_t merge_threshold = 0;
  /// OpenDir only: when true, dir/ingest.log is attached only if it
  /// already exists. Read-only consumers still replay pending mutations
  /// but never create an empty log as a side effect.
  bool adopt_existing_log_only = false;
};

/// What one Merge accomplished.
struct MergeStats {
  std::size_t merged_mutations = 0;
  std::uint64_t old_epoch = 0;
  std::uint64_t new_epoch = 0;
  bool persisted = false;  ///< base tables rewritten + log truncated.
};

/// Ingestion counters (monotonic over the store's lifetime).
struct IngestStats {
  std::uint64_t appended = 0;   ///< mutations accepted via Append*.
  std::uint64_t replayed = 0;   ///< mutations recovered from the log.
  std::uint64_t replicated = 0; ///< mutations applied via ApplyReplicated.
  std::uint64_t merges = 0;     ///< successful merges.
  std::uint64_t merge_failures = 0;
  std::size_t pending = 0;      ///< == pending_mutations().
  std::size_t log_bytes = 0;
  std::uint64_t last_seq = 0;   ///< sequence of the last applied mutation.
};

/// What TailFrom hands a catching-up replica: either the encoded mutation
/// tail from the requested sequence, or — when that tail was compacted
/// away or the requester's history diverged — a full-state snapshot the
/// requester must install wholesale.
struct ReplTail {
  bool snapshot = false;        ///< rows/chain are set instead of records.
  bool requester_ahead = false; ///< from_seq is past last_seq + 1.
  std::uint64_t first_seq = 0;  ///< tail mode: sequence of records.front().
  std::vector<std::string> records;  ///< EncodeMutation payloads, in order.
  bool more = false;            ///< tail mode: last_seq not reached yet.
  /// Snapshot mode: the full current state as upsert payloads (avail rows
  /// first, then RCC rows, both in table row order — installing them in
  /// order reproduces the responder's tables byte for byte).
  std::vector<std::string> rows;
  std::uint64_t last_seq = 0;   ///< responder's last sequence at the cut.
  std::uint64_t chain = 0;      ///< snapshot mode: history chain at last_seq.
};

/// An immutable, epoch-stamped view of the store: the avail/RCC tables at
/// one consistent cut (the shared base when clean, a materialized copy of
/// base + pending mutations when dirty). The epoch *is*
/// ComputeDatasetFingerprint of the exposed tables, and it is the dataset
/// part of every view-cache key built on the snapshot (the estimator's
/// snapshot overloads, CrossValidate, bundle loads): those caches miss
/// exactly when the data changes and stay warm when it does not, wherever
/// in memory the tables live.
///
/// Snapshots pin their state: merges and appends after the pin never
/// mutate what a live snapshot sees. Deeply const and safe to share
/// across threads.
class DataSnapshot {
 public:
  std::uint64_t epoch() const { return epoch_; }
  const Dataset& data() const { return *data_; }
  /// Pending mutations (distinct keys) applied over the base in this
  /// snapshot.
  std::size_t delta_depth() const { return delta_depth_; }

 private:
  friend class DataStore;
  DataSnapshot() = default;

  std::shared_ptr<const Dataset> data_;
  std::uint64_t epoch_ = 0;
  std::size_t delta_depth_ = 0;
};

/// The single entry point through which the pipeline reads data
/// (DESIGN.md §14). A DataStore owns an immutable base dataset, the
/// append-order tail of mutations applied since (the one in-memory record
/// of pending data), and (optionally) the crash-safe IngestLog that makes
/// every accepted append durable before it becomes visible.
///
/// Concurrency contract: Append/AppendBatch, Snapshot and Merge may all
/// race freely. Readers pin an epoch via Snapshot() and never block on
/// writers; the background merger (or an explicit Merge) compacts base +
/// tail into a fresh immutable base and bumps the epoch — it never
/// mutates state a live snapshot references.
class DataStore {
 public:
  /// Opens a store over an in-memory base. If options.log_path names an
  /// existing log, its records are replayed into the delta (so restart
  /// reproduces the pre-crash state given the same base).
  static StatusOr<std::unique_ptr<DataStore>> Open(
      Dataset base, DataStoreOptions options = {});

  /// Opens the CSV-backed store of a data directory: avails.csv +
  /// rccs.csv as the base, dir/ingest.log as the mutation log and `dir`
  /// as the merge persistence target (unless overridden in `options`).
  static StatusOr<std::unique_ptr<DataStore>> OpenDir(
      const std::string& dir, DataStoreOptions options = {});

  ~DataStore();
  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  /// The current consistent cut. Repeated calls without intervening
  /// mutations return the same cached snapshot (pinning is O(1)).
  std::shared_ptr<const DataSnapshot> Snapshot() const;

  /// Validates, durably logs, then appends one mutation to the tail.
  Status Append(const IngestMutation& mutation);

  /// Batch variant: all-or-nothing validation, one log fsync. On success
  /// `*last_seq` (optional) receives the sequence number assigned to the
  /// batch's final mutation (the batch occupies a contiguous run ending
  /// there).
  Status AppendBatch(const std::vector<IngestMutation>& mutations,
                     std::uint64_t* last_seq = nullptr);

  /// Follower-side sequenced apply (DESIGN.md §15): applies the batch
  /// whose first record carries sequence `first_seq`, deduplicating any
  /// already-applied prefix by sequence number, so at-least-once delivery
  /// is safe. kFailedPrecondition when the batch would leave a gap
  /// (first_seq > last_seq()+1 — the caller must catch up first);
  /// kDataLoss when an overlapping record's bytes disagree with the local
  /// history (divergent timelines — only a snapshot install reconciles).
  /// Guarded by the repl.apply fault point. `*applied_last_seq` (optional)
  /// receives the local last sequence after the apply.
  Status ApplyReplicated(std::uint64_t first_seq,
                         const std::vector<IngestMutation>& mutations,
                         std::uint64_t* applied_last_seq = nullptr);

  /// Serves a catch-up request: the encoded tail from `from_seq` (at most
  /// `max_records` per call), or a full-state snapshot when the tail was
  /// compacted away — or when `have_chain` (the requester's history chain
  /// at from_seq-1, pass nullptr to skip the check) proves the requester's
  /// prefix diverged from ours. from_seq 0 forces snapshot mode (the
  /// requester declares its history useless). Tail mode takes only the
  /// store lock, so it never waits on a log fsync; snapshot mode also holds
  /// the append lock to pin (last_seq, chain) against its export. Guarded
  /// by the repl.catchup fault point.
  StatusOr<ReplTail> TailFrom(std::uint64_t from_seq,
                              const std::uint64_t* have_chain,
                              std::size_t max_records);

  /// Replaces the entire store state with a peer's exported snapshot
  /// (`rows` as produced by TailFrom's snapshot mode), adopting its
  /// sequence position and history chain. Requires a persist_dir when a
  /// log is attached (the rotated-empty log is only recoverable next to
  /// freshly persisted base tables). Pinned snapshots are unaffected. Rows
  /// are checked as Append checks them: an RCC naming an avail no earlier
  /// row upserts is NotFound, and a rejected snapshot installs nothing.
  Status InstallSnapshot(const std::vector<IngestMutation>& rows,
                         std::uint64_t last_seq, std::uint64_t chain);

  /// Compacts the base and the tail into a fresh immutable base, bumps the
  /// epoch to the new fingerprint and — when a persist_dir is configured —
  /// durably rewrites the base CSVs and truncates the log. Guarded by the
  /// ingest.merge.commit fault point: a failed merge leaves the base, the
  /// log, the pending count and every pinned snapshot intact.
  StatusOr<MergeStats> Merge();

  /// Epoch of the current cut: always equal to Snapshot()->epoch(), but
  /// computed by streaming the base rows and pending mutations through the
  /// fingerprint — no tables are copied.
  /// O(rows) on a dirty store, cached per generation; O(1) when clean.
  std::uint64_t epoch() const;

  /// Sequence of the last applied mutation (0 before any mutation).
  std::uint64_t last_seq() const;
  /// last_seq() and the history chain at it (MutationChain folded over the
  /// history) as one consistent pair — the anchor a replication peer
  /// verifies before extending this store's history.
  void Position(std::uint64_t* seq, std::uint64_t* chain) const;

  /// Distinct (kind, id) keys with an upsert not yet compacted into the
  /// base.
  std::size_t pending_mutations() const;

  IngestStats stats() const;
  const DataStoreOptions& options() const { return options_; }

 private:
  /// One applied-but-possibly-unmerged mutation retained for replication:
  /// the record at sequence tail_base_seq_ + 1 + index, plus the history
  /// chain value *after* applying it.
  struct TailRecord {
    IngestMutation mutation;
    std::uint64_t chain = 0;
  };

  /// Everything one consistent cut is computed from, copied under mu_.
  struct Cut {
    std::uint64_t generation = 0;
    std::uint64_t seq = 0;              ///< last_seq_ at the pin.
    std::shared_ptr<const Dataset> base;
    std::uint64_t base_epoch = 0;
    std::size_t depth = 0;              ///< pending keys; 0 = clean.
    std::vector<IngestMutation> tail;   ///< the whole tail when dirty.
  };

  DataStore() = default;

  Cut PinCutLocked() const;

  /// True if the avail id is in the base or has a pending upsert.
  bool HasAvailLocked(std::int64_t avail_id) const;
  std::size_t PendingLocked() const { return pending_.size(); }
  /// Referential validation of a batch against the current cut (mu_ held).
  Status ValidateBatchLocked(
      const std::vector<IngestMutation>& mutations) const;
  /// Appends a validated, durably logged batch to the tail (mu_ held):
  /// assigns sequences, folds the chain, marks each key pending, bumps the
  /// generation.
  void AbsorbBatchLocked(const std::vector<IngestMutation>& mutations);
  void MergerLoop();

  DataStoreOptions options_;
  std::unique_ptr<IngestLog> log_;

  mutable std::mutex mu_;
  mutable std::mutex append_mu_;  ///< orders log writes with tail
                                  ///< appends (stats reads log size)
                                  ///< and pins TailFrom's snapshots.
  std::mutex merge_mu_;   ///< serializes merges (and snapshot installs).
  std::shared_ptr<const Dataset> base_;
  std::uint64_t base_epoch_ = 0;
  /// Append-order mirror of the log's record range (tail_base_seq_,
  /// last_seq_]: what Materialize applies (sequence order makes the merged
  /// row order independent of when merges happen — the replication
  /// bit-identity invariant) and what TailFrom streams to peers.
  std::deque<TailRecord> tail_;
  std::uint64_t tail_base_seq_ = 0;
  std::uint64_t tail_base_chain_ = 0;
  /// (kind, id) -> sequence of that key's newest unmerged upsert. Its size
  /// is the pending count; a committed merge erases the entries at or
  /// below its cut. The tail can reach below the cut (an un-rotated log
  /// keeps merged records), so the tail's length is not the count.
  std::map<std::pair<MutationKind, std::int64_t>, std::uint64_t> pending_;
  std::uint64_t last_seq_ = 0;
  std::uint64_t last_chain_ = 0;
  std::uint64_t replicated_ = 0;
  std::uint64_t generation_ = 0;  ///< bumped on every visible change.
  mutable std::shared_ptr<const DataSnapshot> cached_snapshot_;
  mutable std::uint64_t cached_generation_ = 0;
  /// The epoch of the cut at one generation, set by epoch() or Snapshot().
  struct CachedEpoch {
    std::uint64_t generation = 0;
    std::uint64_t epoch = 0;
  };
  mutable std::optional<CachedEpoch> cached_epoch_;
  std::uint64_t appended_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t merge_failures_ = 0;

  std::condition_variable merge_cv_;
  bool stopping_ = false;
  std::thread merger_;  ///< last member: joins before teardown.
};

/// Durably writes `data` as the base tables of a store directory:
/// dir/avails.csv, then dir/rccs.csv, each through WriteFileDurably. The
/// one writer of the files OpenDir reads — Merge, InstallSnapshot and a
/// server seeding a fresh persist dir all go through it.
Status WriteBaseTables(const Dataset& data, const std::string& dir);

}  // namespace domd

#endif  // DOMD_INGEST_DATA_STORE_H_
