#ifndef DOMD_INGEST_INGEST_LOG_H_
#define DOMD_INGEST_INGEST_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ingest/mutation.h"

namespace domd {

/// Crash-safe append-only log of ingestion mutations (DESIGN.md §14, §15).
///
/// On-disk format (text, one record per line):
///   domd-ingest-log v2 <base-seq> <base-chain-hex16>\n
///   <payload-bytes> <fnv1a-checksum-hex> <payload>\n
///   ...
///
/// Every record carries an implicit monotonic sequence number: the i-th
/// record (0-based) of the file is sequence base-seq + 1 + i, so a fresh
/// log starts at sequence 1 and rotation preserves numbering by writing
/// the merge cut's sequence as the new base. The header also stores the
/// replication chain value at the base sequence (MutationChain folded over
/// the full history), which lets a restarted replica prove its prefix
/// matches a peer's before streaming the tail. A v1 header
/// ("domd-ingest-log v1") is still accepted and reads as base 0 / chain 0,
/// so every PR-9 log replays unchanged.
///
/// Every Append writes one checksummed record and fsyncs before returning
/// (the PR-5 durability idiom); the batch variant amortizes the fsync over
/// the whole batch. Replay verifies length + checksum record by record; the
/// first bad or truncated record marks a torn tail, which Open truncates
/// back to the last durable record — a crash mid-append can only ever cost
/// the record being appended, never a settled prefix. Corruption *before*
/// the tail (a flipped byte under a valid suffix) is kDataLoss, mirroring
/// the bundle checksum contract.
///
/// Fault points: ingest.log.append (before the record write),
/// ingest.log.fsync (between write and fsync — the record may or may not
/// survive a crash, exactly like a real torn write), ingest.log.replay
/// (transient read failure during Open), ingest.log.rotate (after the
/// replacement log is durable, before it is renamed into place).
class IngestLog {
 public:
  struct ReplayResult {
    std::vector<IngestMutation> records;
    std::size_t truncated_bytes = 0;  ///< torn-tail bytes discarded.
    std::uint64_t base_seq = 0;   ///< sequence before records.front().
    std::uint64_t base_chain = 0; ///< chain value at base_seq.
  };

  /// Opens (creating if absent) the log at `path`, replaying existing
  /// records into `replay` (required). A torn tail is truncated in place.
  static StatusOr<std::unique_ptr<IngestLog>> Open(const std::string& path,
                                                   ReplayResult* replay);

  ~IngestLog();
  IngestLog(const IngestLog&) = delete;
  IngestLog& operator=(const IngestLog&) = delete;

  /// Durably appends one record (write + fsync).
  Status Append(const IngestMutation& mutation);

  /// Durably appends a batch with a single fsync.
  Status AppendBatch(const std::vector<IngestMutation>& mutations);

  /// Atomically replaces the log's contents with `still_pending` after a
  /// merge has durably persisted everything else (log rotation). The new
  /// header records `new_base_seq` (the sequence of the last merged
  /// record; still_pending keeps its original numbering from there) and
  /// `new_base_chain` (the history chain at that sequence). The
  /// replacement is written and fsync'd as a sibling file, then rename()d
  /// over the old log (parent directory fsync'd), so at every instant
  /// exactly one intact log exists on disk: a crash mid-rotation replays
  /// either the full old log — whose already-merged records are idempotent
  /// upserts — or exactly the still-pending suffix. Fault point
  /// ingest.log.rotate fires at the most adversarial moment, after the
  /// replacement is durable but before the rename.
  Status Rotate(const std::vector<IngestMutation>& still_pending,
                std::uint64_t new_base_seq, std::uint64_t new_base_chain);

  const std::string& path() const { return path_; }
  std::size_t size_bytes() const { return size_bytes_; }
  std::uint64_t appended() const { return appended_; }
  /// Sequence numbering: the log holds records (base_seq, last_seq].
  std::uint64_t base_seq() const { return base_seq_; }
  std::uint64_t base_chain() const { return base_chain_; }
  std::uint64_t last_seq() const { return base_seq_ + count_; }

 private:
  IngestLog(std::string path, int fd, std::size_t size_bytes)
      : path_(std::move(path)), fd_(fd), size_bytes_(size_bytes) {}

  const std::string path_;
  int fd_ = -1;
  std::size_t size_bytes_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t base_seq_ = 0;
  std::uint64_t base_chain_ = 0;
  std::uint64_t count_ = 0;  ///< records currently in the file.
};

/// Writes `contents` to `path` (created or truncated) and fsyncs it before
/// closing. A write interrupted by a signal resumes; a failed open, write,
/// fsync or close is IoError.
Status WriteFileSynced(const std::string& path, std::string_view contents);

/// Fsyncs the directory `dir` (empty means "."), so entries created or
/// renamed in it survive a crash. IoError when it cannot be opened or
/// synced.
Status FsyncDirectory(const std::string& dir);

/// Durable small-file write: WriteFileSynced to <path>.tmp, rename onto
/// `path`, FsyncDirectory of its parent. The merge path persists the base
/// CSVs through it.
Status WriteFileDurably(const std::string& path, const std::string& contents);

}  // namespace domd

#endif  // DOMD_INGEST_INGEST_LOG_H_
