#ifndef DOMD_INGEST_MUTATION_H_
#define DOMD_INGEST_MUTATION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "data/avail.h"
#include "data/rcc.h"

namespace domd {

/// What one ingestion record does to the dataset. Open, settle and amend
/// are all modeled as upsert-by-id: an RCC "open" is an upsert of a fresh
/// id, a "settle" re-upserts the same id with a settled date/amount, and
/// an "amend" re-upserts with any field changed. Upserts are idempotent,
/// which is what makes log replay after a torn merge safe (DESIGN.md §14).
enum class MutationKind {
  kAvailUpsert,
  kRccUpsert,
};

/// One replayable mutation record: exactly one of `avail`/`rcc` is
/// meaningful, selected by `kind`. Plain value type — records travel
/// through the log, the store's tail and the replication wire by copy.
struct IngestMutation {
  MutationKind kind = MutationKind::kRccUpsert;
  Avail avail;
  Rcc rcc;

  /// The record's id within its kind: (kind, key_id()) names the row an
  /// upsert replaces, the key the store counts pending mutations by.
  std::int64_t key_id() const {
    return kind == MutationKind::kAvailUpsert ? avail.id : rcc.id;
  }
};

IngestMutation MakeAvailUpsert(Avail avail);
IngestMutation MakeRccUpsert(Rcc rcc);

/// Validates the payload row (same rules the tables enforce on Add).
Status ValidateMutation(const IngestMutation& mutation);

/// Serializes a mutation as one newline-free payload: the log record, a
/// `replicate`/`catchup` record and a snapshot row. A kind tag ('A' or
/// 'R'), then the row's fields through the tables' row codec
/// (AvailToFields / RccToFields), each after a '|'. Every value reads back
/// bit for bit, so a replayed, shipped or merged row is the appended one.
std::string EncodeMutation(const IngestMutation& mutation);
/// EncodeMutation of MakeAvailUpsert(avail) / MakeRccUpsert(rcc), straight
/// from a table row.
std::string EncodeAvailUpsert(const Avail& avail);
std::string EncodeRccUpsert(const Rcc& rcc);

/// Parses a payload produced by EncodeMutation. kInvalidArgument for a
/// malformed payload, including an integer field outside its type's range
/// (an avail's six `int` fields must fit in int, not wrap).
StatusOr<IngestMutation> DecodeMutation(std::string_view payload);

/// Folds one encoded payload into a running replication history chain.
/// Two replicas hold byte-identical mutation histories through sequence
/// number S exactly when their chain values at S match — the cheap prefix
/// equality probe the catch-up protocol uses to distinguish "stream the
/// tail" from "histories diverged, reinstall a snapshot" (DESIGN.md §15).
/// The chain at sequence 0 (an empty history) is 0 by definition.
std::uint64_t MutationChain(std::uint64_t prev, std::string_view payload);

}  // namespace domd

#endif  // DOMD_INGEST_MUTATION_H_
