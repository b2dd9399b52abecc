#include "ingest/mutation.h"

#include <span>
#include <utility>
#include <vector>

#include "common/fnv1a.h"
#include "data/tables.h"

namespace domd {
namespace {

constexpr char kSep = '|';

std::vector<std::string_view> SplitFields(std::string_view payload) {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= payload.size(); ++i) {
    if (i == payload.size() || payload[i] == kSep) {
      fields.push_back(payload.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return fields;
}

/// One record: the kind tag, then the row's fields, each after a '|'.
std::string Record(char tag, const std::vector<std::string>& fields) {
  std::string out(1, tag);
  for (const std::string& field : fields) {
    out += kSep;
    out += field;
  }
  return out;
}

}  // namespace

IngestMutation MakeAvailUpsert(Avail avail) {
  IngestMutation mutation;
  mutation.kind = MutationKind::kAvailUpsert;
  mutation.avail = std::move(avail);
  return mutation;
}

IngestMutation MakeRccUpsert(Rcc rcc) {
  IngestMutation mutation;
  mutation.kind = MutationKind::kRccUpsert;
  mutation.rcc = std::move(rcc);
  return mutation;
}

Status ValidateMutation(const IngestMutation& mutation) {
  if (mutation.kind == MutationKind::kAvailUpsert) {
    return ValidateAvail(mutation.avail);
  }
  return ValidateRcc(mutation.rcc);
}

std::string EncodeAvailUpsert(const Avail& avail) {
  return Record('A', AvailToFields(avail));
}

std::string EncodeRccUpsert(const Rcc& rcc) {
  return Record('R', RccToFields(rcc));
}

std::string EncodeMutation(const IngestMutation& mutation) {
  return mutation.kind == MutationKind::kAvailUpsert
             ? EncodeAvailUpsert(mutation.avail)
             : EncodeRccUpsert(mutation.rcc);
}

StatusOr<IngestMutation> DecodeMutation(std::string_view payload) {
  const std::vector<std::string_view> fields = SplitFields(payload);
  if (fields.empty() || fields[0].size() != 1) {
    return Status::InvalidArgument("mutation: missing kind tag");
  }
  const auto row = std::span(fields).subspan(1);
  if (fields[0] == "A") {
    auto avail = AvailFromFields(row);
    if (!avail.ok()) return avail.status();
    return MakeAvailUpsert(*std::move(avail));
  }
  if (fields[0] == "R") {
    auto rcc = RccFromFields(row);
    if (!rcc.ok()) return rcc.status();
    return MakeRccUpsert(*std::move(rcc));
  }
  return Status::InvalidArgument("mutation: unknown kind tag \"" +
                                 std::string(fields[0]) + "\"");
}

std::uint64_t MutationChain(std::uint64_t prev, std::string_view payload) {
  // FNV-1a seeded by the previous chain value: position-dependent, so two
  // histories that hold the same payload multiset in different orders (or
  // at different sequence numbers) still produce different chains.
  return Fnv1a(payload, kFnv1aSeed ^ prev);
}

}  // namespace domd
