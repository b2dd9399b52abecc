#include "ingest/mutation.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "common/fnv1a.h"
#include "common/strings.h"

namespace domd {
namespace {

constexpr char kSep = '|';

/// Shortest exact representation: every double round-trips through
/// ParseDouble bit-identically at 17 significant digits.
std::string FormatDoubleExact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

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

StatusOr<IngestMutation> DecodeAvail(
    const std::vector<std::string_view>& fields) {
  if (fields.size() != 16) {
    return Status::InvalidArgument("mutation: avail record needs 16 fields");
  }
  IngestMutation mutation;
  mutation.kind = MutationKind::kAvailUpsert;
  Avail& a = mutation.avail;
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[1], &a.id));
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[2], &a.ship_id));
  auto status = AvailStatusFromString(fields[3]);
  if (!status.ok()) return status.status();
  a.status = *status;
  for (const auto& [text, field] :
       std::initializer_list<std::pair<std::string_view, Date*>>{
           {fields[4], &a.planned_start},
           {fields[5], &a.planned_end},
           {fields[6], &a.actual_start}}) {
    auto date = Date::Parse(text);
    if (!date.ok()) return date.status();
    *field = *date;
  }
  if (!fields[7].empty()) {
    auto date = Date::Parse(fields[7]);
    if (!date.ok()) return date.status();
    a.actual_end = *date;
  }
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[8], &a.ship_class));
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[9], &a.rmc_id));
  auto age = ParseDouble(fields[10]);
  if (!age.ok()) return age.status();
  a.ship_age_years = *age;
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[11], &a.avail_type));
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[12], &a.homeport));
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[13], &a.prior_avail_count));
  auto value = ParseDouble(fields[14]);
  if (!value.ok()) return value.status();
  a.contract_value_musd = *value;
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[15], &a.crew_size));
  return mutation;
}

StatusOr<IngestMutation> DecodeRcc(
    const std::vector<std::string_view>& fields) {
  if (fields.size() != 8) {
    return Status::InvalidArgument("mutation: RCC record needs 8 fields");
  }
  IngestMutation mutation;
  mutation.kind = MutationKind::kRccUpsert;
  Rcc& r = mutation.rcc;
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[1], &r.id));
  DOMD_RETURN_IF_ERROR(ParseIntInto(fields[2], &r.avail_id));
  auto type = RccTypeFromCode(fields[3]);
  if (!type.ok()) return type.status();
  r.type = *type;
  auto swlin = Swlin::Parse(fields[4]);
  if (!swlin.ok()) return swlin.status();
  r.swlin = *swlin;
  auto created = Date::Parse(fields[5]);
  if (!created.ok()) return created.status();
  r.creation_date = *created;
  if (!fields[6].empty()) {
    auto settled = Date::Parse(fields[6]);
    if (!settled.ok()) return settled.status();
    r.settled_date = *settled;
  }
  auto amount = ParseDouble(fields[7]);
  if (!amount.ok()) return amount.status();
  r.settled_amount = *amount;
  return mutation;
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

std::string EncodeMutation(const IngestMutation& mutation) {
  std::string out;
  const auto add = [&out](const std::string& field) {
    out += kSep;
    out += field;
  };
  if (mutation.kind == MutationKind::kAvailUpsert) {
    const Avail& a = mutation.avail;
    out += 'A';
    add(std::to_string(a.id));
    add(std::to_string(a.ship_id));
    add(AvailStatusToString(a.status));
    add(a.planned_start.ToString());
    add(a.planned_end.ToString());
    add(a.actual_start.ToString());
    add(a.actual_end.has_value() ? a.actual_end->ToString() : "");
    add(std::to_string(a.ship_class));
    add(std::to_string(a.rmc_id));
    add(FormatDoubleExact(a.ship_age_years));
    add(std::to_string(a.avail_type));
    add(std::to_string(a.homeport));
    add(std::to_string(a.prior_avail_count));
    add(FormatDoubleExact(a.contract_value_musd));
    add(std::to_string(a.crew_size));
  } else {
    const Rcc& r = mutation.rcc;
    out += 'R';
    add(std::to_string(r.id));
    add(std::to_string(r.avail_id));
    add(RccTypeToCode(r.type));
    add(r.swlin.ToString());
    add(r.creation_date.ToString());
    add(r.settled_date.has_value() ? r.settled_date->ToString() : "");
    add(FormatDoubleExact(r.settled_amount));
  }
  return out;
}

StatusOr<IngestMutation> DecodeMutation(std::string_view payload) {
  const std::vector<std::string_view> fields = SplitFields(payload);
  if (fields.empty() || fields[0].size() != 1) {
    return Status::InvalidArgument("mutation: missing kind tag");
  }
  if (fields[0] == "A") return DecodeAvail(fields);
  if (fields[0] == "R") return DecodeRcc(fields);
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
