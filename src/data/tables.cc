#include "data/tables.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <optional>
#include <type_traits>

#include "common/strings.h"

namespace domd {
namespace {

/// The avail table's columns, in file order, each with its member: the
/// CSV header, AvailToFields and AvailFromFields all walk this one list.
/// `Row` is Avail or const Avail.
template <typename Row, typename Column>
  requires std::same_as<std::remove_const_t<Row>, Avail>
void ForEachColumn(Row& a, Column&& column) {
  column("avail_id", a.id);
  column("ship_id", a.ship_id);
  column("status", a.status);
  column("plan_start", a.planned_start);
  column("plan_end", a.planned_end);
  column("actual_start", a.actual_start);
  column("actual_end", a.actual_end);
  column("ship_class", a.ship_class);
  column("rmc_id", a.rmc_id);
  column("ship_age_years", a.ship_age_years);
  column("avail_type", a.avail_type);
  column("homeport", a.homeport);
  column("prior_avail_count", a.prior_avail_count);
  column("contract_value_musd", a.contract_value_musd);
  column("crew_size", a.crew_size);
}

/// The RCC table's columns, in file order, each with its member.
template <typename Row, typename Column>
  requires std::same_as<std::remove_const_t<Row>, Rcc>
void ForEachColumn(Row& r, Column&& column) {
  column("rcc_id", r.id);
  column("avail_id", r.avail_id);
  column("type", r.type);
  column("swlin", r.swlin);
  column("creation_date", r.creation_date);
  column("settled_date", r.settled_date);
  column("settled_amount", r.settled_amount);
}

template <std::integral Int>
std::string FormatField(Int value) {
  return std::to_string(value);
}
/// The one double format: the shortest spelling that reads back the same
/// bits.
std::string FormatField(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}
std::string FormatField(Date date) { return date.ToString(); }
std::string FormatField(const std::optional<Date>& date) {
  return date.has_value() ? date->ToString() : std::string();
}
std::string FormatField(AvailStatus status) {
  return AvailStatusToString(status);
}
std::string FormatField(RccType type) { return RccTypeToCode(type); }
std::string FormatField(const Swlin& swlin) { return swlin.ToString(); }

template <typename T>
Status Assign(StatusOr<T> parsed, T* out) {
  if (!parsed.ok()) return parsed.status();
  *out = *std::move(parsed);
  return Status::OK();
}

template <std::integral Int>
Status ParseField(std::string_view text, Int* out) {
  return ParseIntInto(text, out);
}
Status ParseField(std::string_view text, double* out) {
  return Assign(ParseDouble(text), out);
}
Status ParseField(std::string_view text, Date* out) {
  return Assign(Date::Parse(text), out);
}
/// An empty field is an absent date.
Status ParseField(std::string_view text, std::optional<Date>* out) {
  if (text.empty()) {
    out->reset();
    return Status::OK();
  }
  out->emplace();
  return ParseField(text, &**out);
}
Status ParseField(std::string_view text, AvailStatus* out) {
  return Assign(AvailStatusFromString(text), out);
}
Status ParseField(std::string_view text, RccType* out) {
  return Assign(RccTypeFromCode(text), out);
}
Status ParseField(std::string_view text, Swlin* out) {
  return Assign(Swlin::Parse(text), out);
}

/// The CSV header of a Row table.
template <typename Row>
const std::vector<std::string>& Columns() {
  static const auto* names = [] {
    auto* out = new std::vector<std::string>;
    Row row;
    ForEachColumn(row, [out](const char* name, const auto&) {
      out->emplace_back(name);
    });
    return out;
  }();
  return *names;
}

template <typename Row>
std::vector<std::string> ToFields(const Row& row) {
  std::vector<std::string> fields;
  fields.reserve(Columns<Row>().size());
  ForEachColumn(row, [&fields](const char*, const auto& value) {
    fields.push_back(FormatField(value));
  });
  return fields;
}

template <typename Row>
StatusOr<Row> FromFields(std::span<const std::string_view> fields,
                         const char* what) {
  if (fields.size() != Columns<Row>().size()) {
    return Status::InvalidArgument(
        std::string(what) + " row needs " +
        std::to_string(Columns<Row>().size()) + " fields, got " +
        std::to_string(fields.size()));
  }
  Row row;
  Status status;
  std::size_t i = 0;
  ForEachColumn(row, [&](const char*, auto& value) {
    if (!status.ok()) return;
    Status parsed = ParseField(fields[i++], &value);
    if (!parsed.ok()) status = std::move(parsed);
  });
  if (!status.ok()) return status;
  return row;
}

template <typename Row>
CsvDocument RowsToCsv(const std::vector<Row>& rows) {
  CsvDocument doc;
  doc.set_header(Columns<Row>());
  for (const Row& row : rows) doc.AddRow(ToFields(row));
  return doc;
}

template <typename Table, typename Row>
StatusOr<Table> TableFromCsv(const CsvDocument& doc, const char* what) {
  if (doc.num_columns() != Columns<Row>().size()) {
    return Status::InvalidArgument(std::string(what) + " CSV must have " +
                                   std::to_string(Columns<Row>().size()) +
                                   " columns");
  }
  Table table;
  std::vector<std::string_view> fields;
  for (const auto& cells : doc.rows()) {
    fields.assign(cells.begin(), cells.end());
    auto row = FromFields<Row>(fields, what);
    if (!row.ok()) return row.status();
    DOMD_RETURN_IF_ERROR(table.Add(*std::move(row)));
  }
  return table;
}

}  // namespace

std::vector<std::string> AvailToFields(const Avail& avail) {
  return ToFields(avail);
}

std::vector<std::string> RccToFields(const Rcc& rcc) { return ToFields(rcc); }

StatusOr<Avail> AvailFromFields(std::span<const std::string_view> fields) {
  return FromFields<Avail>(fields, "avail");
}

StatusOr<Rcc> RccFromFields(std::span<const std::string_view> fields) {
  return FromFields<Rcc>(fields, "RCC");
}

Status AvailTable::Add(Avail avail) {
  DOMD_RETURN_IF_ERROR(ValidateAvail(avail));
  if (by_id_.count(avail.id) != 0) {
    return Status::AlreadyExists("duplicate avail id " +
                                 std::to_string(avail.id));
  }
  by_id_[avail.id] = rows_.size();
  rows_.push_back(std::move(avail));
  return Status::OK();
}

Status AvailTable::Upsert(Avail avail) {
  const auto it = by_id_.find(avail.id);
  if (it == by_id_.end()) return Add(std::move(avail));
  DOMD_RETURN_IF_ERROR(ValidateAvail(avail));
  rows_[it->second] = std::move(avail);
  return Status::OK();
}

StatusOr<const Avail*> AvailTable::Find(std::int64_t id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("avail " + std::to_string(id));
  }
  return &rows_[it->second];
}

CsvDocument AvailTable::ToCsv() const { return RowsToCsv(rows_); }

StatusOr<AvailTable> AvailTable::FromCsv(const CsvDocument& doc) {
  return TableFromCsv<AvailTable, Avail>(doc, "avail");
}

StatusOr<AvailTable> AvailTable::ReadFile(const std::string& path) {
  auto doc = CsvDocument::ReadFile(path);
  if (!doc.ok()) return doc.status();
  return FromCsv(*doc);
}

Status RccTable::Add(Rcc rcc) {
  DOMD_RETURN_IF_ERROR(ValidateRcc(rcc));
  if (by_id_.count(rcc.id) != 0) {
    return Status::AlreadyExists("duplicate RCC id " + std::to_string(rcc.id));
  }
  by_id_[rcc.id] = rows_.size();
  by_avail_[rcc.avail_id].push_back(rows_.size());
  rows_.push_back(std::move(rcc));
  return Status::OK();
}

Status RccTable::Upsert(Rcc rcc) {
  const auto it = by_id_.find(rcc.id);
  if (it == by_id_.end()) return Add(std::move(rcc));
  DOMD_RETURN_IF_ERROR(ValidateRcc(rcc));
  const std::size_t row = it->second;
  const std::int64_t old_avail = rows_[row].avail_id;
  if (old_avail != rcc.avail_id) {
    auto& old_rows = by_avail_[old_avail];
    old_rows.erase(std::remove(old_rows.begin(), old_rows.end(), row),
                   old_rows.end());
    if (old_rows.empty()) by_avail_.erase(old_avail);
    by_avail_[rcc.avail_id].push_back(row);
  }
  rows_[row] = std::move(rcc);
  return Status::OK();
}

StatusOr<const Rcc*> RccTable::Find(std::int64_t id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("RCC " + std::to_string(id));
  }
  return &rows_[it->second];
}

const std::vector<std::size_t>& RccTable::RowsForAvail(
    std::int64_t avail_id) const {
  const auto it = by_avail_.find(avail_id);
  if (it == by_avail_.end()) return empty_rows_;
  return it->second;
}

RccTable RccTable::Scale(int factor) const {
  RccTable scaled;
  std::int64_t next_id = 0;
  for (const Rcc& base : rows_) {
    if (base.id >= next_id) next_id = base.id + 1;
  }
  for (const Rcc& base : rows_) {
    Rcc copy = base;
    (void)scaled.Add(copy);
    for (int k = 1; k < factor; ++k) {
      copy.id = next_id++;
      (void)scaled.Add(copy);
    }
  }
  return scaled;
}

CsvDocument RccTable::ToCsv() const { return RowsToCsv(rows_); }

StatusOr<RccTable> RccTable::FromCsv(const CsvDocument& doc) {
  return TableFromCsv<RccTable, Rcc>(doc, "RCC");
}

StatusOr<RccTable> RccTable::ReadFile(const std::string& path) {
  auto doc = CsvDocument::ReadFile(path);
  if (!doc.ok()) return doc.status();
  return FromCsv(*doc);
}

}  // namespace domd
