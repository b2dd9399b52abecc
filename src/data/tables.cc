#include "data/tables.h"

#include <algorithm>
#include <charconv>

#include "common/strings.h"

namespace domd {
namespace {

/// The tables' double format: the C++ standard defines to_chars' general
/// format at precision 6 as printf's "%.6g", so these are its bytes.
std::string FormatDouble(double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 6);
  return std::string(buf, result.ptr);
}

StatusOr<double> ParseField(const std::string& text) {
  const auto value = domd::ParseDouble(text);
  if (!value.ok()) return Status::InvalidArgument("bad double: " + text);
  return *value;
}

}  // namespace

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

CsvDocument AvailTable::ToCsv() const {
  CsvDocument doc;
  doc.set_header({"avail_id", "ship_id", "status", "plan_start", "plan_end",
                  "actual_start", "actual_end", "ship_class", "rmc_id",
                  "ship_age_years", "avail_type", "homeport",
                  "prior_avail_count", "contract_value_musd", "crew_size"});
  for (const Avail& a : rows_) {
    doc.AddRow({std::to_string(a.id), std::to_string(a.ship_id),
                AvailStatusToString(a.status), a.planned_start.ToString(),
                a.planned_end.ToString(), a.actual_start.ToString(),
                a.actual_end.has_value() ? a.actual_end->ToString() : "",
                std::to_string(a.ship_class), std::to_string(a.rmc_id),
                FormatDouble(a.ship_age_years), std::to_string(a.avail_type),
                std::to_string(a.homeport),
                std::to_string(a.prior_avail_count),
                FormatDouble(a.contract_value_musd),
                std::to_string(a.crew_size)});
  }
  return doc;
}

StatusOr<AvailTable> AvailTable::FromCsv(const CsvDocument& doc) {
  AvailTable table;
  if (doc.num_columns() != 15) {
    return Status::InvalidArgument("avail CSV must have 15 columns");
  }
  for (const auto& row : doc.rows()) {
    Avail a;
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[0], &a.id));
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[1], &a.ship_id));
    auto status = AvailStatusFromString(row[2]);
    if (!status.ok()) return status.status();
    a.status = *status;
    for (const auto& [text, field] :
         std::initializer_list<std::pair<const std::string*, Date*>>{
             {&row[3], &a.planned_start},
             {&row[4], &a.planned_end},
             {&row[5], &a.actual_start}}) {
      auto date = Date::Parse(*text);
      if (!date.ok()) return date.status();
      *field = *date;
    }
    if (!row[6].empty()) {
      auto date = Date::Parse(row[6]);
      if (!date.ok()) return date.status();
      a.actual_end = *date;
    }
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[7], &a.ship_class));
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[8], &a.rmc_id));
    auto age = ParseField(row[9]);
    if (!age.ok()) return age.status();
    a.ship_age_years = *age;
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[10], &a.avail_type));
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[11], &a.homeport));
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[12], &a.prior_avail_count));
    auto value = ParseField(row[13]);
    if (!value.ok()) return value.status();
    a.contract_value_musd = *value;
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[14], &a.crew_size));
    DOMD_RETURN_IF_ERROR(table.Add(std::move(a)));
  }
  return table;
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

CsvDocument RccTable::ToCsv() const {
  CsvDocument doc;
  doc.set_header({"rcc_id", "avail_id", "type", "swlin", "creation_date",
                  "settled_date", "settled_amount"});
  for (const Rcc& r : rows_) {
    doc.AddRow({std::to_string(r.id), std::to_string(r.avail_id),
                RccTypeToCode(r.type), r.swlin.ToString(),
                r.creation_date.ToString(),
                r.settled_date.has_value() ? r.settled_date->ToString() : "",
                FormatDouble(r.settled_amount)});
  }
  return doc;
}

StatusOr<RccTable> RccTable::FromCsv(const CsvDocument& doc) {
  RccTable table;
  if (doc.num_columns() != 7) {
    return Status::InvalidArgument("RCC CSV must have 7 columns");
  }
  for (const auto& row : doc.rows()) {
    Rcc r;
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[0], &r.id));
    DOMD_RETURN_IF_ERROR(ParseIntInto(row[1], &r.avail_id));
    auto type = RccTypeFromCode(row[2]);
    if (!type.ok()) return type.status();
    r.type = *type;
    auto swlin = Swlin::Parse(row[3]);
    if (!swlin.ok()) return swlin.status();
    r.swlin = *swlin;
    auto created = Date::Parse(row[4]);
    if (!created.ok()) return created.status();
    r.creation_date = *created;
    if (!row[5].empty()) {
      auto settled = Date::Parse(row[5]);
      if (!settled.ok()) return settled.status();
      r.settled_date = *settled;
    }
    auto amount = ParseField(row[6]);
    if (!amount.ok()) return amount.status();
    r.settled_amount = *amount;
    DOMD_RETURN_IF_ERROR(table.Add(std::move(r)));
  }
  return table;
}

StatusOr<RccTable> RccTable::ReadFile(const std::string& path) {
  auto doc = CsvDocument::ReadFile(path);
  if (!doc.ok()) return doc.status();
  return FromCsv(*doc);
}

}  // namespace domd
