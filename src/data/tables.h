#ifndef DOMD_DATA_TABLES_H_
#define DOMD_DATA_TABLES_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/csv.h"
#include "common/status.h"
#include "data/avail.h"
#include "data/rcc.h"

namespace domd {

/// The row codec (DESIGN.md §14). Each row type's fields, in table column
/// order, are written by one function and read by one checked function:
/// the tables' CSV files and the mutation records of the ingest log and of
/// replication (ingest/mutation.h) all go through these. A double is
/// written as the shortest spelling that reads back the same bits
/// (`std::to_chars(first, last, v)`), and any spelling ParseDouble takes
/// reads back, so `%.6g` tables and `%.17g` log records still open.
std::vector<std::string> AvailToFields(const Avail& avail);
std::vector<std::string> RccToFields(const Rcc& rcc);

/// Reads the fields AvailToFields / RccToFields write. InvalidArgument on a
/// wrong field count or an unreadable field, including an integer outside
/// its member's type. Row rules (ValidateAvail, ValidateRcc) are left to
/// the caller.
StatusOr<Avail> AvailFromFields(std::span<const std::string_view> fields);
StatusOr<Rcc> RccFromFields(std::span<const std::string_view> fields);

/// In-memory availability table with id lookup. Mirrors the paper's avail
/// table (Table 1). Rows are stored in insertion order.
class AvailTable {
 public:
  AvailTable() = default;

  /// Appends an avail after validation; rejects duplicate ids.
  Status Add(Avail avail);

  /// Add-or-amend: a fresh id appends, an existing id replaces its row in
  /// place (insertion order preserved). The ingestion merge path applies
  /// replayed mutations through this, so re-applying is idempotent.
  Status Upsert(Avail avail);

  const std::vector<Avail>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Looks up by avail id.
  StatusOr<const Avail*> Find(std::int64_t id) const;

  /// Serializes to CSV with the paper's column layout plus static features,
  /// one row per AvailToFields.
  CsvDocument ToCsv() const;
  /// Parses from CSV produced by ToCsv(), one row per AvailFromFields.
  static StatusOr<AvailTable> FromCsv(const CsvDocument& doc);

  Status WriteFile(const std::string& path) const {
    return ToCsv().WriteFile(path);
  }
  static StatusOr<AvailTable> ReadFile(const std::string& path);

 private:
  std::vector<Avail> rows_;
  std::unordered_map<std::int64_t, std::size_t> by_id_;
};

/// In-memory RCC table with per-avail grouping. Mirrors the paper's RCC
/// table (Table 3).
class RccTable {
 public:
  RccTable() = default;

  /// Appends an RCC after validation; rejects duplicate ids.
  Status Add(Rcc rcc);

  /// Add-or-amend by RCC id; an amend that moves the RCC to a different
  /// avail rewires the per-avail grouping. Idempotent like
  /// AvailTable::Upsert.
  Status Upsert(Rcc rcc);

  const std::vector<Rcc>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  StatusOr<const Rcc*> Find(std::int64_t id) const;

  /// Row indexes of all RCCs belonging to the given avail (insertion order).
  const std::vector<std::size_t>& RowsForAvail(std::int64_t avail_id) const;

  /// The paper's synthetic scaling: every RCC replicated `factor` times with
  /// fresh ids but identical type / SWLIN / dates / amount, so the temporal
  /// distribution is kept intact while cardinality grows by `factor`.
  RccTable Scale(int factor) const;

  CsvDocument ToCsv() const;
  static StatusOr<RccTable> FromCsv(const CsvDocument& doc);

  Status WriteFile(const std::string& path) const {
    return ToCsv().WriteFile(path);
  }
  static StatusOr<RccTable> ReadFile(const std::string& path);

 private:
  std::vector<Rcc> rows_;
  std::unordered_map<std::int64_t, std::size_t> by_id_;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> by_avail_;
  std::vector<std::size_t> empty_rows_;
};

/// A complete dataset: both tables.
struct Dataset {
  AvailTable avails;
  RccTable rccs;
};

}  // namespace domd

#endif  // DOMD_DATA_TABLES_H_
