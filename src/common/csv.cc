#include "common/csv.h"

#include <fstream>

#include "common/strings.h"

namespace domd {
namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

void AppendField(std::string* out, std::string_view field) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// The characters that end a run of ordinary unquoted field text.
bool IsSpecial(char c) {
  return c == ',' || c == '"' || c == '\n' || c == '\r';
}

// Parses one CSV record starting at *pos; advances *pos past the record's
// trailing newline. Returns false on unterminated quote. *lines_spanned is
// the number of physical lines the record occupies (1 plus any newlines
// consumed inside quoted fields), so callers can report 1-based physical
// line numbers even after multi-line quoted fields. Each run of ordinary
// characters is appended to its field in one call.
bool ParseRecord(std::string_view text, std::size_t* pos,
                 std::vector<std::string>* fields,
                 std::size_t* lines_spanned) {
  fields->clear();
  *lines_spanned = 1;
  std::string field;
  bool in_quotes = false;
  std::size_t i = *pos;
  while (i < text.size()) {
    std::size_t end = i;
    if (in_quotes) {
      while (end < text.size() && text[end] != '"') {
        if (text[end] == '\n') ++*lines_spanned;
        ++end;
      }
    } else {
      while (end < text.size() && !IsSpecial(text[end])) ++end;
    }
    field.append(text.data() + i, end - i);
    i = end;
    if (i == text.size()) break;
    const char c = text[i++];
    if (in_quotes) {
      // A doubled quote is a literal one; a single quote closes the field.
      if (i < text.size() && text[i] == '"') {
        field.push_back('"');
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields->push_back(std::move(field));
      field.clear();
    } else {
      if (c == '\r' && i < text.size() && text[i] == '\n') ++i;
      break;
    }
  }
  if (in_quotes) return false;
  fields->push_back(std::move(field));
  *pos = i;
  return true;
}

}  // namespace

StatusOr<std::size_t> CsvDocument::ColumnIndex(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  return Status::NotFound("no CSV column named " + std::string(name));
}

StatusOr<CsvDocument> CsvDocument::Parse(std::string_view text) {
  CsvDocument doc;
  std::size_t pos = 0;
  std::vector<std::string> fields;
  // `line` is the 1-based PHYSICAL line where the next record starts —
  // quoted fields may span newlines, so record index and line number
  // diverge; error messages always name the line an editor would show.
  std::size_t line = 1;
  std::size_t spanned = 0;
  if (pos < text.size()) {
    if (!ParseRecord(text, &pos, &fields, &spanned)) {
      return Status::InvalidArgument("unterminated quote in CSV header");
    }
    doc.header_ = std::move(fields);
    line += spanned;
  }
  while (pos < text.size()) {
    const std::size_t row_line = line;
    // Each row moves its vector into the document: one allocation per row.
    fields.reserve(doc.header_.size());
    if (!ParseRecord(text, &pos, &fields, &spanned)) {
      return Status::InvalidArgument("unterminated quote in CSV row at line " +
                                     std::to_string(row_line));
    }
    line += spanned;
    // Skip blank trailing lines.
    if (fields.size() == 1 && fields[0].empty()) continue;
    if (fields.size() != doc.header_.size()) {
      return Status::InvalidArgument(
          "CSV row at line " + std::to_string(row_line) + " has " +
          std::to_string(fields.size()) + " fields, header has " +
          std::to_string(doc.header_.size()));
    }
    doc.rows_.push_back(std::move(fields));
  }
  return doc;
}

StatusOr<CsvDocument> CsvDocument::ReadFile(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return Parse(*text);
}

std::string CsvDocument::Serialize() const {
  std::string out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendField(&out, header_[i]);
  }
  out.push_back('\n');
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendField(&out, row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

Status CsvDocument::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << Serialize();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace domd
