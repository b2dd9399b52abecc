#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"

namespace domd {
namespace {

TEST(CsvTest, ParseSimple) {
  const auto doc = CsvDocument::Parse("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_columns(), 3u);
  EXPECT_EQ(doc->num_rows(), 2u);
  EXPECT_EQ(doc->rows()[1][2], "6");
}

TEST(CsvTest, ParseWithoutTrailingNewline) {
  const auto doc = CsvDocument::Parse("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_rows(), 1u);
  EXPECT_EQ(doc->rows()[0][1], "2");
}

TEST(CsvTest, ParseQuotedFields) {
  const auto doc =
      CsvDocument::Parse("name,notes\nx,\"hello, world\"\ny,\"a\"\"b\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows()[0][1], "hello, world");
  EXPECT_EQ(doc->rows()[1][1], "a\"b");
}

TEST(CsvTest, ParseQuotedNewline) {
  const auto doc = CsvDocument::Parse("a,b\n\"line1\nline2\",2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows()[0][0], "line1\nline2");
}

TEST(CsvTest, ParseCrLf) {
  const auto doc = CsvDocument::Parse("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_rows(), 1u);
  EXPECT_EQ(doc->rows()[0][0], "1");
}

TEST(CsvTest, ParseRejectsArityMismatch) {
  EXPECT_FALSE(CsvDocument::Parse("a,b\n1,2,3\n").ok());
  EXPECT_FALSE(CsvDocument::Parse("a,b\n1\n").ok());
}

TEST(CsvTest, ParseRejectsUnterminatedQuote) {
  EXPECT_FALSE(CsvDocument::Parse("a,b\n\"oops,2\n").ok());
}

TEST(CsvTest, EmptyFieldsPreserved) {
  const auto doc = CsvDocument::Parse("a,b,c\n,,\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows()[0][0], "");
  EXPECT_EQ(doc->rows()[0][2], "");
}

TEST(CsvTest, SkipsBlankTrailingLines) {
  const auto doc = CsvDocument::Parse("a\n1\n\n\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_rows(), 1u);
}

TEST(CsvTest, SerializeRoundTrip) {
  CsvDocument doc({"col1", "col 2"}, {});
  doc.AddRow({"plain", "with,comma"});
  doc.AddRow({"with\"quote", "with\nnewline"});
  const auto parsed = CsvDocument::Parse(doc.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header(), doc.header());
  EXPECT_EQ(parsed->rows(), doc.rows());
}

TEST(CsvTest, ColumnIndex) {
  CsvDocument doc({"x", "y", "z"}, {});
  EXPECT_EQ(*doc.ColumnIndex("y"), 1u);
  EXPECT_FALSE(doc.ColumnIndex("missing").ok());
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/domd_csv_test.csv";
  CsvDocument doc({"a", "b"}, {{"1", "2"}, {"3", "4"}});
  ASSERT_TRUE(doc.WriteFile(path).ok());
  const auto loaded = CsvDocument::ReadFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), doc.rows());
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_FALSE(CsvDocument::ReadFile("/nonexistent/dir/file.csv").ok());
}

TEST(CsvTest, WrongColumnCountNamesThePhysicalLine) {
  const auto doc = CsvDocument::Parse("a,b,c\n1,2,3\n4,5\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  // The bad row is on physical line 3 (header is line 1).
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().message();
  EXPECT_NE(doc.status().message().find("2 fields"), std::string::npos);
}

TEST(CsvTest, TooManyColumnsRejectedToo) {
  const auto doc = CsvDocument::Parse("a,b\n1,2\n3,4,5\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(doc.status().message().find("3 fields"), std::string::npos);
}

TEST(CsvTest, LineNumbersCountPhysicalLinesThroughQuotedNewlines) {
  // The second record spans physical lines 2-4 (two quoted newlines), so
  // the malformed record starts on physical line 5 — the number an editor
  // would show, not the record index (3).
  const auto doc =
      CsvDocument::Parse("a,b\n\"l1\nl2\nl3\",2\nonly-one-field\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 5"), std::string::npos)
      << doc.status().message();
}

TEST(CsvTest, UnterminatedQuoteNamesItsStartingLine) {
  const auto doc = CsvDocument::Parse("a,b\n1,2\n\"never closed,3\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().message();
}

TEST(CsvTest, MalformedFixtureFileReportsLineNumber) {
  const std::string path = ::testing::TempDir() + "/domd_csv_malformed.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "id,name,value\n1,alpha,10\n2,beta\n3,gamma,30\n";
  }
  const auto loaded = CsvDocument::ReadFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

// A character-at-a-time RFC 4180 reader: the reference Parse must agree
// with on every input, fields, statuses and messages alike.
struct ReferenceCsv {
  bool ok = true;
  std::string error;
  std::vector<std::vector<std::string>> records;  ///< header first.
};

ReferenceCsv ParseOneCharAtATime(const std::string& text) {
  ReferenceCsv out;
  std::size_t i = 0;
  std::size_t line = 1;
  bool header = true;
  while (i < text.size()) {
    const std::size_t record_line = line;
    std::vector<std::string> fields;
    std::string field;
    bool in_quotes = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_quotes) {
        if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else if (c == '"') {
          in_quotes = false;
        } else {
          if (c == '\n') ++line;
          field.push_back(c);
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == ',') {
        fields.push_back(field);
        field.clear();
      } else if (c == '\n' || c == '\r') {
        if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;
        ++i;
        break;
      } else {
        field.push_back(c);
      }
    }
    ++line;
    if (in_quotes) {
      out.ok = false;
      out.error = header ? "unterminated quote in CSV header"
                         : "unterminated quote in CSV row at line " +
                               std::to_string(record_line);
      return out;
    }
    fields.push_back(field);
    if (!header && fields.size() == 1 && fields[0].empty()) continue;
    if (!header && fields.size() != out.records[0].size()) {
      out.ok = false;
      out.error = "CSV row at line " + std::to_string(record_line) + " has " +
                  std::to_string(fields.size()) + " fields, header has " +
                  std::to_string(out.records[0].size());
      return out;
    }
    out.records.push_back(fields);
    header = false;
  }
  return out;
}

TEST(CsvTest, ParseAgreesWithACharAtATimeReader) {
  // Short documents over the characters that steer the parser, so quotes,
  // doubled quotes, CR/LF pairs, blank lines and ragged rows all occur.
  static constexpr char kAlphabet[] = {'a', 'b', ',', ',', '"', '\n',
                                       '\n', '\r', 'x', ' '};
  Rng rng(31);
  std::size_t parsed_ok = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string text;
    const std::size_t length = rng.Next() % 40;
    for (std::size_t i = 0; i < length; ++i) {
      text.push_back(kAlphabet[rng.Next() % sizeof(kAlphabet)]);
    }
    const ReferenceCsv want = ParseOneCharAtATime(text);
    const auto got = CsvDocument::Parse(text);
    ASSERT_EQ(got.ok(), want.ok) << testing::PrintToString(text);
    if (!want.ok) {
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      ASSERT_EQ(got.status().message(), want.error)
          << testing::PrintToString(text);
      continue;
    }
    ++parsed_ok;
    std::vector<std::vector<std::string>> records;
    if (!want.records.empty()) records.push_back(got->header());
    for (const auto& row : got->rows()) records.push_back(row);
    ASSERT_EQ(records, want.records) << testing::PrintToString(text);
  }
  EXPECT_GT(parsed_ok, 1000u);
}

}  // namespace
}  // namespace domd
