#include "data/tables.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "synth/generator.h"

namespace domd {
namespace {

Avail MakeAvail(std::int64_t id) {
  Avail a;
  a.id = id;
  a.ship_id = 100 + id;
  a.status = AvailStatus::kClosed;
  a.planned_start = Date::FromCivil(2020, 1, 1);
  a.planned_end = Date::FromCivil(2020, 12, 1);
  a.actual_start = Date::FromCivil(2020, 1, 1);
  a.actual_end = Date::FromCivil(2021, 2, 1);
  a.ship_class = 2;
  a.rmc_id = 1;
  a.ship_age_years = 17.5;
  a.contract_value_musd = 31.25;
  return a;
}

Rcc MakeRcc(std::int64_t id, std::int64_t avail_id) {
  Rcc r;
  r.id = id;
  r.avail_id = avail_id;
  r.type = RccType::kGrowth;
  r.swlin = *Swlin::Parse("434-11-001");
  r.creation_date = Date::FromCivil(2020, 3, 1);
  r.settled_date = Date::FromCivil(2020, 6, 1);
  r.settled_amount = 8000;
  return r;
}

TEST(AvailTableTest, AddAndFind) {
  AvailTable table;
  ASSERT_TRUE(table.Add(MakeAvail(1)).ok());
  ASSERT_TRUE(table.Add(MakeAvail(2)).ok());
  EXPECT_EQ(table.size(), 2u);
  const auto found = table.Find(2);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->ship_id, 102);
  EXPECT_FALSE(table.Find(99).ok());
}

TEST(AvailTableTest, RejectsDuplicateId) {
  AvailTable table;
  ASSERT_TRUE(table.Add(MakeAvail(1)).ok());
  EXPECT_EQ(table.Add(MakeAvail(1)).code(), StatusCode::kAlreadyExists);
}

TEST(AvailTableTest, RejectsInvalidAvail) {
  AvailTable table;
  Avail bad = MakeAvail(1);
  bad.planned_end = bad.planned_start;
  EXPECT_FALSE(table.Add(bad).ok());
  EXPECT_TRUE(table.empty());
}

TEST(AvailTableTest, CsvRoundTrip) {
  AvailTable table;
  ASSERT_TRUE(table.Add(MakeAvail(1)).ok());
  Avail ongoing = MakeAvail(2);
  ongoing.status = AvailStatus::kOngoing;
  ongoing.actual_end.reset();
  ASSERT_TRUE(table.Add(ongoing).ok());

  const auto restored = AvailTable::FromCsv(table.ToCsv());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  const Avail& a = restored->rows()[0];
  EXPECT_EQ(a.id, 1);
  EXPECT_EQ(a.ship_class, 2);
  EXPECT_DOUBLE_EQ(a.ship_age_years, 17.5);
  EXPECT_DOUBLE_EQ(a.contract_value_musd, 31.25);
  EXPECT_EQ(*a.actual_end, Date::FromCivil(2021, 2, 1));
  EXPECT_FALSE(restored->rows()[1].actual_end.has_value());
  EXPECT_EQ(restored->rows()[1].status, AvailStatus::kOngoing);
}

TEST(AvailTableTest, FromCsvRejectsIntegersOutsideTheirColumn) {
  AvailTable table;
  ASSERT_TRUE(table.Add(MakeAvail(1)).ok());
  const CsvDocument good = table.ToCsv();
  // ship_class (column 7) is an int: neither value may wrap into it.
  for (const std::string bad : {"4294967297", "-2147483649"}) {
    auto rows = good.rows();
    rows[0][7] = bad;
    const auto parsed = AvailTable::FromCsv(CsvDocument(good.header(), rows));
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(AvailTableTest, FromCsvRejectsWrongArity) {
  CsvDocument doc({"only", "two"}, {});
  EXPECT_FALSE(AvailTable::FromCsv(doc).ok());
}

TEST(RccTableTest, AddFindAndGroupByAvail) {
  RccTable table;
  ASSERT_TRUE(table.Add(MakeRcc(1, 10)).ok());
  ASSERT_TRUE(table.Add(MakeRcc(2, 10)).ok());
  ASSERT_TRUE(table.Add(MakeRcc(3, 20)).ok());
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.RowsForAvail(10).size(), 2u);
  EXPECT_EQ(table.RowsForAvail(20).size(), 1u);
  EXPECT_TRUE(table.RowsForAvail(999).empty());
  EXPECT_EQ((*table.Find(3))->avail_id, 20);
}

TEST(RccTableTest, RejectsDuplicateAndInvalid) {
  RccTable table;
  ASSERT_TRUE(table.Add(MakeRcc(1, 10)).ok());
  EXPECT_EQ(table.Add(MakeRcc(1, 11)).code(), StatusCode::kAlreadyExists);
  Rcc bad = MakeRcc(2, 10);
  bad.settled_date = Date::FromCivil(2019, 1, 1);  // before creation
  EXPECT_FALSE(table.Add(bad).ok());
}

TEST(RccTableTest, CsvRoundTrip) {
  RccTable table;
  ASSERT_TRUE(table.Add(MakeRcc(1, 10)).ok());
  Rcc open = MakeRcc(2, 10);
  open.settled_date.reset();
  open.type = RccType::kNewGrowth;
  ASSERT_TRUE(table.Add(open).ok());

  const auto restored = RccTable::FromCsv(table.ToCsv());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ(restored->rows()[0].swlin.ToString(), "434-11-001");
  EXPECT_DOUBLE_EQ(restored->rows()[0].settled_amount, 8000);
  EXPECT_FALSE(restored->rows()[1].settled_date.has_value());
  EXPECT_EQ(restored->rows()[1].type, RccType::kNewGrowth);
}

TEST(RccTableTest, ScalePreservesTemporalDistribution) {
  RccTable table;
  ASSERT_TRUE(table.Add(MakeRcc(1, 10)).ok());
  ASSERT_TRUE(table.Add(MakeRcc(5, 20)).ok());

  const RccTable scaled = table.Scale(4);
  EXPECT_EQ(scaled.size(), 8u);
  // Every copy keeps the original dates / type / SWLIN / avail.
  std::size_t avail10 = 0;
  for (const Rcc& r : scaled.rows()) {
    EXPECT_EQ(r.creation_date, Date::FromCivil(2020, 3, 1));
    if (r.avail_id == 10) ++avail10;
  }
  EXPECT_EQ(avail10, 4u);
  // Ids remain unique.
  std::set<std::int64_t> ids;
  for (const Rcc& r : scaled.rows()) ids.insert(r.id);
  EXPECT_EQ(ids.size(), scaled.size());
}

TEST(RccTableTest, ScaleByOneIsIdentityCardinality) {
  RccTable table;
  ASSERT_TRUE(table.Add(MakeRcc(1, 10)).ok());
  EXPECT_EQ(table.Scale(1).size(), 1u);
}

// ---------------------------------------------------------------------------
// The table codec's byte contract (DESIGN.md §14): doubles are the shortest
// spelling that reads back the same bits (std::to_chars without a format),
// dates "%04d-%02d-%02d" and SWLINs "ddd-dd-ddd". printf is the oracle for
// dates and SWLINs.
// ---------------------------------------------------------------------------

__attribute__((format(printf, 1, 2))) std::string Printf(const char* format,
                                                         ...) {
  char buf[64];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  EXPECT_GE(n, 0);
  EXPECT_LT(n, static_cast<int>(sizeof(buf)));
  return buf;
}

std::string DoubleOracle(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// The bits ParseDouble reads `text` back as equal `v`'s (a NaN keeps its
/// sign; its payload is not written).
::testing::AssertionResult ReadsBackExactly(const std::string& text,
                                            double v) {
  const auto parsed = ParseDouble(text);
  if (!parsed.ok()) {
    return ::testing::AssertionFailure() << parsed.status().ToString();
  }
  const bool same =
      std::isnan(v) ? std::isnan(*parsed) &&
                          std::signbit(*parsed) == std::signbit(v)
                    : std::bit_cast<std::uint64_t>(*parsed) ==
                          std::bit_cast<std::uint64_t>(v);
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "\"" << text << "\" reads back as " << *parsed;
}

std::string DateOracle(Date date) {
  return Printf("%04d-%02d-%02d", date.year(), date.month(), date.day());
}

std::string SwlinOracle(const Swlin& swlin) {
  return Printf("%d%d%d-%d%d-%d%d%d", swlin.digit(0), swlin.digit(1),
                swlin.digit(2), swlin.digit(3), swlin.digit(4),
                swlin.digit(5), swlin.digit(6), swlin.digit(7));
}

/// Counts the cells of `column` that differ from `want`, naming the first.
void ExpectColumn(const CsvDocument& doc, std::size_t column,
                  const std::vector<std::string>& want) {
  ASSERT_EQ(doc.num_rows(), want.size());
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (doc.rows()[i][column] == want[i]) continue;
    if (mismatches++ == 0) {
      first = "row " + std::to_string(i) + ": wrote \"" +
              doc.rows()[i][column] + "\", want \"" + want[i] + "\"";
    }
  }
  EXPECT_EQ(mismatches, 0u) << doc.header()[column] << ": " << first;
}

TEST(TableCodecTest, DoublesAreWrittenShortestAndReadBackExactly) {
  std::vector<double> values = {0.0,      -0.0, 1e-5, 123456.5,
                                999999.5, 1e15, DBL_MAX,
                                std::numeric_limits<double>::denorm_min()};
  Rng rng(20);
  for (int i = 0; i < 100000; ++i) {
    switch (i % 4) {
      case 0:  // any bit pattern: every exponent, subnormals, inf and nan.
        values.push_back(std::bit_cast<double>(rng.Next()));
        break;
      case 1:  // amounts in cents.
        values.push_back(std::round(rng.Uniform(0.0, 1e9)) / 100.0);
        break;
      case 2:  // log-uniform magnitudes of either sign.
        values.push_back((rng.Uniform() < 0.5 ? -1.0 : 1.0) *
                         std::exp(rng.Uniform(-60.0, 60.0)));
        break;
      default:  // halfway between two 6-digit values, at a random scale.
        values.push_back((std::floor(rng.Uniform(1e5, 1e6)) + 0.5) *
                         std::pow(10.0, std::floor(rng.Uniform(-8.0, 9.0))));
        break;
    }
  }
  AvailTable avails;
  RccTable rccs;
  std::vector<std::string> value_text;
  std::vector<std::string> negated_text;
  std::vector<std::string> amount_text;
  for (std::size_t i = 0; i < values.size(); ++i) {
    Avail avail = MakeAvail(static_cast<std::int64_t>(i));
    avail.contract_value_musd = values[i];
    avail.ship_age_years = -values[i];
    ASSERT_TRUE(avails.Add(avail).ok());
    Rcc rcc = MakeRcc(static_cast<std::int64_t>(i), 0);
    rcc.settled_amount = std::fabs(values[i]);
    ASSERT_TRUE(rccs.Add(rcc).ok());
    value_text.push_back(DoubleOracle(values[i]));
    negated_text.push_back(DoubleOracle(-values[i]));
    amount_text.push_back(DoubleOracle(std::fabs(values[i])));
  }
  const CsvDocument avail_doc = avails.ToCsv();
  ExpectColumn(avail_doc, *avail_doc.ColumnIndex("contract_value_musd"),
               value_text);
  ExpectColumn(avail_doc, *avail_doc.ColumnIndex("ship_age_years"),
               negated_text);
  const CsvDocument rcc_doc = rccs.ToCsv();
  ExpectColumn(rcc_doc, *rcc_doc.ColumnIndex("settled_amount"), amount_text);
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(ReadsBackExactly(value_text[i], values[i])) << i;
    ASSERT_TRUE(ReadsBackExactly(negated_text[i], -values[i])) << i;
  }
}

bool IsLeapYear(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

int DaysIn(int y, int m) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
  return m == 2 && IsLeapYear(y) ? 29 : kDays[m - 1];
}

TEST(TableCodecTest, DatesAreWrittenAsPrintfIso) {
  // Every day of years 1-9999, walked one civil day at a time.
  Date date = Date::FromCivil(1, 1, 1);
  std::size_t days = 0;
  std::size_t mismatches = 0;
  std::string first;
  for (int y = 1; y <= 9999; ++y) {
    for (int m = 1; m <= 12; ++m) {
      for (int d = 1; d <= DaysIn(y, m); ++d, ++days, date = date.AddDays(1)) {
        const std::string want = Printf("%04d-%02d-%02d", y, m, d);
        const std::string got = date.ToString();
        if (got != want && mismatches++ == 0) first = got + " != " + want;
      }
    }
  }
  EXPECT_EQ(days, 3652059u);
  EXPECT_EQ(mismatches, 0u) << first;

  // Years outside 1-9999: zero, negative, and from 10000 up to the largest
  // year Date::Parse reads (1,000,000), which round-trip through Parse.
  std::vector<int> years = {0,     -1,     -44,    -999,   -1000,
                            -9999, -10000, -12345, 10000,  10001,
                            99999, 100000, 999999, 1000000};
  for (int y = 10000; y <= 1000000; y += 997) years.push_back(y);
  for (const int y : years) {
    for (const auto& [m, d] : {std::pair{1, 1}, std::pair{2, DaysIn(y, 2)},
                               std::pair{12, 31}}) {
      const Date civil = Date::FromCivil(y, m, d);
      ASSERT_EQ(civil.ToString(), Printf("%04d-%02d-%02d", y, m, d));
      if (y < 0) continue;
      const auto parsed = Date::Parse(civil.ToString());
      ASSERT_TRUE(parsed.ok()) << civil.ToString();
      EXPECT_EQ(*parsed, civil);
    }
  }
}

TEST(TableCodecTest, SwlinsAreWrittenAsPrintfDigits) {
  std::vector<std::int64_t> codes = {0, 1, 43411001, 99999999};
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) {
    codes.push_back(static_cast<std::int64_t>(rng.Next() % 100000000));
  }
  for (const std::int64_t code : codes) {
    int digit[8];
    for (int i = 0, scale = 10000000; i < 8; ++i, scale /= 10) {
      digit[i] = static_cast<int>(code / scale % 10);
    }
    const auto swlin = Swlin::FromInt(code);
    ASSERT_TRUE(swlin.ok());
    ASSERT_EQ(swlin->ToString(),
              Printf("%d%d%d-%d%d-%d%d%d", digit[0], digit[1], digit[2],
                     digit[3], digit[4], digit[5], digit[6], digit[7]))
        << code;
  }
}

TEST(TableCodecTest, GeneratedFleetMatchesAShortestWriter) {
  SynthConfig config;
  config.seed = 11;
  config.num_avails = 60;
  config.mean_rccs_per_avail = 80;
  const Dataset fleet = GenerateDataset(config);
  ASSERT_GT(fleet.rccs.size(), 1000u);

  const auto optional_date = [](const std::optional<Date>& date) {
    return date.has_value() ? DateOracle(*date) : std::string();
  };
  std::string avails =
      "avail_id,ship_id,status,plan_start,plan_end,actual_start,actual_end,"
      "ship_class,rmc_id,ship_age_years,avail_type,homeport,"
      "prior_avail_count,contract_value_musd,crew_size\n";
  for (const Avail& a : fleet.avails.rows()) {
    avails += StrJoin(
        {std::to_string(a.id), std::to_string(a.ship_id),
         AvailStatusToString(a.status), DateOracle(a.planned_start),
         DateOracle(a.planned_end), DateOracle(a.actual_start),
         optional_date(a.actual_end), std::to_string(a.ship_class),
         std::to_string(a.rmc_id), DoubleOracle(a.ship_age_years),
         std::to_string(a.avail_type), std::to_string(a.homeport),
         std::to_string(a.prior_avail_count),
         DoubleOracle(a.contract_value_musd), std::to_string(a.crew_size)},
        ",") + "\n";
  }
  std::string rccs =
      "rcc_id,avail_id,type,swlin,creation_date,settled_date,"
      "settled_amount\n";
  for (const Rcc& r : fleet.rccs.rows()) {
    rccs += StrJoin({std::to_string(r.id), std::to_string(r.avail_id),
                     RccTypeToCode(r.type), SwlinOracle(r.swlin),
                     DateOracle(r.creation_date),
                     optional_date(r.settled_date),
                     DoubleOracle(r.settled_amount)},
                    ",") + "\n";
  }
  EXPECT_EQ(fleet.avails.ToCsv().Serialize(), avails);
  EXPECT_EQ(fleet.rccs.ToCsv().Serialize(), rccs);
}

}  // namespace
}  // namespace domd
