#include "ingest/ingest_log.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "data/tables.h"
#include "fault/fault.h"
#include "synth/generator.h"

namespace domd {
namespace {

using fault::ScopedFaultInjection;

std::string TempLogPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("domd_ingest_log_test_" + name + "_" +
           std::to_string(::getpid()) + ".log"))
      .string();
}

/// Mutations sampled from a synthetic fleet: guaranteed-valid rows with
/// realistic field values.
std::vector<IngestMutation> SampleMutations(std::size_t count) {
  SynthConfig config;
  config.num_avails = 12;
  config.mean_rccs_per_avail = 20.0;
  config.seed = 97;
  const Dataset data = GenerateDataset(config);
  std::vector<IngestMutation> mutations;
  for (const Avail& avail : data.avails.rows()) {
    if (mutations.size() >= count / 2) break;
    mutations.push_back(MakeAvailUpsert(avail));
  }
  for (const Rcc& rcc : data.rccs.rows()) {
    if (mutations.size() >= count) break;
    mutations.push_back(MakeRccUpsert(rcc));
  }
  return mutations;
}

bool SameMutation(const IngestMutation& a, const IngestMutation& b) {
  // The codec promises exact round-trips, so encoded equality is the
  // strongest practical row comparison (it covers every field, with
  // doubles at full precision).
  return EncodeMutation(a) == EncodeMutation(b);
}

class IngestLogTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }
  std::string path_;
};

TEST_F(IngestLogTest, RoundTripsRecordsAcrossReopen) {
  path_ = TempLogPath("roundtrip");
  const std::vector<IngestMutation> mutations = SampleMutations(10);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_TRUE(replay.records.empty());
    for (const IngestMutation& mutation : mutations) {
      ASSERT_TRUE((*log)->Append(mutation).ok());
    }
    EXPECT_EQ((*log)->appended(), mutations.size());
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(replay.records.size(), mutations.size());
  EXPECT_EQ(replay.truncated_bytes, 0u);
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    EXPECT_TRUE(SameMutation(replay.records[i], mutations[i])) << i;
  }
}

TEST_F(IngestLogTest, BatchAppendReplaysInOrder) {
  path_ = TempLogPath("batch");
  const std::vector<IngestMutation> mutations = SampleMutations(16);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch(mutations).ok());
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(replay.records.size(), mutations.size());
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    EXPECT_TRUE(SameMutation(replay.records[i], mutations[i])) << i;
  }
}

TEST_F(IngestLogTest, TornTailTruncatesBackToLastDurableRecord) {
  path_ = TempLogPath("torn");
  const std::vector<IngestMutation> mutations = SampleMutations(6);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch(mutations).ok());
  }
  // Simulate a crash mid-append: half a record, no trailing newline.
  const auto durable_size = std::filesystem::file_size(path_);
  {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << "87 0123456789abcdef A|99|3|closed|2021-0";
  }
  ASSERT_GT(std::filesystem::file_size(path_), durable_size);

  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(replay.records.size(), mutations.size());
  EXPECT_GT(replay.truncated_bytes, 0u);
  // The torn bytes are gone from disk, so the next open is clean.
  EXPECT_EQ(std::filesystem::file_size(path_), durable_size);
}

TEST_F(IngestLogTest, CorruptionUnderValidSuffixIsDataLoss) {
  path_ = TempLogPath("midfile");
  const std::vector<IngestMutation> mutations = SampleMutations(6);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch(mutations).ok());
  }
  // Flip one payload byte in the middle of the file: the records after it
  // are still intact, so this is corruption, not a torn tail.
  std::string contents;
  {
    std::ifstream in(path_, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const std::size_t flip = contents.size() / 2;
  contents[flip] = contents[flip] == 'x' ? 'y' : 'x';
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kDataLoss)
      << log.status().ToString();
}

TEST_F(IngestLogTest, AppendFaultFailsWithoutLosingThePrefix) {
  path_ = TempLogPath("appendfault");
  const std::vector<IngestMutation> mutations = SampleMutations(4);
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(mutations[0]).ok());
  {
    ScopedFaultInjection faults("ingest.log.append=fail-nth:1");
    EXPECT_FALSE((*log)->Append(mutations[1]).ok());
  }
  ASSERT_TRUE((*log)->Append(mutations[2]).ok());
  log->reset();

  IngestLog::ReplayResult after;
  auto reopened = IngestLog::Open(path_, &after);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_TRUE(SameMutation(after.records[0], mutations[0]));
  EXPECT_TRUE(SameMutation(after.records[1], mutations[2]));
}

TEST_F(IngestLogTest, FsyncFaultLeavesLogReplayable) {
  // The honest torn-write window: the fault fires between write and
  // fsync, so the record may or may not survive — but replay must
  // succeed either way, and the settled prefix must be intact.
  path_ = TempLogPath("fsyncfault");
  const std::vector<IngestMutation> mutations = SampleMutations(3);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(mutations[0]).ok());
    ScopedFaultInjection faults("ingest.log.fsync=fail-nth:1");
    EXPECT_FALSE((*log)->Append(mutations[1]).ok());
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_GE(replay.records.size(), 1u);
  EXPECT_TRUE(SameMutation(replay.records[0], mutations[0]));
}

TEST_F(IngestLogTest, ReplayFaultIsTransient) {
  path_ = TempLogPath("replayfault");
  const std::vector<IngestMutation> mutations = SampleMutations(3);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch(mutations).ok());
  }
  {
    ScopedFaultInjection faults("ingest.log.replay=fail-nth:1");
    IngestLog::ReplayResult replay;
    EXPECT_FALSE(IngestLog::Open(path_, &replay).ok());
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(replay.records.size(), mutations.size());
}

TEST_F(IngestLogTest, RotateReplacesContentsAndKeepsAppending) {
  path_ = TempLogPath("rotate");
  const std::vector<IngestMutation> mutations = SampleMutations(5);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch(mutations).ok());
    ASSERT_TRUE((*log)->Rotate({mutations[3], mutations[4]}, 3, 0x1234).ok());
    // Appends after a rotation land in the replacement log.
    ASSERT_TRUE((*log)->Append(mutations[0]).ok());
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_TRUE(SameMutation(replay.records[0], mutations[3]));
  EXPECT_TRUE(SameMutation(replay.records[1], mutations[4]));
  EXPECT_TRUE(SameMutation(replay.records[2], mutations[0]));
}

TEST_F(IngestLogTest, CrashedRotationKeepsOldLogIntact) {
  // The fault fires after the replacement file is written and fsync'd but
  // before the rename — the most adversarial crash point. The old log must
  // remain the durable copy: every record still replays.
  path_ = TempLogPath("rotatecrash");
  const std::vector<IngestMutation> mutations = SampleMutations(5);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch(mutations).ok());
    ScopedFaultInjection faults("ingest.log.rotate=fail-nth:1");
    EXPECT_FALSE((*log)->Rotate({mutations[4]}, 4, 0).ok());
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(replay.records.size(), mutations.size());
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    EXPECT_TRUE(SameMutation(replay.records[i], mutations[i]));
  }
}

TEST_F(IngestLogTest, V2HeaderRoundTripsBaseSeqAndChain) {
  path_ = TempLogPath("v2header");
  const std::vector<IngestMutation> mutations = SampleMutations(4);
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->base_seq(), 0u);
    EXPECT_EQ((*log)->base_chain(), 0u);
    ASSERT_TRUE((*log)->AppendBatch(mutations).ok());
    EXPECT_EQ((*log)->last_seq(), mutations.size());
    ASSERT_TRUE(
        (*log)->Rotate({mutations[2], mutations[3]}, 2, 0xDEADBEEFull).ok());
    EXPECT_EQ((*log)->base_seq(), 2u);
    EXPECT_EQ((*log)->base_chain(), 0xDEADBEEFull);
    EXPECT_EQ((*log)->last_seq(), 4u);
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(replay.base_seq, 2u);
  EXPECT_EQ(replay.base_chain, 0xDEADBEEFull);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ((*log)->last_seq(), 4u);
}

TEST_F(IngestLogTest, V1HeaderReplaysAsBaseZero) {
  path_ = TempLogPath("v1compat");
  const std::vector<IngestMutation> mutations = SampleMutations(3);
  // Write a v2 log, then rewrite its header line to the PR-9 v1 form: the
  // records replay unchanged with base 0 / chain 0.
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(path_, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch(mutations).ok());
  }
  std::string contents;
  {
    std::ifstream in(path_, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const std::size_t eol = contents.find('\n');
  ASSERT_NE(eol, std::string::npos);
  contents.replace(0, eol, "domd-ingest-log v1");
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  IngestLog::ReplayResult replay;
  auto log = IngestLog::Open(path_, &replay);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(replay.base_seq, 0u);
  EXPECT_EQ(replay.base_chain, 0u);
  ASSERT_EQ(replay.records.size(), mutations.size());
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    EXPECT_TRUE(SameMutation(replay.records[i], mutations[i])) << i;
  }
  EXPECT_EQ((*log)->last_seq(), mutations.size());
}

TEST_F(IngestLogTest, UnreadableLogIsAnErrorNotAFreshLog) {
  // A directory where the log should be exists but cannot be read: Open
  // must refuse it, not write a header over it.
  path_ = TempLogPath("unreadable");
  std::filesystem::create_directory(path_);
  IngestLog::ReplayResult replay;
  EXPECT_EQ(IngestLog::Open(path_, &replay).status().code(),
            StatusCode::kIoError);
}

TEST(DurableFileTest, SyncedWriteReplacesContentsAndFailuresAreIoErrors) {
  const std::string dir = TempLogPath("durable");
  std::filesystem::create_directory(dir);
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteFileSynced(path, "a longer first version").ok());
  ASSERT_TRUE(WriteFileSynced(path, "second").ok());
  EXPECT_EQ(*ReadFileToString(path), "second");
  EXPECT_TRUE(FsyncDirectory(dir).ok());
  EXPECT_TRUE(FsyncDirectory("").ok());  // the working directory

  const std::string missing = dir + "/missing";
  EXPECT_EQ(WriteFileSynced(missing + "/file", "x").code(),
            StatusCode::kIoError);
  EXPECT_EQ(FsyncDirectory(missing).code(), StatusCode::kIoError);
  EXPECT_EQ(WriteFileDurably(missing + "/file", "x").code(),
            StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

TEST(IngestMutationTest, CodecRoundTripsDoublesExactly) {
  Avail avail;
  avail.id = 7;
  avail.ship_id = 103;
  avail.status = AvailStatus::kClosed;
  avail.planned_start = *Date::Parse("2020-01-04");
  avail.planned_end = *Date::Parse("2020-06-01");
  avail.actual_start = *Date::Parse("2020-01-06");
  avail.actual_end = *Date::Parse("2020-07-13");
  avail.ship_class = 2;
  avail.rmc_id = 1;
  avail.ship_age_years = 17.123456789012345;  // 17 significant digits.
  avail.avail_type = 1;
  avail.homeport = 3;
  avail.prior_avail_count = 4;
  avail.contract_value_musd = 0.1 + 0.2;  // classic non-representable sum.
  avail.crew_size = 280;

  const IngestMutation mutation = MakeAvailUpsert(avail);
  auto decoded = DecodeMutation(EncodeMutation(mutation));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, MutationKind::kAvailUpsert);
  EXPECT_EQ(decoded->avail.id, avail.id);
  // Bitwise-exact doubles, not approximately equal.
  EXPECT_EQ(decoded->avail.ship_age_years, avail.ship_age_years);
  EXPECT_EQ(decoded->avail.contract_value_musd, avail.contract_value_musd);
  EXPECT_EQ(EncodeMutation(*decoded), EncodeMutation(mutation));
}

TEST(IngestMutationTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeMutation("").ok());
  EXPECT_FALSE(DecodeMutation("X|1|2").ok());
  EXPECT_FALSE(DecodeMutation("A|notanumber|1").ok());
  EXPECT_FALSE(DecodeMutation("R|1|2|G").ok());  // short field count.

  // An avail's int fields (ship_class, rmc_id, avail_type, homeport,
  // prior_avail_count, crew_size) must fit in int: 4294967297 must not
  // wrap to 1.
  const IngestMutation avail = SampleMutations(2).front();
  ASSERT_EQ(avail.kind, MutationKind::kAvailUpsert);
  const std::vector<std::string> fields = StrSplit(EncodeMutation(avail), '|');
  for (const std::size_t field : {8, 9, 11, 12, 13, 15}) {
    std::vector<std::string> edited = fields;
    for (const char* bad :
         {"4294967297", "2147483648", "-2147483649", "9223372036854775807"}) {
      edited[field] = bad;
      const auto decoded = DecodeMutation(StrJoin(edited, "|"));
      ASSERT_FALSE(decoded.ok()) << "field " << field << " = " << bad;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
    // The int range itself decodes.
    for (const int edge : {std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max()}) {
      edited[field] = std::to_string(edge);
      const auto decoded = DecodeMutation(StrJoin(edited, "|"));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(EncodeMutation(*decoded), StrJoin(edited, "|"));
    }
  }
}

// ---------------------------------------------------------------------------
// One row codec (DESIGN.md §14): a table's CSV row and a mutation record
// carry the same fields for a row, and each reads them back bit for bit.
// ---------------------------------------------------------------------------

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Any finite double: every finite bit pattern, amounts in cents, and
/// log-uniform magnitudes.
double AnyDouble(Rng* rng) {
  switch (rng->Next() % 3) {
    case 0: {
      double v = 0.0;
      do {
        v = std::bit_cast<double>(rng->Next());
      } while (!std::isfinite(v));
      return v;
    }
    case 1:
      return std::round(rng->Uniform() * 1e11) / 100.0;
    default:
      return std::exp(rng->Uniform() * 80.0 - 40.0);
  }
}

Date AnyDate(Rng* rng) {
  return Date::FromCivil(1990, 1, 1) + rng->UniformInt(0, 20000);
}

/// A valid avail with every field drawn at random.
Avail AnyAvail(Rng* rng, std::int64_t id) {
  Avail a;
  a.id = id;
  a.ship_id = static_cast<std::int64_t>(rng->Next());
  a.status = static_cast<AvailStatus>(rng->Next() % 3);
  a.planned_start = AnyDate(rng);
  a.planned_end = a.planned_start + rng->UniformInt(1, 900);
  a.actual_start = AnyDate(rng);
  if (a.status == AvailStatus::kClosed) {
    a.actual_end = a.actual_start + rng->UniformInt(1, 900);
  }
  for (int* field : {&a.ship_class, &a.rmc_id, &a.avail_type, &a.homeport,
                     &a.prior_avail_count, &a.crew_size}) {
    *field = static_cast<int>(static_cast<std::uint32_t>(rng->Next()));
  }
  a.ship_age_years = AnyDouble(rng);
  a.contract_value_musd = -AnyDouble(rng);
  return a;
}

/// A valid RCC of avail `avail_id` with every field drawn at random.
Rcc AnyRcc(Rng* rng, std::int64_t id, std::int64_t avail_id) {
  Rcc r;
  r.id = id;
  r.avail_id = avail_id;
  r.type = static_cast<RccType>(rng->Next() % kNumRccTypes);
  r.swlin = *Swlin::FromInt(static_cast<std::int64_t>(rng->Next() % 100000000));
  r.creation_date = AnyDate(rng);
  if (rng->Next() % 4 != 0) {
    r.settled_date = r.creation_date + rng->UniformInt(0, 400);
  }
  r.settled_amount = std::fabs(AnyDouble(rng));
  return r;
}

::testing::AssertionResult SameAvail(const Avail& got, const Avail& want) {
  if (got.id == want.id && got.ship_id == want.ship_id &&
      got.status == want.status && got.planned_start == want.planned_start &&
      got.planned_end == want.planned_end &&
      got.actual_start == want.actual_start &&
      got.actual_end == want.actual_end && got.ship_class == want.ship_class &&
      got.rmc_id == want.rmc_id &&
      Bits(got.ship_age_years) == Bits(want.ship_age_years) &&
      got.avail_type == want.avail_type && got.homeport == want.homeport &&
      got.prior_avail_count == want.prior_avail_count &&
      Bits(got.contract_value_musd) == Bits(want.contract_value_musd) &&
      got.crew_size == want.crew_size) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "avail " << want.id << " read back as ship_age_years "
         << got.ship_age_years << ", contract_value_musd "
         << got.contract_value_musd;
}

::testing::AssertionResult SameRcc(const Rcc& got, const Rcc& want) {
  if (got.id == want.id && got.avail_id == want.avail_id &&
      got.type == want.type && got.swlin == want.swlin &&
      got.creation_date == want.creation_date &&
      got.settled_date == want.settled_date &&
      Bits(got.settled_amount) == Bits(want.settled_amount)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "RCC " << want.id << " read back as settled_amount "
         << got.settled_amount << " for " << want.settled_amount;
}

/// Tables of random rows: 2,000 avails and 5,000 RCCs.
Dataset RandomRows(std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (std::int64_t id = 1; id <= 2000; ++id) {
    EXPECT_TRUE(data.avails.Add(AnyAvail(&rng, id)).ok());
  }
  for (std::int64_t id = 1; id <= 5000; ++id) {
    EXPECT_TRUE(data.rccs.Add(AnyRcc(&rng, id, 1 + id % 2000)).ok());
  }
  return data;
}

/// The fields of a mutation record after its kind tag, which must be `tag`.
std::vector<std::string> RecordFields(const std::string& record,
                                      const std::string& tag) {
  std::vector<std::string> fields = StrSplit(record, '|');
  EXPECT_EQ(fields.front(), tag);
  fields.erase(fields.begin());
  return fields;
}

TEST(RowCodecTest, CsvRowsAndMutationRecordsCarryTheSameFields) {
  const Dataset data = RandomRows(30);
  const CsvDocument avails = data.avails.ToCsv();
  for (std::size_t i = 0; i < data.avails.size(); ++i) {
    ASSERT_EQ(RecordFields(EncodeMutation(MakeAvailUpsert(
                               data.avails.rows()[i])),
                           "A"),
              avails.rows()[i])
        << "avail row " << i;
  }
  const CsvDocument rccs = data.rccs.ToCsv();
  for (std::size_t i = 0; i < data.rccs.size(); ++i) {
    ASSERT_EQ(RecordFields(EncodeMutation(MakeRccUpsert(data.rccs.rows()[i])),
                           "R"),
              rccs.rows()[i])
        << "RCC row " << i;
  }
}

TEST(RowCodecTest, BothCodecsReadEveryFieldBackBitForBit) {
  const Dataset data = RandomRows(31);
  auto avail_doc = CsvDocument::Parse(data.avails.ToCsv().Serialize());
  ASSERT_TRUE(avail_doc.ok()) << avail_doc.status().ToString();
  auto avails = AvailTable::FromCsv(*avail_doc);
  ASSERT_TRUE(avails.ok()) << avails.status().ToString();
  ASSERT_EQ(avails->size(), data.avails.size());
  for (std::size_t i = 0; i < data.avails.size(); ++i) {
    const Avail& want = data.avails.rows()[i];
    ASSERT_TRUE(SameAvail(avails->rows()[i], want)) << "CSV";
    const auto decoded = DecodeMutation(EncodeMutation(MakeAvailUpsert(want)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(SameAvail(decoded->avail, want)) << "mutation record";
  }
  auto rcc_doc = CsvDocument::Parse(data.rccs.ToCsv().Serialize());
  ASSERT_TRUE(rcc_doc.ok()) << rcc_doc.status().ToString();
  auto rccs = RccTable::FromCsv(*rcc_doc);
  ASSERT_TRUE(rccs.ok()) << rccs.status().ToString();
  ASSERT_EQ(rccs->size(), data.rccs.size());
  for (std::size_t i = 0; i < data.rccs.size(); ++i) {
    const Rcc& want = data.rccs.rows()[i];
    ASSERT_TRUE(SameRcc(rccs->rows()[i], want)) << "CSV";
    const auto decoded = DecodeMutation(EncodeMutation(MakeRccUpsert(want)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(SameRcc(decoded->rcc, want)) << "mutation record";
  }
}

// What earlier builds wrote still reads, to the same bits: log records
// with "%.17g" doubles and tables with "%.6g" ones, exponent form
// included. Written again, each value takes the shortest spelling.
TEST(RowCodecTest, OldSpellingsReadBackAndAreRewrittenShortest) {
  const auto avail = DecodeMutation(
      "A|7|103|closed|2020-01-04|2020-06-01|2020-01-06|2020-07-13|2|1|"
      "12.300000000000001|1|3|4|0.30000000000000004|280");
  ASSERT_TRUE(avail.ok()) << avail.status().ToString();
  EXPECT_EQ(Bits(avail->avail.ship_age_years), Bits(12.3));
  EXPECT_EQ(Bits(avail->avail.contract_value_musd), Bits(0.1 + 0.2));
  EXPECT_EQ(EncodeMutation(*avail),
            "A|7|103|closed|2020-01-04|2020-06-01|2020-01-06|2020-07-13|2|1|"
            "12.3|1|3|4|0.30000000000000004|280");
  const auto rcc = DecodeMutation(
      "R|9|7|N|434-11-001|2021-04-01|2021-06-15|12345.678900999999");
  ASSERT_TRUE(rcc.ok()) << rcc.status().ToString();
  EXPECT_EQ(Bits(rcc->rcc.settled_amount), Bits(12345.678901));
  EXPECT_EQ(EncodeMutation(*rcc),
            "R|9|7|N|434-11-001|2021-04-01|2021-06-15|12345.678901");

  const std::string header =
      "rcc_id,avail_id,type,swlin,creation_date,settled_date,"
      "settled_amount\n";
  const auto doc = CsvDocument::Parse(
      header + "9,7,N,434-11-001,2021-04-01,2021-06-15,12345.7\n"
               "10,7,NG,789-56-601,2022-10-26,2023-01-06,1.36982e+06\n");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto table = RccTable::FromCsv(*doc);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(Bits(table->rows()[0].settled_amount), Bits(12345.7));
  EXPECT_EQ(Bits(table->rows()[1].settled_amount), Bits(1369820.0));
  EXPECT_EQ(table->ToCsv().Serialize(),
            header + "9,7,N,434-11-001,2021-04-01,2021-06-15,12345.7\n"
                     "10,7,NG,789-56-601,2022-10-26,2023-01-06,1369820\n");
}

}  // namespace
}  // namespace domd
