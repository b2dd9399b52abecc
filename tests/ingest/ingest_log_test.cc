#include "ingest/ingest_log.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/strings.h"
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
/// realistic field values (including non-round doubles for the %.17g
/// round-trip checks).
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
  avail.ship_age_years = 17.123456789012345;  // does not survive %.6g.
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

}  // namespace
}  // namespace domd
