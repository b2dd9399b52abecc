#include "ingest/data_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "common/fnv1a.h"
#include "common/rng.h"
#include "common/strings.h"
#include "fault/fault.h"
#include "index/group_tree.h"
#include "index/logical_time_index.h"
#include "ingest/ingest_log.h"
#include "synth/generator.h"

namespace domd {
namespace {

using fault::ScopedFaultInjection;

Dataset SmallFleet(std::uint64_t seed = 11) {
  SynthConfig config;
  config.num_avails = 10;
  config.mean_rccs_per_avail = 25.0;
  config.seed = seed;
  return GenerateDataset(config);
}

std::int64_t MaxAvailId(const Dataset& data) {
  std::int64_t max_id = 0;
  for (const Avail& avail : data.avails.rows()) {
    if (avail.id > max_id) max_id = avail.id;
  }
  return max_id;
}

std::int64_t MaxRccId(const Dataset& data) {
  std::int64_t max_id = 0;
  for (const Rcc& rcc : data.rccs.rows()) {
    if (rcc.id > max_id) max_id = rcc.id;
  }
  return max_id;
}

Avail NewAvail(std::int64_t id) {
  Avail avail;
  avail.id = id;
  avail.ship_id = 900 + id;
  avail.status = AvailStatus::kClosed;
  avail.planned_start = *Date::Parse("2021-03-01");
  avail.planned_end = *Date::Parse("2021-09-01");
  avail.actual_start = *Date::Parse("2021-03-02");
  avail.actual_end = *Date::Parse("2021-10-15");
  avail.ship_class = 1;
  avail.rmc_id = 2;
  avail.ship_age_years = 12.5;
  avail.avail_type = 1;
  avail.homeport = 2;
  avail.prior_avail_count = 3;
  avail.contract_value_musd = 42.75;
  avail.crew_size = 250;
  return avail;
}

Rcc NewRcc(std::int64_t id, std::int64_t avail_id) {
  Rcc rcc;
  rcc.id = id;
  rcc.avail_id = avail_id;
  rcc.type = RccType::kNewWork;
  rcc.swlin = *Swlin::Parse("434-11-001");
  rcc.creation_date = *Date::Parse("2021-04-01");
  rcc.settled_date = *Date::Parse("2021-06-15");
  rcc.settled_amount = 1357.25;
  return rcc;
}

/// A seeded stream of valid mutation batches over a fleet, mixing every
/// kind a dirty cut's row order depends on: in-place RCC amends, new RCC
/// ids (later upserted again), RCCs moved to another avail, avail amends
/// and new avails. truth() is the content after the batches handed out so
/// far, kept by applying the same upserts in order.
class RandomHistory {
 public:
  RandomHistory(Dataset fleet, std::uint64_t seed)
      : truth_(std::move(fleet)),
        rng_(seed),
        next_avail_id_(MaxAvailId(truth_) + 1),
        next_rcc_id_(MaxRccId(truth_) + 1) {}

  /// One to four mutations; only in-place RCC amends when `amend_only`.
  std::vector<IngestMutation> NextBatch(bool amend_only = false) {
    std::vector<IngestMutation> batch(1 + Pick(4));
    for (IngestMutation& mutation : batch) {
      mutation = Next(amend_only);
      const Status applied =
          mutation.kind == MutationKind::kAvailUpsert
              ? truth_.avails.Upsert(mutation.avail)
              : truth_.rccs.Upsert(mutation.rcc);
      EXPECT_TRUE(applied.ok()) << applied.ToString();
    }
    return batch;
  }

  const Dataset& truth() const { return truth_; }

 private:
  std::size_t Pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.Next() % n);
  }

  IngestMutation Next(bool amend_only) {
    const std::vector<Avail>& avails = truth_.avails.rows();
    const std::vector<Rcc>& rccs = truth_.rccs.rows();
    switch (amend_only ? 0 : Pick(6)) {
      case 1: {
        Rcc rcc = NewRcc(next_rcc_id_++, avails[Pick(avails.size())].id);
        new_rcc_ids_.push_back(rcc.id);
        return MakeRccUpsert(rcc);
      }
      case 2:
        if (!new_rcc_ids_.empty()) {
          Rcc rcc =
              **truth_.rccs.Find(new_rcc_ids_[Pick(new_rcc_ids_.size())]);
          rcc.settled_amount += 1.0;
          return MakeRccUpsert(rcc);
        }
        break;
      case 3: {
        Rcc rcc = rccs[Pick(rccs.size())];
        rcc.avail_id = avails[Pick(avails.size())].id;
        return MakeRccUpsert(rcc);
      }
      case 4: {
        Avail avail = avails[Pick(avails.size())];
        avail.planned_end = avail.planned_end + 1 + Pick(30);
        avail.crew_size = 100 + static_cast<int>(Pick(400));
        return MakeAvailUpsert(avail);
      }
      case 5:
        return MakeAvailUpsert(NewAvail(next_avail_id_++));
      default:
        break;
    }
    Rcc rcc = rccs[Pick(rccs.size())];
    rcc.settled_amount = 0.25 * static_cast<double>(Pick(400000));
    return MakeRccUpsert(rcc);
  }

  Dataset truth_;
  Rng rng_;
  std::int64_t next_avail_id_;
  std::int64_t next_rcc_id_;
  std::vector<std::int64_t> new_rcc_ids_;
};

std::vector<std::int64_t> Sorted(std::vector<std::int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// A cut's tables must feed the paper's logical-time index exactly as the
/// true tables do: for every Eq. 3-6 category and t*, an index built over
/// `got` returns the ids an index over `want` returns. Order is not part
/// of the contract, membership is.
void ExpectIndexesLike(const Dataset& got, const Dataset& want) {
  auto got_index = MakeLogicalTimeIndex(IndexBackend::kAvlTree);
  auto want_index = MakeLogicalTimeIndex(IndexBackend::kAvlTree);
  ASSERT_TRUE(got_index.ok() && want_index.ok());
  (*got_index)->Build(BuildIndexEntries(got));
  (*want_index)->Build(BuildIndexEntries(want));
  ASSERT_EQ((*got_index)->size(), (*want_index)->size());

  std::vector<std::int64_t> got_ids;
  std::vector<std::int64_t> want_ids;
  for (const RccStatusCategory category :
       {RccStatusCategory::kActive, RccStatusCategory::kSettled,
        RccStatusCategory::kCreated, RccStatusCategory::kNotCreated}) {
    for (const double t_star : {-50.0, 0.0, 10.0, 45.0, 90.0, 200.0, 1e6}) {
      (*got_index)->Collect(category, t_star, &got_ids);
      (*want_index)->Collect(category, t_star, &want_ids);
      EXPECT_EQ(Sorted(got_ids), Sorted(want_ids))
          << RccStatusCategoryToString(category) << " @ t*=" << t_star;
    }
  }
}

/// epoch() first, so the streamed path runs before any snapshot of this
/// generation exists; then it must equal everything the materialized cut
/// and the history's own content say.
void ExpectEpochIsContent(const DataStore& store, const Dataset& truth,
                          int step) {
  const std::uint64_t epoch = store.epoch();
  const auto snapshot = store.Snapshot();
  EXPECT_EQ(epoch, snapshot->epoch()) << "step " << step;
  EXPECT_EQ(epoch, ComputeDatasetFingerprint(snapshot->data()))
      << "step " << step;
  EXPECT_EQ(epoch, ComputeDatasetFingerprint(truth)) << "step " << step;
}

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("domd_data_store_test_" + name + "_" +
                std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(DataStoreTest, AppendIsVisibleInNewSnapshotOnly) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto before = (*store)->Snapshot();
  const std::size_t base_rccs = before->data().rccs.size();
  const std::uint64_t base_epoch = before->epoch();

  const std::int64_t rcc_id = MaxRccId(before->data()) + 1;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(NewRcc(rcc_id, 1))).ok());

  const auto after = (*store)->Snapshot();
  EXPECT_EQ(before->data().rccs.size(), base_rccs);   // pinned cut intact.
  EXPECT_EQ(before->epoch(), base_epoch);
  EXPECT_EQ(after->data().rccs.size(), base_rccs + 1);
  EXPECT_NE(after->epoch(), base_epoch);
  EXPECT_EQ(after->delta_depth(), 1u);
  EXPECT_TRUE(after->data().rccs.Find(rcc_id).ok());
  EXPECT_FALSE(before->data().rccs.Find(rcc_id).ok());
}

TEST(DataStoreTest, SnapshotIsCachedWhileClean) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto a = (*store)->Snapshot();
  const auto b = (*store)->Snapshot();
  EXPECT_EQ(a.get(), b.get());

  ASSERT_TRUE(
      (*store)->Append(MakeAvailUpsert(NewAvail(MaxAvailId(a->data()) + 1)))
          .ok());
  const auto c = (*store)->Snapshot();
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c.get(), (*store)->Snapshot().get());
}

TEST(DataStoreTest, CleanCutIndexesLikeTheOpenedFleet) {
  const Dataset fleet = SmallFleet();
  auto store = DataStore::Open(fleet);
  ASSERT_TRUE(store.ok());
  const auto clean = (*store)->Snapshot();
  EXPECT_EQ(clean->delta_depth(), 0u);
  EXPECT_EQ(clean->epoch(), ComputeDatasetFingerprint(fleet));
  EXPECT_EQ(clean->data().rccs.size(), fleet.rccs.size());
  ExpectIndexesLike(clean->data(), fleet);
}

TEST(DataStoreTest, RejectsRccForUnknownAvail) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto snapshot = (*store)->Snapshot();
  const std::int64_t ghost_avail = MaxAvailId(snapshot->data()) + 100;
  const Status status = (*store)->Append(
      MakeRccUpsert(NewRcc(MaxRccId(snapshot->data()) + 1, ghost_avail)));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  EXPECT_EQ((*store)->Snapshot().get(), snapshot.get());
}

TEST(DataStoreTest, AppendBatchIntroducingAvailWithItsRccs) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto snapshot = (*store)->Snapshot();
  const std::int64_t avail_id = MaxAvailId(snapshot->data()) + 1;
  const std::int64_t rcc_id = MaxRccId(snapshot->data()) + 1;
  // The avail and an RCC pointing at it ride one batch: validation must
  // see the in-batch avail, not just the base.
  std::vector<IngestMutation> batch;
  batch.push_back(MakeAvailUpsert(NewAvail(avail_id)));
  batch.push_back(MakeRccUpsert(NewRcc(rcc_id, avail_id)));
  ASSERT_TRUE((*store)->AppendBatch(batch).ok());
  const auto after = (*store)->Snapshot();
  EXPECT_TRUE(after->data().avails.Find(avail_id).ok());
  EXPECT_TRUE(after->data().rccs.Find(rcc_id).ok());
  EXPECT_EQ(after->delta_depth(), 2u);
}

TEST(DataStoreTest, DirtyCutIndexesLikeTheTrueTables) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto base = (*store)->Snapshot();
  Dataset truth = base->data();
  const Avail avail = truth.avails.rows()[2];
  const std::int64_t rcc_id = MaxRccId(truth) + 1;

  // Inserts: a new open RCC (end = +infinity) and a new settled one.
  Rcc open = NewRcc(rcc_id, avail.id);
  open.creation_date = avail.actual_start + 20;
  open.settled_date = std::nullopt;
  open.settled_amount = 0.0;
  Rcc settled = NewRcc(rcc_id + 1, avail.id);
  settled.creation_date = avail.actual_start + 20;
  settled.settled_date = settled.creation_date + 30;
  for (const Rcc& rcc : {open, settled}) {
    ASSERT_TRUE((*store)->Append(MakeRccUpsert(rcc)).ok());
    ASSERT_TRUE(truth.rccs.Upsert(rcc).ok());
  }

  const auto dirty = (*store)->Snapshot();
  ASSERT_EQ(dirty->delta_depth(), 2u);
  EXPECT_EQ(dirty->epoch(), ComputeDatasetFingerprint(truth));
  ExpectIndexesLike(dirty->data(), truth);
  EXPECT_FALSE(base->data().rccs.Find(open.id).ok());
  EXPECT_FALSE(base->data().rccs.Find(settled.id).ok());
}

TEST(DataStoreTest, MergePreservesEpochAndContent) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto base = (*store)->Snapshot();
  ASSERT_TRUE(
      (*store)->Append(MakeRccUpsert(NewRcc(MaxRccId(base->data()) + 1, 2)))
          .ok());
  const auto dirty = (*store)->Snapshot();
  ASSERT_EQ(dirty->delta_depth(), 1u);

  auto merged = (*store)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->merged_mutations, 1u);
  EXPECT_EQ(merged->old_epoch, base->epoch());

  const auto clean = (*store)->Snapshot();
  // The merge changed representation (delta -> base), not content, so
  // the epoch must not move: same rows => same fingerprint => same epoch.
  EXPECT_EQ(clean->epoch(), dirty->epoch());
  EXPECT_EQ(merged->new_epoch, dirty->epoch());
  EXPECT_EQ(clean->delta_depth(), 0u);
  EXPECT_EQ((*store)->epoch(), clean->epoch());
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  EXPECT_EQ(clean->data().rccs.size(), dirty->data().rccs.size());

  // The pinned pre-merge snapshots still read their own cuts.
  EXPECT_EQ(base->data().rccs.size() + 1, clean->data().rccs.size());
}

TEST(DataStoreTest, AmendReplacesTheRowAndMergeKeepsIt) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto before = (*store)->Snapshot();
  // Settle a previously-open RCC: the amend must replace its row in place.
  const Rcc* open = nullptr;
  for (const Rcc& rcc : before->data().rccs.rows()) {
    if (!rcc.settled_date.has_value()) {
      open = &rcc;
      break;
    }
  }
  ASSERT_NE(open, nullptr) << "fleet has no open RCC to settle";
  const std::size_t row = static_cast<std::size_t>(
      open - before->data().rccs.rows().data());
  Rcc amended = *open;
  amended.settled_date = amended.creation_date + 14;
  amended.settled_amount = 777.25;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(amended)).ok());

  Dataset truth = before->data();
  ASSERT_TRUE(truth.rccs.Upsert(amended).ok());
  const auto dirty = (*store)->Snapshot();
  ASSERT_EQ(dirty->delta_depth(), 1u);
  // An amend replaces, it does not add.
  EXPECT_EQ(dirty->data().rccs.size(), before->data().rccs.size());
  EXPECT_EQ(dirty->data().rccs.rows()[row].settled_date,
            amended.settled_date);
  EXPECT_EQ(dirty->epoch(), ComputeDatasetFingerprint(truth));
  // The settled interval supersedes the open one for every t*.
  ExpectIndexesLike(dirty->data(), truth);
  // The pinned cut still reads the open row.
  EXPECT_FALSE(before->data().rccs.rows()[row].settled_date.has_value());

  ASSERT_TRUE((*store)->Merge().ok());
  const auto merged = (*store)->Snapshot();
  EXPECT_EQ(merged->delta_depth(), 0u);
  EXPECT_EQ(merged->epoch(), dirty->epoch());
  EXPECT_EQ(merged->data().rccs.size(), before->data().rccs.size());
  EXPECT_EQ(merged->data().rccs.rows()[row].settled_date,
            amended.settled_date);
  ExpectIndexesLike(merged->data(), truth);
}

TEST(DataStoreTest, PendingCountsEachKeyOnce) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  Dataset truth = (*store)->Snapshot()->data();
  const Avail avail = NewAvail(MaxAvailId(truth) + 1);
  Rcc rcc = NewRcc(MaxRccId(truth) + 1, avail.id);

  // The RCC rides a later batch than its new avail: validation finds the
  // avail among the pending keys.
  ASSERT_TRUE((*store)->Append(MakeAvailUpsert(avail)).ok());
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(rcc)).ok());
  rcc.settled_amount += 1.0;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(rcc)).ok());
  EXPECT_EQ((*store)->pending_mutations(), 2u);
  EXPECT_EQ((*store)->Snapshot()->delta_depth(), 2u);

  // A failed merge leaves the count alone; the RCC upserted again after it
  // is still one key.
  {
    ScopedFaultInjection faults("ingest.merge.commit=fail-nth:1");
    EXPECT_FALSE((*store)->Merge().ok());
  }
  EXPECT_EQ((*store)->pending_mutations(), 2u);
  rcc.settled_amount += 1.0;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(rcc)).ok());
  EXPECT_EQ((*store)->pending_mutations(), 2u);
  EXPECT_EQ((*store)->stats().pending, 2u);
  EXPECT_EQ((*store)->Snapshot()->delta_depth(), 2u);

  auto merged = (*store)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->merged_mutations, 2u);
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  ASSERT_TRUE(truth.avails.Upsert(avail).ok());
  ASSERT_TRUE(truth.rccs.Upsert(rcc).ok());
  EXPECT_EQ((*store)->Snapshot()->epoch(), ComputeDatasetFingerprint(truth));

  // An upsert that lands between a merge's cut and its commit stays
  // pending: the commit erases only keys at or below its cut. The commit
  // fault point is hit after the cut is pinned, and sleeps.
  rcc.settled_amount += 1.0;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(rcc)).ok());
  {
    ScopedFaultInjection faults("ingest.merge.commit=latency-ms:200");
    const fault::FaultPoint& commit =
        fault::FaultRegistry::Default().GetPoint("ingest.merge.commit");
    std::atomic<bool> finished{false};
    std::thread merger([&] {
      auto during = (*store)->Merge();
      EXPECT_TRUE(during.ok()) << during.status().ToString();
      if (during.ok()) {
        EXPECT_EQ(during->merged_mutations, 1u);
      }
      finished.store(true);
    });
    while (commit.hits() == 0 && !finished.load()) std::this_thread::yield();
    rcc.settled_amount += 1.0;
    EXPECT_TRUE((*store)->Append(MakeRccUpsert(rcc)).ok());
    merger.join();
  }
  EXPECT_EQ((*store)->pending_mutations(), 1u);
  ASSERT_TRUE(truth.rccs.Upsert(rcc).ok());
  EXPECT_EQ((*store)->Snapshot()->epoch(), ComputeDatasetFingerprint(truth));
}

TEST(DataStoreTest, MergeFaultLeavesStateIntactAndRetrySucceeds) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto base = (*store)->Snapshot();
  ASSERT_TRUE(
      (*store)->Append(MakeRccUpsert(NewRcc(MaxRccId(base->data()) + 1, 3)))
          .ok());
  const auto dirty = (*store)->Snapshot();
  {
    ScopedFaultInjection faults("ingest.merge.commit=fail-nth:1");
    EXPECT_FALSE((*store)->Merge().ok());
  }
  EXPECT_EQ((*store)->pending_mutations(), 1u);
  EXPECT_EQ((*store)->stats().merge_failures, 1u);
  EXPECT_EQ((*store)->Snapshot()->epoch(), dirty->epoch());

  auto merged = (*store)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  EXPECT_EQ((*store)->Snapshot()->epoch(), dirty->epoch());
}

TEST(DataStoreTest, DurableDirSurvivesMergeAndReopen) {
  ScopedTempDir dir("durable");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(
      fleet.avails.WriteFile(dir.path() + "/avails.csv").ok());
  ASSERT_TRUE(fleet.rccs.WriteFile(dir.path() + "/rccs.csv").ok());

  std::uint64_t merged_epoch = 0;
  std::size_t merged_rccs = 0;
  {
    auto store = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const auto snapshot = (*store)->Snapshot();
    ASSERT_TRUE((*store)
                    ->Append(MakeRccUpsert(
                        NewRcc(MaxRccId(snapshot->data()) + 1, 4)))
                    .ok());
    auto merged = (*store)->Merge();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_TRUE(merged->persisted);
    merged_epoch = merged->new_epoch;
    merged_rccs = (*store)->Snapshot()->data().rccs.size();
    // The log was rotated down to its header by the persisting merge.
    EXPECT_EQ((*store)->pending_mutations(), 0u);
  }
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().replayed, 0u);
  const auto snapshot = (*reopened)->Snapshot();
  EXPECT_EQ(snapshot->epoch(), merged_epoch);
  EXPECT_EQ(snapshot->data().rccs.size(), merged_rccs);
}

TEST(DataStoreTest, CrashedLogRotationLosesNothing) {
  // The merge commits (CSVs durable, in-memory state swapped) but the log
  // rotation dies after writing the replacement log, before renaming it
  // into place. The old log — still the only live copy — holds the merged
  // records; replaying them over the merged CSVs is an idempotent no-op,
  // so a reopened store lands on identical content and epoch. Acknowledged
  // data is never lost, which the pre-rename fault point makes the
  // worst-case check (a truncating rotation would fail it).
  ScopedTempDir dir("rotatecrash");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(fleet.avails.WriteFile(dir.path() + "/avails.csv").ok());
  ASSERT_TRUE(fleet.rccs.WriteFile(dir.path() + "/rccs.csv").ok());

  const std::int64_t rcc_id = MaxRccId(fleet) + 1;
  std::uint64_t merged_epoch = 0;
  {
    auto store = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(MakeRccUpsert(NewRcc(rcc_id, 3))).ok());
    ScopedFaultInjection faults("ingest.log.rotate=fail-nth:1");
    EXPECT_FALSE((*store)->Merge().ok());
    // The merge itself committed; only the rotation failed.
    EXPECT_EQ((*store)->pending_mutations(), 0u);
    merged_epoch = (*store)->Snapshot()->epoch();
  }
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The un-rotated log replays the already-merged record...
  EXPECT_EQ((*reopened)->stats().replayed, 1u);
  const auto snapshot = (*reopened)->Snapshot();
  // ...idempotently: identical content, identical epoch.
  EXPECT_TRUE(snapshot->data().rccs.Find(rcc_id).ok());
  EXPECT_EQ(snapshot->epoch(), merged_epoch);
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// An RCC upsert and a new avail whose doubles need all 17 significant
/// digits, or 11 for the amount, to read back: none survives six.
std::vector<IngestMutation> ExactValues(const Dataset& fleet) {
  Avail avail = NewAvail(MaxAvailId(fleet) + 1);
  avail.ship_age_years = 17.123456789012345;
  avail.contract_value_musd = 0.1 + 0.2;
  Rcc rcc = NewRcc(MaxRccId(fleet) + 1, avail.id);
  rcc.settled_amount = 12345.678901;
  return {MakeAvailUpsert(avail), MakeRccUpsert(rcc)};
}

/// `data` holds the rows of `mutations` with every double's bits.
void ExpectExactValues(const Dataset& data,
                       const std::vector<IngestMutation>& mutations) {
  const auto avail = data.avails.Find(mutations[0].avail.id);
  ASSERT_TRUE(avail.ok()) << avail.status().ToString();
  EXPECT_EQ(Bits((*avail)->ship_age_years), Bits(17.123456789012345));
  EXPECT_EQ(Bits((*avail)->contract_value_musd), Bits(0.1 + 0.2));
  const auto rcc = data.rccs.Find(mutations[1].rcc.id);
  ASSERT_TRUE(rcc.ok()) << rcc.status().ToString();
  EXPECT_EQ(Bits((*rcc)->settled_amount), Bits(12345.678901))
      << (*rcc)->settled_amount;
}

// An acknowledged value survives a persisted merge and a restart bit for
// bit, and so the epoch does too: the merge writes the base tables in the
// one exact number format.
TEST(DataStoreTest, PersistedMergeKeepsEveryBitAcrossReopen) {
  ScopedTempDir dir("exactmerge");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(WriteBaseTables(fleet, dir.path()).ok());
  const std::vector<IngestMutation> mutations = ExactValues(fleet);
  std::uint64_t merged_epoch = 0;
  {
    auto store = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->AppendBatch(mutations).ok());
    auto merged = (*store)->Merge();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_TRUE(merged->persisted);
    merged_epoch = merged->new_epoch;
  }
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().replayed, 0u);
  const auto snapshot = (*reopened)->Snapshot();
  EXPECT_EQ(Hex64(snapshot->epoch()), Hex64(merged_epoch));
  ExpectExactValues(snapshot->data(), mutations);
}

// The same across a snapshot install: a replica that installs a peer's
// export into its persist dir and restarts holds the peer's values, at
// the peer's epoch and position.
TEST(DataStoreTest, InstalledSnapshotKeepsEveryBitAcrossReopen) {
  auto sender = DataStore::Open(SmallFleet());
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();
  const std::vector<IngestMutation> mutations = ExactValues(SmallFleet());
  ASSERT_TRUE((*sender)->AppendBatch(mutations).ok());
  auto exported = (*sender)->TailFrom(0, nullptr, 0);
  ASSERT_TRUE(exported.ok() && exported->snapshot);
  std::vector<IngestMutation> rows;
  for (const std::string& payload : exported->rows) {
    auto row = DecodeMutation(payload);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    rows.push_back(std::move(*row));
  }
  const std::uint64_t epoch = (*sender)->epoch();

  ScopedTempDir dir("exactinstall");
  ASSERT_TRUE(WriteBaseTables(SmallFleet(12), dir.path()).ok());
  {
    auto receiver = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(receiver.ok()) << receiver.status().ToString();
    ASSERT_TRUE((*receiver)
                    ->InstallSnapshot(rows, exported->last_seq,
                                      exported->chain)
                    .ok());
    EXPECT_EQ((*receiver)->epoch(), epoch);
  }
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Hex64((*reopened)->epoch()), Hex64(epoch));
  ExpectExactValues((*reopened)->Snapshot()->data(), mutations);
  std::uint64_t seq = 0;
  std::uint64_t chain = 0;
  (*reopened)->Position(&seq, &chain);
  EXPECT_EQ(seq, exported->last_seq);
  EXPECT_EQ(chain, exported->chain);
}

/// The record an earlier build's log held for `mutation`: its doubles
/// written with printf's "%.17g".
std::string SeventeenDigitRecord(const IngestMutation& mutation) {
  const auto g17 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::vector<std::string> fields = StrSplit(EncodeMutation(mutation), '|');
  if (mutation.kind == MutationKind::kAvailUpsert) {
    fields[10] = g17(mutation.avail.ship_age_years);
    fields[14] = g17(mutation.avail.contract_value_musd);
  } else {
    fields[7] = g17(mutation.rcc.settled_amount);
  }
  return StrJoin(fields, "|");
}

// A log whose records spell doubles in "%.17g", as earlier builds wrote
// it, replays to the epoch of the same mutations appended by this build.
TEST(DataStoreTest, SeventeenDigitLogReplaysToTheAppendedEpoch) {
  const Dataset fleet = SmallFleet();
  const std::vector<IngestMutation> mutations = ExactValues(fleet);
  auto appended = DataStore::Open(fleet);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  ASSERT_TRUE((*appended)->AppendBatch(mutations).ok());

  ScopedTempDir dir("g17log");
  std::string log = "domd-ingest-log v1\n";
  std::size_t respelled = 0;
  for (const IngestMutation& mutation : mutations) {
    const std::string payload = SeventeenDigitRecord(mutation);
    respelled += payload != EncodeMutation(mutation);
    log += std::to_string(payload.size()) + " " + Hex64(Fnv1a(payload)) +
           " " + payload + "\n";
  }
  EXPECT_GT(respelled, 0u);
  ASSERT_TRUE(WriteFileDurably(dir.path() + "/ingest.log", log).ok());
  DataStoreOptions options;
  options.log_path = dir.path() + "/ingest.log";
  auto replayed = DataStore::Open(fleet, options);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ((*replayed)->stats().replayed, mutations.size());
  EXPECT_EQ(Hex64((*replayed)->epoch()), Hex64((*appended)->epoch()));
  ExpectExactValues((*replayed)->Snapshot()->data(), mutations);
}

std::string FileBytes(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

TEST(DataStoreTest, InstallSnapshotRejectsRccForUnknownAvail) {
  ScopedTempDir dir("snapshotref");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(fleet.avails.WriteFile(dir.path() + "/avails.csv").ok());
  ASSERT_TRUE(fleet.rccs.WriteFile(dir.path() + "/rccs.csv").ok());
  auto store = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(
      (*store)->Append(MakeRccUpsert(NewRcc(MaxRccId(fleet) + 1, 4))).ok());

  // A peer's export plus one RCC naming an avail that no row upserts.
  auto exported = (*store)->TailFrom(0, nullptr, 0);
  ASSERT_TRUE(exported.ok() && exported->snapshot);
  std::vector<IngestMutation> rows;
  for (const std::string& payload : exported->rows) {
    auto row = DecodeMutation(payload);
    ASSERT_TRUE(row.ok());
    rows.push_back(std::move(*row));
  }
  const std::int64_t ghost_avail = MaxAvailId(fleet) + 100;
  const IngestMutation orphan =
      MakeRccUpsert(NewRcc(MaxRccId(fleet) + 2, ghost_avail));
  rows.push_back(orphan);

  std::uint64_t seq = 0;
  std::uint64_t chain = 0;
  (*store)->Position(&seq, &chain);
  const std::uint64_t epoch = (*store)->epoch();
  const std::vector<std::string> files = {"avails.csv", "rccs.csv",
                                          "ingest.log"};
  std::vector<std::string> bytes;
  for (const std::string& file : files) {
    bytes.push_back(FileBytes(dir.path() + "/" + file));
  }

  const Status installed =
      (*store)->InstallSnapshot(rows, exported->last_seq + 5, chain ^ 1);
  EXPECT_EQ(installed.code(), StatusCode::kNotFound);
  EXPECT_NE(installed.message().find("references unknown avail " +
                                     std::to_string(ghost_avail)),
            std::string::npos)
      << installed.ToString();
  // The status an Append of the same row gets.
  EXPECT_EQ(installed.ToString(), (*store)->Append(orphan).ToString());

  // Nothing was installed: position, epoch, pending tail, files and log.
  std::uint64_t seq_after = 0;
  std::uint64_t chain_after = 0;
  (*store)->Position(&seq_after, &chain_after);
  EXPECT_EQ(seq_after, seq);
  EXPECT_EQ(chain_after, chain);
  EXPECT_EQ((*store)->epoch(), epoch);
  EXPECT_EQ((*store)->pending_mutations(), 1u);
  for (std::size_t f = 0; f < files.size(); ++f) {
    EXPECT_EQ(FileBytes(dir.path() + "/" + files[f]), bytes[f]) << files[f];
  }

  // The export alone installs, at the same content.
  rows.pop_back();
  ASSERT_TRUE((*store)
                  ->InstallSnapshot(rows, exported->last_seq, exported->chain)
                  .ok());
  EXPECT_EQ((*store)->epoch(), epoch);
  EXPECT_EQ((*store)->pending_mutations(), 0u);
}

TEST(DataStoreTest, CrashBeforeMergeReplaysTheLog) {
  ScopedTempDir dir("replay");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(
      fleet.avails.WriteFile(dir.path() + "/avails.csv").ok());
  ASSERT_TRUE(fleet.rccs.WriteFile(dir.path() + "/rccs.csv").ok());

  std::uint64_t dirty_epoch = 0;
  const std::int64_t rcc_id = MaxRccId(fleet) + 1;
  {
    auto store = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(MakeRccUpsert(NewRcc(rcc_id, 5))).ok());
    dirty_epoch = (*store)->Snapshot()->epoch();
    // Destroyed without Merge: the append lives only in the log.
  }
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().replayed, 1u);
  EXPECT_EQ((*reopened)->pending_mutations(), 1u);
  const auto snapshot = (*reopened)->Snapshot();
  EXPECT_TRUE(snapshot->data().rccs.Find(rcc_id).ok());
  // Same base + same replayed mutation => identical content => identical
  // epoch: restart is invisible to fingerprint-keyed caches.
  EXPECT_EQ(snapshot->epoch(), dirty_epoch);
}

TEST(DataStoreTest, InPlaceAmendCannotServeStaleFingerprint) {
  // An in-place amend of a middle row keeps the dataset's address, table
  // sizes and last ids. The epoch of a store opened over it still follows
  // the amended content, and so does every view-cache key built on it.
  Dataset data = SmallFleet();
  const std::uint64_t before = ComputeDatasetFingerprint(data);

  ASSERT_GE(data.rccs.size(), 3u);
  Rcc amended = data.rccs.rows()[data.rccs.size() / 2];
  amended.settled_amount += 5000.0;
  ASSERT_TRUE(data.rccs.Upsert(amended).ok());

  auto store = DataStore::Open(data);
  ASSERT_TRUE(store.ok());
  const std::uint64_t epoch = (*store)->epoch();
  EXPECT_NE(epoch, before);
  EXPECT_EQ(epoch, ComputeDatasetFingerprint(data));
}

TEST(DataStoreTest, EpochMatchesMaterializedContent) {
  ScopedTempDir dir("epochstream");
  const Dataset fleet = SmallFleet();
  const std::string log_path = dir.path() + "/ingest.log";
  {
    // A replayed record that fails validation: Materialize's Upsert skips
    // it, so the stream must too (appends can never log one).
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(log_path, &replay);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    Rcc invalid = fleet.rccs.rows()[fleet.rccs.size() / 2];
    invalid.settled_amount = -1.0;
    ASSERT_TRUE((*log)->Append(MakeRccUpsert(invalid)).ok());
  }
  // No persist_dir: merges leave the whole log in the tail, so every cut
  // re-applies an already-merged prefix.
  DataStoreOptions logged;
  logged.log_path = log_path;
  auto with_log = DataStore::Open(fleet, logged);
  ASSERT_TRUE(with_log.ok()) << with_log.status().ToString();
  ASSERT_EQ((*with_log)->pending_mutations(), 1u);
  auto in_memory = DataStore::Open(fleet);
  ASSERT_TRUE(in_memory.ok());

  RandomHistory history(fleet, 17);
  ExpectEpochIsContent(**with_log, history.truth(), -1);
  for (int step = 0; step < 300; ++step) {
    const std::vector<IngestMutation> batch = history.NextBatch();
    ASSERT_TRUE((*in_memory)->AppendBatch(batch).ok());
    ASSERT_TRUE((*with_log)->AppendBatch(batch).ok());
    if (step % 50 == 25) {
      ASSERT_TRUE((*in_memory)->Merge().ok());
    }
    if (step % 60 == 30) {
      ASSERT_TRUE((*with_log)->Merge().ok());
    }
    if (step == 150) {
      // Replace the in-memory store's dirty state with the logged store's
      // exported cut, as a catching-up replica does.
      auto exported = (*with_log)->TailFrom(0, nullptr, 0);
      ASSERT_TRUE(exported.ok() && exported->snapshot);
      std::vector<IngestMutation> rows;
      for (const std::string& payload : exported->rows) {
        auto row = DecodeMutation(payload);
        ASSERT_TRUE(row.ok());
        rows.push_back(std::move(*row));
      }
      ASSERT_TRUE((*in_memory)
                      ->InstallSnapshot(rows, exported->last_seq,
                                        exported->chain)
                      .ok());
      EXPECT_EQ((*in_memory)->pending_mutations(), 0u);
    }
    ExpectEpochIsContent(**in_memory, history.truth(), step);
    ExpectEpochIsContent(**with_log, history.truth(), step);
  }
}

TEST(DataStoreTest, DirtySnapshotFingerprintIsNeverStale) {
  // Amend-only: table sizes and last ids never move, and each dirty cut is
  // a fresh copy that may reuse a dead one's address. Its epoch must still
  // be its own content's.
  const Dataset fleet = SmallFleet();
  auto store = DataStore::Open(fleet);
  ASSERT_TRUE(store.ok());
  RandomHistory history(fleet, 5);
  for (int step = 0; step < 200; ++step) {
    ASSERT_TRUE(
        (*store)->AppendBatch(history.NextBatch(/*amend_only=*/true)).ok());
    const auto snapshot = (*store)->Snapshot();
    ASSERT_GT(snapshot->delta_depth(), 0u);
    EXPECT_EQ(ComputeDatasetFingerprint(snapshot->data()), snapshot->epoch())
        << "step " << step;
  }
}

/// A history as TailFrom must serve it: the payload appended at sequence s
/// is payloads[s - 1], and the history chain after it is chains[s].
struct Sequenced {
  std::vector<std::string> payloads;
  std::vector<std::uint64_t> chains{0};

  void Add(const std::vector<IngestMutation>& batch) {
    for (const IngestMutation& mutation : batch) {
      payloads.push_back(EncodeMutation(mutation));
      chains.push_back(MutationChain(chains.back(), payloads.back()));
    }
  }
  std::uint64_t last_seq() const { return payloads.size(); }
  std::vector<std::string> From(std::uint64_t seq) const {
    return {payloads.begin() + static_cast<std::ptrdiff_t>(seq - 1),
            payloads.end()};
  }
};

/// Appends `count` batches of `history` to `store`, recording them.
void AppendBatches(DataStore* store, RandomHistory* history, int count,
                   Sequenced* appended) {
  for (int b = 0; b < count; ++b) {
    const auto batch = history->NextBatch();
    ASSERT_TRUE(store->AppendBatch(batch).ok());
    appended->Add(batch);
  }
}

/// The rows a snapshot export of `data` carries: avails, then RCCs, each in
/// table order.
std::vector<std::string> ExportRows(const Dataset& data) {
  std::vector<std::string> rows;
  for (const Avail& avail : data.avails.rows()) {
    rows.push_back(EncodeMutation(MakeAvailUpsert(avail)));
  }
  for (const Rcc& rcc : data.rccs.rows()) {
    rows.push_back(EncodeMutation(MakeRccUpsert(rcc)));
  }
  return rows;
}

TEST(DataStoreTest, TailFromServesTheAppendedRecordsBySequence) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  RandomHistory history(SmallFleet(), 5);
  Sequenced appended;
  AppendBatches(store->get(), &history, 4, &appended);
  const std::uint64_t last = appended.last_seq();
  ASSERT_GE(last, 4u);
  // From every sequence, with and without the requester's chain: the
  // records byte-equal to EncodeMutation of what was appended there.
  for (std::uint64_t from = 1; from <= last + 1; ++from) {
    const std::uint64_t* anchors[] = {nullptr, &appended.chains[from - 1]};
    for (const std::uint64_t* chain : anchors) {
      auto tail = (*store)->TailFrom(from, chain, 100);
      ASSERT_TRUE(tail.ok()) << tail.status().ToString();
      EXPECT_FALSE(tail->snapshot) << from;
      EXPECT_FALSE(tail->requester_ahead) << from;
      EXPECT_FALSE(tail->more) << from;
      EXPECT_EQ(tail->first_seq, from);
      EXPECT_EQ(tail->last_seq, last);
      EXPECT_EQ(tail->records, appended.From(from)) << from;
    }
  }
}

TEST(DataStoreTest, TailFromCapsTheReplyAtMaxRecords) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  RandomHistory history(SmallFleet(), 6);
  Sequenced appended;
  AppendBatches(store->get(), &history, 8, &appended);
  ASSERT_GT(appended.last_seq(), 8u);
  // A walk of capped replies covers the tail once, in order: every reply
  // but the last is full and says more follows.
  std::vector<std::string> walked;
  std::uint64_t from = 1;
  for (;;) {
    auto tail = (*store)->TailFrom(from, &appended.chains[from - 1], 4);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    ASSERT_FALSE(tail->snapshot);
    EXPECT_EQ(tail->first_seq, from);
    ASSERT_LE(tail->records.size(), 4u);
    walked.insert(walked.end(), tail->records.begin(), tail->records.end());
    from += tail->records.size();
    if (!tail->more) break;
    ASSERT_EQ(tail->records.size(), 4u);
  }
  EXPECT_EQ(from, appended.last_seq() + 1);
  EXPECT_EQ(walked, appended.payloads);
}

TEST(DataStoreTest, TailFromNumberingContinuesAcrossAPersistedMerge) {
  ScopedTempDir dir("tailmerge");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(WriteBaseTables(fleet, dir.path()).ok());
  RandomHistory history(fleet, 7);
  Sequenced appended;
  std::uint64_t cut = 0;
  {
    auto store = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    AppendBatches(store->get(), &history, 3, &appended);
    auto merged = (*store)->Merge();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_TRUE(merged->persisted);
    cut = appended.last_seq();
    AppendBatches(store->get(), &history, 2, &appended);

    // The records past the cut keep their numbers, anchored on the chain
    // at the cut...
    auto tail = (*store)->TailFrom(cut + 1, &appended.chains[cut], 100);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    EXPECT_FALSE(tail->snapshot);
    EXPECT_EQ(tail->first_seq, cut + 1);
    EXPECT_EQ(tail->records, appended.From(cut + 1));

    // ...and an anchor below the cut was compacted into the base tables:
    // only a snapshot of the whole current state serves it.
    for (std::uint64_t from = 1; from <= cut; ++from) {
      auto below = (*store)->TailFrom(from, &appended.chains[from - 1], 100);
      ASSERT_TRUE(below.ok()) << below.status().ToString();
      ASSERT_TRUE(below->snapshot) << from;
      EXPECT_TRUE(below->records.empty());
      EXPECT_EQ(below->last_seq, appended.last_seq());
      EXPECT_EQ(below->chain, appended.chains.back());
      EXPECT_EQ(below->rows, ExportRows((*store)->Snapshot()->data()));
    }
  }
  // A restart replays the rotated log under the same numbering.
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->last_seq(), appended.last_seq());
  auto tail = (*reopened)->TailFrom(cut + 1, &appended.chains[cut], 100);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_FALSE(tail->snapshot);
  EXPECT_EQ(tail->first_seq, cut + 1);
  EXPECT_EQ(tail->records, appended.From(cut + 1));
}

TEST(DataStoreTest, TailFromAnswersADivergedChainWithASnapshot) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  RandomHistory history(SmallFleet(), 8);
  Sequenced appended;
  AppendBatches(store->get(), &history, 3, &appended);
  const auto rows = ExportRows((*store)->Snapshot()->data());
  // A requester whose chain at its anchor is not ours holds another
  // history there: extending it would be wrong at any sequence.
  for (std::uint64_t from = 1; from <= appended.last_seq() + 1; ++from) {
    const std::uint64_t wrong = appended.chains[from - 1] ^ 1;
    auto tail = (*store)->TailFrom(from, &wrong, 100);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    ASSERT_TRUE(tail->snapshot) << from;
    EXPECT_TRUE(tail->records.empty());
    EXPECT_EQ(tail->last_seq, appended.last_seq());
    EXPECT_EQ(tail->chain, appended.chains.back());
    EXPECT_EQ(tail->rows, rows);
  }
}

TEST(DataStoreTest, TailFromPastTheNextSequenceReportsRequesterAhead) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  RandomHistory history(SmallFleet(), 9);
  Sequenced appended;
  AppendBatches(store->get(), &history, 2, &appended);
  const std::uint64_t last = appended.last_seq();
  for (const std::uint64_t from : {last + 2, last + 100}) {
    auto tail = (*store)->TailFrom(from, nullptr, 100);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    EXPECT_TRUE(tail->requester_ahead) << from;
    EXPECT_FALSE(tail->snapshot);
    EXPECT_TRUE(tail->records.empty());
    EXPECT_EQ(tail->last_seq, last);
  }
  // One past the end is a requester that is level, not ahead.
  auto level = (*store)->TailFrom(last + 1, &appended.chains[last], 100);
  ASSERT_TRUE(level.ok()) << level.status().ToString();
  EXPECT_FALSE(level->requester_ahead);
  EXPECT_FALSE(level->snapshot);
  EXPECT_FALSE(level->more);
  EXPECT_TRUE(level->records.empty());
}

TEST(DataStoreConcurrencyTest, PinnedSnapshotsStableUnderWritersAndMerges) {
  DataStoreOptions options;
  options.merge_threshold = 8;  // keep the background merger busy.
  auto store = DataStore::Open(SmallFleet(), options);
  ASSERT_TRUE(store.ok());
  const auto pinned = (*store)->Snapshot();
  const std::uint64_t pinned_epoch = pinned->epoch();
  const std::size_t pinned_rccs = pinned->data().rccs.size();
  const std::int64_t first_new_id = MaxRccId(pinned->data()) + 1;

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 40;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::int64_t id = first_new_id + w * kPerWriter + i;
        ASSERT_TRUE(
            (*store)->Append(MakeRccUpsert(NewRcc(id, 1 + (id % 5)))).ok());
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load()) {
      const auto snapshot = (*store)->Snapshot();
      // Every observed cut is internally consistent: its epoch is the
      // fingerprint of exactly the tables it pins.
      ASSERT_EQ(snapshot->epoch(),
                ComputeDatasetFingerprint(snapshot->data()));
      ASSERT_GE(snapshot->data().rccs.size(), pinned_rccs);
    }
  });
  threads.emplace_back([&] {
    while (!done.load()) {
      auto merged = (*store)->Merge();
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  auto merged = (*store)->Merge();
  ASSERT_TRUE(merged.ok());
  const auto final_snapshot = (*store)->Snapshot();
  EXPECT_EQ(final_snapshot->data().rccs.size(),
            pinned_rccs + kWriters * kPerWriter);
  EXPECT_EQ((*store)->pending_mutations(), 0u);

  // The pin held through every concurrent append and merge.
  EXPECT_EQ(pinned->epoch(), pinned_epoch);
  EXPECT_EQ(pinned->data().rccs.size(), pinned_rccs);
  EXPECT_FALSE(pinned->data().rccs.Find(first_new_id).ok());
}

TEST(DataStoreConcurrencyTest, EpochReadersRaceWritersAndMerges) {
  const Dataset fleet = SmallFleet();
  RandomHistory history(fleet, 99);
  std::vector<std::vector<IngestMutation>> batches(120);
  for (auto& batch : batches) batch = history.NextBatch();

  // The epoch after every prefix of the batches, replayed serially.
  std::map<std::uint64_t, std::size_t> prefix_of;
  {
    auto replay = DataStore::Open(fleet);
    ASSERT_TRUE(replay.ok());
    prefix_of.emplace((*replay)->epoch(), 0);
    for (std::size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE((*replay)->AppendBatch(batches[b]).ok());
      prefix_of.emplace((*replay)->epoch(), b + 1);
    }
    ASSERT_EQ((*replay)->epoch(), ComputeDatasetFingerprint(history.truth()));
  }
  // Distinct prefixes make "which prefix did this read see" well defined.
  ASSERT_EQ(prefix_of.size(), batches.size() + 1);

  DataStoreOptions options;
  options.merge_threshold = 6;  // keep the background merger busy.
  auto store = DataStore::Open(fleet, options);
  ASSERT_TRUE(store.ok());
  // One in-memory batch is far shorter than a scheduling quantum, so the
  // writer paces itself: after each batch it waits until every reader has
  // started a read, then appends the next batch while those reads run.
  struct Read {
    std::size_t from = 0;  ///< batches acknowledged when the read began.
    std::size_t to = 0;    ///< ... and when it returned.
    std::uint64_t epoch = 0;
  };
  constexpr std::size_t kReaders = 3;  // two epoch(), one Snapshot().
  std::atomic<bool> done{false};
  std::atomic<std::size_t> appended{0};
  std::vector<std::atomic<std::size_t>> started(kReaders);
  std::vector<std::vector<Read>> reads(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      do {
        Read read;
        read.from = appended.load();
        started[r].store(read.from + 1);
        if (r < 2) {
          read.epoch = (*store)->epoch();
        } else {
          const auto snapshot = (*store)->Snapshot();
          read.epoch = snapshot->epoch();
          EXPECT_EQ(read.epoch, ComputeDatasetFingerprint(snapshot->data()));
        }
        read.to = appended.load();
        reads[r].push_back(read);
      } while (!done.load());
    });
  }
  for (std::size_t b = 0; b < batches.size(); ++b) {
    EXPECT_TRUE((*store)->AppendBatch(batches[b]).ok());
    appended.store(b + 1);
    for (const auto& reader : started) {
      while (reader.load() < b + 2) std::this_thread::yield();
    }
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ((*store)->epoch(), ComputeDatasetFingerprint(history.truth()));
  for (std::size_t r = 0; r < kReaders; ++r) {
    for (const Read& read : reads[r]) {
      const auto prefix = prefix_of.find(read.epoch);
      ASSERT_NE(prefix, prefix_of.end())
          << "reader " << r << " saw epoch " << read.epoch
          << ", which no prefix of the history produces";
      // Linearizable: every batch acknowledged before the read began is
      // in it, and at most the one being appended as it returned.
      EXPECT_GE(prefix->second, read.from) << "reader " << r << " was stale";
      EXPECT_LE(prefix->second, read.to + 1) << "reader " << r;
    }
  }
}

TEST(DataStoreConcurrencyTest, TailFromRacesAppendsAndMerges) {
  const Dataset fleet = SmallFleet();
  RandomHistory history(fleet, 41);
  std::vector<std::vector<IngestMutation>> batches(150);
  Sequenced expected;
  for (auto& batch : batches) {
    batch = history.NextBatch();
    expected.Add(batch);
  }

  DataStoreOptions options;
  options.merge_threshold = 8;  // the merger keeps cutting the tail's base.
  auto store = DataStore::Open(fleet, options);
  ASSERT_TRUE(store.ok());
  std::atomic<bool> done{false};
  std::atomic<std::size_t> tail_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(300 + r);
      do {
        // Anchors near the head: some in the tail, some merged below it.
        const std::uint64_t last = (*store)->last_seq();
        const std::uint64_t from =
            last + 1 - rng.Next() % (std::min<std::uint64_t>(last, 32) + 1);
        auto tail = (*store)->TailFrom(
            from, r == 0 ? nullptr : &expected.chains[from - 1], 16);
        ASSERT_TRUE(tail.ok()) << tail.status().ToString();
        ASSERT_FALSE(tail->requester_ahead);
        if (tail->snapshot) continue;
        ASSERT_EQ(tail->first_seq, from);
        ASSERT_LE(tail->records.size(), 16u);
        ASSERT_LE(from - 1 + tail->records.size(), tail->last_seq);
        if (!tail->more) {
          ASSERT_EQ(from - 1 + tail->records.size(), tail->last_seq);
        }
        // Every record returned at sequence s is the one appended at s.
        for (std::size_t i = 0; i < tail->records.size(); ++i) {
          ASSERT_EQ(tail->records[i], expected.payloads[from - 1 + i])
              << "sequence " << from + i;
        }
        tail_reads.fetch_add(1);
      } while (!done.load());
    });
  }
  for (const auto& batch : batches) {
    EXPECT_TRUE((*store)->AppendBatch(batch).ok());
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(tail_reads.load(), 0u);
  std::uint64_t seq = 0;
  std::uint64_t chain = 0;
  (*store)->Position(&seq, &chain);
  EXPECT_EQ(seq, expected.last_seq());
  EXPECT_EQ(chain, expected.chains.back());
}

}  // namespace
}  // namespace domd
