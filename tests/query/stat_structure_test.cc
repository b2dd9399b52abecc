#include "query/stat_structure.h"

#include <gtest/gtest.h>

#include "query/status_query.h"
#include "synth/generator.h"

namespace domd {
namespace {

Dataset TinyDataset() {
  Dataset data;
  Avail a;
  a.id = 1;
  a.status = AvailStatus::kClosed;
  a.planned_start = Date::FromCivil(2020, 1, 1);
  a.planned_end = Date::FromCivil(2020, 4, 10);  // 100 days
  a.actual_start = a.planned_start;
  a.actual_end = Date::FromCivil(2020, 4, 20);
  EXPECT_TRUE(data.avails.Add(a).ok());

  auto add = [&](std::int64_t id, RccType type, const char* swlin,
                 int start_day, int end_day, double amount) {
    Rcc r;
    r.id = id;
    r.avail_id = 1;
    r.type = type;
    r.swlin = *Swlin::Parse(swlin);
    r.creation_date = a.actual_start + start_day;
    if (end_day >= 0) r.settled_date = a.actual_start + end_day;
    r.settled_amount = amount;
    EXPECT_TRUE(data.rccs.Add(r).ok());
  };
  add(1, RccType::kGrowth, "434-11-001", 10, 40, 8000);
  add(2, RccType::kGrowth, "411-22-333", 20, 80, 2000);
  add(3, RccType::kNewWork, "455-00-001", 30, -1, 5000);
  return data;
}

TEST(StatStructureTest, SweepAccumulatesCreatedAndSettled) {
  const Dataset data = TinyDataset();
  StatStructure sweep(data);
  const int all = GroupSchema::Level1GroupId(0, 0);

  sweep.AdvanceTo(15.0);
  EXPECT_EQ(sweep.Get(1, all).created_count, 1u);
  EXPECT_EQ(sweep.Get(1, all).settled_count, 0u);
  EXPECT_DOUBLE_EQ(sweep.Get(1, all).created_sum_amount, 8000.0);

  sweep.AdvanceTo(45.0);
  EXPECT_EQ(sweep.Get(1, all).created_count, 3u);
  EXPECT_EQ(sweep.Get(1, all).settled_count, 1u);
  EXPECT_EQ(sweep.Get(1, all).active_count(), 2u);
  EXPECT_DOUBLE_EQ(sweep.Get(1, all).active_sum_amount(), 7000.0);

  sweep.AdvanceTo(100.0);
  EXPECT_EQ(sweep.Get(1, all).settled_count, 2u);
  EXPECT_EQ(sweep.Get(1, all).active_count(), 1u);  // open RCC id 3
}

TEST(StatStructureTest, RowHoldsEveryGroupOfOneAvail) {
  const Dataset data = TinyDataset();
  StatStructure sweep(data);
  sweep.AdvanceTo(45.0);
  const auto row = sweep.Row(1);
  ASSERT_EQ(row.size(), static_cast<std::size_t>(GroupSchema::kNumGroups));
  for (int g = 0; g < GroupSchema::kNumGroups; ++g) {
    EXPECT_EQ(&row[static_cast<std::size_t>(g)], &sweep.Get(1, g));
  }
  EXPECT_EQ(row[static_cast<std::size_t>(GroupSchema::Level1GroupId(0, 0))]
                .created_count,
            3u);

  // An id the structure does not track reads a row of empty aggregates.
  const auto untracked = sweep.Row(42);
  ASSERT_EQ(untracked.size(), row.size());
  for (const GroupAggregates& agg : untracked) {
    EXPECT_EQ(agg.created_count, 0u);
    EXPECT_EQ(agg.settled_count, 0u);
    EXPECT_EQ(agg.created_sum_amount, 0.0);
    EXPECT_EQ(agg.settled_max_duration, 0.0);
  }
  EXPECT_EQ(&sweep.Get(42, 5), &untracked[5]);
}

TEST(StatStructureTest, GroupBucketsAreIndependent) {
  const Dataset data = TinyDataset();
  StatStructure sweep(data);
  sweep.AdvanceTo(100.0);

  const int g_slot = GroupSchema::TypeSlot(RccType::kGrowth);
  const int g4 = GroupSchema::Level1GroupId(g_slot, 4);
  EXPECT_EQ(sweep.Get(1, g4).created_count, 2u);
  const int n_slot = GroupSchema::TypeSlot(RccType::kNewWork);
  const int n4 = GroupSchema::Level1GroupId(n_slot, 4);
  EXPECT_EQ(sweep.Get(1, n4).created_count, 1u);
  const int level2_43 = GroupSchema::Level2GroupId(43);
  EXPECT_EQ(sweep.Get(1, level2_43).created_count, 1u);
  const int level2_41 = GroupSchema::Level2GroupId(41);
  EXPECT_EQ(sweep.Get(1, level2_41).created_count, 1u);
}

TEST(StatStructureTest, DurationAndMaxAggregates) {
  const Dataset data = TinyDataset();
  StatStructure sweep(data);
  sweep.AdvanceTo(100.0);
  const auto& agg = sweep.Get(1, GroupSchema::Level1GroupId(0, 0));
  EXPECT_DOUBLE_EQ(agg.settled_sum_duration, 30.0 + 60.0);
  EXPECT_DOUBLE_EQ(agg.settled_avg_duration(), 45.0);
  EXPECT_DOUBLE_EQ(agg.settled_max_duration, 60.0);
  EXPECT_DOUBLE_EQ(agg.settled_max_amount, 8000.0);
  EXPECT_DOUBLE_EQ(agg.created_max_amount, 8000.0);
}

TEST(StatStructureTest, PctOfCreatedRatios) {
  const Dataset data = TinyDataset();
  StatStructure sweep(data);
  sweep.AdvanceTo(45.0);
  const auto& agg = sweep.Get(1, GroupSchema::Level1GroupId(0, 0));
  EXPECT_NEAR(agg.active_pct_of_created(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(agg.active_avg_amount(), 3500.0, 1e-9);
}

TEST(StatStructureTest, ResetRewindsSweep) {
  const Dataset data = TinyDataset();
  StatStructure sweep(data);
  sweep.AdvanceTo(100.0);
  sweep.Reset();
  EXPECT_EQ(sweep.Get(1, GroupSchema::Level1GroupId(0, 0)).created_count, 0u);
  sweep.AdvanceTo(15.0);
  EXPECT_EQ(sweep.Get(1, GroupSchema::Level1GroupId(0, 0)).created_count, 1u);
}

TEST(StatStructureTest, BackwardAdvanceIsIgnored) {
  const Dataset data = TinyDataset();
  StatStructure sweep(data);
  sweep.AdvanceTo(50.0);
  const auto snapshot = sweep.Get(1, GroupSchema::Level1GroupId(0, 0));
  sweep.AdvanceTo(10.0);  // no-op
  EXPECT_EQ(sweep.Get(1, GroupSchema::Level1GroupId(0, 0)).created_count,
            snapshot.created_count);
  EXPECT_DOUBLE_EQ(sweep.current_time(), 50.0);
}

TEST(StatStructureTest, UnknownAvailReturnsEmpty) {
  const Dataset data = TinyDataset();
  StatStructure sweep(data);
  sweep.AdvanceTo(100.0);
  EXPECT_EQ(sweep.Get(999, 0).created_count, 0u);
}

TEST(StatStructureTest, IncrementalSweepMatchesStatusQueryEngine) {
  // §4.3: the incremental structure must produce exactly the same values
  // as from-scratch Status Queries at every grid point.
  SynthConfig config;
  config.num_avails = 12;
  config.mean_rccs_per_avail = 35;
  config.seed = 77;
  const Dataset data = GenerateDataset(config);

  StatusQueryEngine engine(&data, IndexBackend::kAvlTree);
  StatStructure sweep(data);

  for (double t : {0.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
    sweep.AdvanceTo(t);
    for (const Avail& avail : data.avails.rows()) {
      const auto& agg = sweep.Get(avail.id, GroupSchema::Level1GroupId(0, 0));

      StatusQuery query;
      query.avail_filter = avail.id;
      query.category = RccStatusCategory::kCreated;
      query.aggregate = AggregateFn::kCount;
      EXPECT_DOUBLE_EQ(*engine.Execute(query, t),
                       static_cast<double>(agg.created_count));
      query.aggregate = AggregateFn::kSum;
      EXPECT_NEAR(*engine.Execute(query, t), agg.created_sum_amount,
                  1e-2 + agg.created_sum_amount * 1e-6);

      query.category = RccStatusCategory::kActive;
      query.aggregate = AggregateFn::kCount;
      EXPECT_DOUBLE_EQ(*engine.Execute(query, t),
                       static_cast<double>(agg.active_count()));

      query.category = RccStatusCategory::kSettled;
      query.aggregate = AggregateFn::kCount;
      EXPECT_DOUBLE_EQ(*engine.Execute(query, t),
                       static_cast<double>(agg.settled_count));
    }
  }
}

}  // namespace
}  // namespace domd
