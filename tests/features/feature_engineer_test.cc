#include "features/feature_engineer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "data/logical_time.h"
#include "features/static_features.h"
#include "synth/generator.h"

namespace domd {
namespace {

Dataset SmallData(std::uint64_t seed = 3) {
  SynthConfig config;
  config.seed = seed;
  config.num_avails = 8;
  config.mean_rccs_per_avail = 30;
  return GenerateDataset(config);
}

std::vector<std::int64_t> AllIds(const Dataset& data) {
  std::vector<std::int64_t> ids;
  for (const Avail& a : data.avails.rows()) ids.push_back(a.id);
  return ids;
}

TEST(FeatureEngineerTest, TensorDimensions) {
  const Dataset data = SmallData();
  FeatureEngineer engineer(&data);
  const auto grid = LogicalTimeGrid(25.0);  // {0,25,50,75,100}
  const FeatureTensor tensor =
      engineer.ComputeIncremental(AllIds(data), grid);
  EXPECT_EQ(tensor.num_steps(), 5u);
  EXPECT_EQ(tensor.num_avails(), data.avails.size());
  EXPECT_EQ(tensor.num_features(), 1490u);
}

TEST(FeatureEngineerTest, IncrementalMatchesFromScratchStatusQueries) {
  // The core §4.3 equivalence: the incremental sweep must equal per-t*
  // Status Query evaluation, feature by feature.
  const Dataset data = SmallData(11);
  FeatureEngineer engineer(&data);
  StatusQueryEngine engine(&data, IndexBackend::kAvlTree);

  const std::vector<double> grid = {0.0, 30.0, 60.0, 100.0};
  const auto ids = AllIds(data);
  const FeatureTensor tensor = engineer.ComputeIncremental(ids, grid);

  // Spot-check a spread of features (full cross-check is O(1490 queries per
  // avail per step) — covered for a single avail below).
  const std::vector<std::string> probe_names = {
      "ALL-CREATED_COUNT",        "ALL-SETTLED_SUM_AMT",
      "G-CREATED_AVG_AMT",        "ALL-ACTIVE_COUNT",
      "ALL-CREATED_RATE",         "N-SETTLED_AVG_DUR",
      "ALL-ACTIVE_PCT_OF_CREATED", "ALL-CREATED_COUNT_WINDOW",
      "ALL1-CREATED_COUNT",       "G1-SETTLED_MAX_AMT"};

  for (const std::string& name : probe_names) {
    const int f = engineer.catalog().FindByName(name);
    ASSERT_GE(f, 0) << name;
    const FeatureDef& def =
        engineer.catalog().feature(static_cast<std::size_t>(f));
    for (std::size_t step = 0; step < grid.size(); ++step) {
      const double prev = step == 0 ? -1.0 : grid[step - 1];
      for (std::size_t row = 0; row < ids.size(); ++row) {
        const auto expected = engineer.ComputeOneFromScratch(
            engine, ids[row], def, grid[step], prev);
        ASSERT_TRUE(expected.ok());
        const double got =
            tensor.slice(step).at(row, static_cast<std::size_t>(f));
        EXPECT_NEAR(got, *expected, 1e-2 + std::abs(*expected) * 1e-5)
            << name << " avail=" << ids[row] << " t=" << grid[step];
      }
    }
  }
}

TEST(FeatureEngineerTest, FullCatalogEquivalenceForOneAvail) {
  const Dataset data = SmallData(19);
  FeatureEngineer engineer(&data);
  StatusQueryEngine engine(&data, IndexBackend::kIntervalTree);

  const std::vector<double> grid = {0.0, 50.0, 100.0};
  const std::int64_t avail_id = data.avails.rows()[0].id;
  const FeatureTensor tensor = engineer.ComputeIncremental({avail_id}, grid);

  for (std::size_t f = 0; f < engineer.catalog().size(); ++f) {
    const FeatureDef& def = engineer.catalog().feature(f);
    for (std::size_t step = 0; step < grid.size(); ++step) {
      const double prev = step == 0 ? -1.0 : grid[step - 1];
      const auto expected = engineer.ComputeOneFromScratch(
          engine, avail_id, def, grid[step], prev);
      ASSERT_TRUE(expected.ok());
      EXPECT_NEAR(tensor.slice(step).at(0, f), *expected,
                  1e-2 + std::abs(*expected) * 1e-5)
          << def.name << " @ " << grid[step];
    }
  }
}

TEST(FeatureEngineerTest, MonotoneFeaturesNeverDecrease) {
  const Dataset data = SmallData(23);
  FeatureEngineer engineer(&data);
  const auto grid = LogicalTimeGrid(10.0);
  const auto ids = AllIds(data);
  const FeatureTensor tensor = engineer.ComputeIncremental(ids, grid);

  const int count_col = engineer.catalog().FindByName("ALL-CREATED_COUNT");
  const int settled_col = engineer.catalog().FindByName("ALL-SETTLED_COUNT");
  ASSERT_GE(count_col, 0);
  ASSERT_GE(settled_col, 0);
  for (std::size_t row = 0; row < ids.size(); ++row) {
    for (std::size_t step = 1; step < grid.size(); ++step) {
      EXPECT_GE(
          tensor.slice(step).at(row, static_cast<std::size_t>(count_col)),
          tensor.slice(step - 1).at(row, static_cast<std::size_t>(count_col)));
      EXPECT_GE(tensor.slice(step).at(row,
                                      static_cast<std::size_t>(settled_col)),
                tensor.slice(step - 1).at(
                    row, static_cast<std::size_t>(settled_col)));
    }
  }
}

TEST(FeatureEngineerTest, WindowFeatureSumsToTotal) {
  // Sum of per-window created counts over the grid equals the final
  // cumulative created count.
  const Dataset data = SmallData(29);
  FeatureEngineer engineer(&data);
  const auto grid = LogicalTimeGrid(20.0);
  const auto ids = AllIds(data);
  const FeatureTensor tensor = engineer.ComputeIncremental(ids, grid);

  const int window_col =
      engineer.catalog().FindByName("ALL-CREATED_COUNT_WINDOW");
  const int total_col = engineer.catalog().FindByName("ALL-CREATED_COUNT");
  ASSERT_GE(window_col, 0);
  ASSERT_GE(total_col, 0);
  for (std::size_t row = 0; row < ids.size(); ++row) {
    double window_sum = 0.0;
    for (std::size_t step = 0; step < grid.size(); ++step) {
      window_sum +=
          tensor.slice(step).at(row, static_cast<std::size_t>(window_col));
    }
    EXPECT_DOUBLE_EQ(window_sum,
                     tensor.slice(grid.size() - 1)
                         .at(row, static_cast<std::size_t>(total_col)));
  }
}

TEST(FeatureEngineerTest, UntrackedAvailsGetAllZeroRows) {
  // Ids the dataset does not hold engineer a zero row at every step, and
  // leave the rows of the ids it does hold as they read alone.
  const Dataset data = SmallData(31);
  const FeatureEngineer engineer(&data);
  const auto grid = LogicalTimeGrid(20.0);
  const auto present = AllIds(data);
  const FeatureTensor alone = engineer.ComputeIncremental(present, grid);

  std::vector<std::int64_t> mixed = {-7, present[0], 99999};
  for (std::size_t i = 1; i < present.size(); ++i) {
    mixed.push_back(present[i]);
    if (i % 3 == 0) mixed.push_back(100000 + static_cast<std::int64_t>(i));
  }
  mixed.push_back(0);
  for (const int threads : {1, 4}) {
    Parallelism parallelism;
    parallelism.num_threads = threads;
    const FeatureTensor tensor =
        engineer.ComputeIncremental(mixed, grid, parallelism);
    ASSERT_EQ(tensor.num_avails(), mixed.size());
    std::size_t next_present = 0;
    for (std::size_t row = 0; row < mixed.size(); ++row) {
      const bool tracked = data.avails.Find(mixed[row]).ok();
      for (std::size_t step = 0; step < grid.size(); ++step) {
        const auto got = tensor.slice(step).row(row);
        if (!tracked) {
          for (std::size_t f = 0; f < got.size(); ++f) {
            ASSERT_EQ(got[f], 0.0) << "threads=" << threads << " id="
                                   << mixed[row] << " step=" << step
                                   << " feature=" << f;
          }
          continue;
        }
        const auto want = alone.slice(step).row(next_present);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
            << "threads=" << threads << " id=" << mixed[row]
            << " step=" << step;
      }
      if (tracked) ++next_present;
    }
    EXPECT_EQ(next_present, present.size());
  }
}

TEST(FeatureEngineerTest, EngineersShareOneCatalogAndStayAssignable) {
  const Dataset first = SmallData(3);
  const Dataset second = SmallData(5);
  FeatureEngineer engineer(&first);
  const FeatureEngineer other(&second);
  EXPECT_EQ(&engineer.catalog(), &FeatureCatalog::Shared());
  EXPECT_EQ(&other.catalog(), &FeatureCatalog::Shared());
  static_assert(std::is_copy_assignable_v<FeatureEngineer>);
  static_assert(std::is_move_assignable_v<FeatureEngineer>);
  engineer = other;
  const auto grid = LogicalTimeGrid(50.0);
  const FeatureTensor got = engineer.ComputeIncremental(AllIds(second), grid);
  const FeatureTensor want = other.ComputeIncremental(AllIds(second), grid);
  for (std::size_t step = 0; step < grid.size(); ++step) {
    EXPECT_EQ(got.slice(step).data(), want.slice(step).data());
  }
}

TEST(StaticFeaturesTest, RowsMatchAvailAttributes) {
  const Dataset data = SmallData();
  const auto ids = AllIds(data);
  const Matrix statics = BuildStaticFeatures(data.avails, ids);
  ASSERT_EQ(statics.rows(), ids.size());
  ASSERT_EQ(statics.cols(), 8u);
  const Avail& first = data.avails.rows()[0];
  EXPECT_DOUBLE_EQ(statics.at(0, 0), first.ship_class);
  EXPECT_DOUBLE_EQ(statics.at(0, 2), first.ship_age_years);
  EXPECT_DOUBLE_EQ(statics.at(0, 7),
                   static_cast<double>(first.planned_duration()));
}

TEST(FeatureTensorTest, SelectAvailsReordersRows) {
  const Dataset data = SmallData();
  FeatureEngineer engineer(&data);
  const auto ids = AllIds(data);
  const auto grid = LogicalTimeGrid(50.0);
  const FeatureTensor tensor = engineer.ComputeIncremental(ids, grid);

  const std::vector<std::int64_t> subset = {ids[3], ids[0]};
  const auto selected = tensor.SelectAvails(subset);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->num_avails(), 2u);
  for (std::size_t step = 0; step < grid.size(); ++step) {
    for (std::size_t f = 0; f < 20; ++f) {
      EXPECT_DOUBLE_EQ(selected->slice(step).at(0, f),
                       tensor.slice(step).at(3, f));
      EXPECT_DOUBLE_EQ(selected->slice(step).at(1, f),
                       tensor.slice(step).at(0, f));
    }
  }
}

TEST(FeatureTensorTest, SelectUnknownAvailFails) {
  const Dataset data = SmallData();
  FeatureEngineer engineer(&data);
  const FeatureTensor tensor =
      engineer.ComputeIncremental(AllIds(data), LogicalTimeGrid(50.0));
  EXPECT_FALSE(tensor.SelectAvails({99999}).ok());
}

}  // namespace
}  // namespace domd
