#include "features/feature_catalog.h"

#include <gtest/gtest.h>

#include <set>

namespace domd {
namespace {

TEST(FeatureCatalogTest, ExactlyPaperFeatureCount) {
  // §5.2.1: "We have 1490 RCC-dependent features."
  FeatureCatalog catalog;
  EXPECT_EQ(catalog.size(), 1490u);
}

TEST(FeatureCatalogTest, SharedCatalogIsOneFullCatalog) {
  const FeatureCatalog& shared = FeatureCatalog::Shared();
  EXPECT_EQ(&shared, &FeatureCatalog::Shared());
  const FeatureCatalog fresh;
  ASSERT_EQ(shared.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(shared.feature(i).name, fresh.feature(i).name);
    EXPECT_EQ(shared.feature(i).group_id, fresh.feature(i).group_id);
    EXPECT_EQ(shared.feature(i).kind, fresh.feature(i).kind);
  }
}

TEST(FeatureCatalogTest, NamesAreUnique) {
  FeatureCatalog catalog;
  std::set<std::string> names;
  for (const FeatureDef& def : catalog.features()) {
    EXPECT_TRUE(names.insert(def.name).second) << "duplicate " << def.name;
  }
}

TEST(FeatureCatalogTest, GroupIdsValid) {
  FeatureCatalog catalog;
  for (const FeatureDef& def : catalog.features()) {
    EXPECT_GE(def.group_id, 0);
    EXPECT_LT(def.group_id, GroupSchema::kNumGroups);
  }
}

TEST(FeatureCatalogTest, PaperStyleNamesPresent) {
  FeatureCatalog catalog;
  // The paper's example is "G1-AVG_SETTLED_AMT"; our naming convention for
  // the same feature is "G1-SETTLED_AVG_AMT".
  EXPECT_GE(catalog.FindByName("G1-SETTLED_AVG_AMT"), 0);
  EXPECT_GE(catalog.FindByName("ALL-CREATED_COUNT"), 0);
  EXPECT_GE(catalog.FindByName("NG9-ACTIVE_COUNT"), 0);
  EXPECT_GE(catalog.FindByName("ALL43-CREATED_SUM_AMT"), 0);
  EXPECT_GE(catalog.FindByName("G4-CREATED_COUNT_WINDOW"), 0);
  EXPECT_EQ(catalog.FindByName("NOT_A_FEATURE"), -1);
}

TEST(FeatureCatalogTest, StaticFeatureNamesMatchPaperCount) {
  // §5.2.1: 8 static features.
  EXPECT_EQ(StaticFeatureNames().size(), 8u);
}

TEST(FeatureValueTest, ComputesFromAggregates) {
  GroupAggregates agg;
  agg.created_count = 4;
  agg.created_sum_amount = 1000.0;
  agg.created_max_amount = 400.0;
  agg.settled_count = 3;
  agg.settled_sum_amount = 600.0;
  agg.settled_max_amount = 300.0;
  agg.settled_sum_duration = 90.0;
  agg.settled_max_duration = 50.0;

  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kCreatedCount, agg, 50, 0), 4.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kCreatedAvgAmt, agg, 50, 0),
                   250.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kCreatedMaxAmt, agg, 50, 0),
                   400.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kCreatedRate, agg, 50, 0),
                   4.0 / 55.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kSettledAvgAmt, agg, 50, 0),
                   200.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kSettledAvgDur, agg, 50, 0),
                   30.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kSettledMaxDur, agg, 50, 0),
                   50.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kActiveCount, agg, 50, 0), 1.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kActiveSumAmt, agg, 50, 0),
                   400.0);
  EXPECT_DOUBLE_EQ(FeatureValue(FeatureKind::kActivePctOfCreated, agg, 50, 0),
                   0.25);
  EXPECT_DOUBLE_EQ(
      FeatureValue(FeatureKind::kCreatedCountWindow, agg, 50, 1.0), 3.0);
}

TEST(FeatureValueTest, EmptyAggregatesAreZeroSafe) {
  GroupAggregates agg;
  for (FeatureKind kind :
       {FeatureKind::kCreatedAvgAmt, FeatureKind::kSettledAvgAmt,
        FeatureKind::kSettledAvgDur, FeatureKind::kActiveAvgAmt,
        FeatureKind::kActivePctOfCreated}) {
    EXPECT_DOUBLE_EQ(FeatureValue(kind, agg, 0.0, 0.0), 0.0);
  }
}

TEST(FeatureCatalogTest, CompositionMatchesDesign) {
  // 640 level-1 + 810 level-2 + 40 window features.
  FeatureCatalog catalog;
  std::size_t level1 = 0, level2 = 0, window = 0;
  for (const FeatureDef& def : catalog.features()) {
    if (def.kind == FeatureKind::kCreatedCountWindow) {
      ++window;
    } else if (def.group_id >= GroupSchema::kNumLevel1Groups) {
      ++level2;
    } else {
      ++level1;
    }
  }
  EXPECT_EQ(level1, 640u);
  EXPECT_EQ(level2, 810u);
  EXPECT_EQ(window, 40u);
}

}  // namespace
}  // namespace domd
