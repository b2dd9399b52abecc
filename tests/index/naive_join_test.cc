#include "index/naive_join_index.h"

#include <gtest/gtest.h>

namespace domd {
namespace {

TEST(NaiveJoinIndexTest, WideRowsDominateMemory) {
  NaiveJoinIndex index;
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 1000; ++i) {
    entries.push_back({static_cast<double>(i % 100),
                       static_cast<double>(i % 100 + 10), i + 1});
  }
  index.Build(entries);
  // The joined row carries both tables' columns: well above the 24 bytes
  // of the raw entry.
  EXPECT_GE(index.MemoryUsageBytes(), 1000u * 100u);
}

TEST(NaiveJoinIndexTest, InsertKeepsSortedOrderInvariant) {
  NaiveJoinIndex index;
  index.Build({{5.0, 10.0, 1}, {1.0, 3.0, 2}});
  index.Insert({3.0, 4.0, 3});
  std::vector<std::int64_t> ids;
  index.Collect(RccStatusCategory::kCreated, 100.0, &ids);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{2, 3, 1}));  // start order
}

TEST(NaiveJoinIndexTest, EraseByIdAndInterval) {
  NaiveJoinIndex index;
  index.Build({{1.0, 2.0, 1}, {1.0, 2.0, 2}});
  EXPECT_TRUE(index.Erase({1.0, 2.0, 1}).ok());
  EXPECT_EQ(index.size(), 1u);
  EXPECT_FALSE(index.Erase({1.0, 2.0, 1}).ok());
  std::vector<std::int64_t> ids;
  index.Collect(RccStatusCategory::kCreated, 5.0, &ids);
  EXPECT_EQ(ids, std::vector<std::int64_t>{2});
}

TEST(NaiveJoinIndexTest, BackendTag) {
  NaiveJoinIndex index;
  EXPECT_EQ(index.backend(), IndexBackend::kNaiveJoin);
}

TEST(NaiveJoinIndexTest, FactoryProducesCorrectTypes) {
  for (IndexBackend backend :
       {IndexBackend::kIntervalTree, IndexBackend::kAvlTree,
        IndexBackend::kNaiveJoin}) {
    auto index = MakeLogicalTimeIndex(backend).value();
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->backend(), backend);
  }
}

TEST(NaiveJoinIndexTest, FactoryRejectsUnknownBackend) {
  // The factory's one error path: no paper backend has a precondition.
  const auto unknown = static_cast<IndexBackend>(3);
  auto index = MakeLogicalTimeIndex(unknown);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  EXPECT_STREQ(IndexBackendToString(unknown), "?");
}

TEST(NaiveJoinIndexTest, BackendNames) {
  EXPECT_STREQ(IndexBackendToString(IndexBackend::kIntervalTree),
               "IntervalTree");
  EXPECT_STREQ(IndexBackendToString(IndexBackend::kAvlTree), "AVLTree");
  EXPECT_STREQ(IndexBackendToString(IndexBackend::kNaiveJoin), "NaiveJoin");
}

}  // namespace
}  // namespace domd
