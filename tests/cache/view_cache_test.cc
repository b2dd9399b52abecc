// Tests for the modeling-view cache: dataset fingerprint sensitivity,
// pointer-sharing on hits, byte-budgeted LRU eviction, the zero-budget
// bypass, and concurrent GetOrBuild (run under TSan in CI).

#include "cache/view_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "common/rng.h"
#include "core/test_helpers.h"
#include "data/logical_time.h"
#include "synth/generator.h"

namespace domd {
namespace {

using testing_internal::ViewsBitIdentical;

Dataset SmallData(std::uint64_t seed = 17) {
  SynthConfig config;
  config.seed = seed;
  config.num_avails = 24;
  config.mean_rccs_per_avail = 30;
  config.ongoing_fraction = 0.1;
  return GenerateDataset(config);
}

std::vector<std::int64_t> AllIds(const Dataset& data) {
  std::vector<std::int64_t> ids;
  for (const Avail& avail : data.avails.rows()) ids.push_back(avail.id);
  return ids;
}

TEST(FingerprintTest, IdenticalContentFingerprintsIdentically) {
  const Dataset a = SmallData();
  const Dataset b = SmallData();  // same seed, distinct addresses
  EXPECT_EQ(ComputeDatasetFingerprint(a), ComputeDatasetFingerprint(b));
}

TEST(FingerprintTest, OneMutatedRccRowChangesFingerprint) {
  const Dataset base = SmallData();
  Dataset mutated = SmallData();
  const std::uint64_t before = ComputeDatasetFingerprint(base);
  Rcc& row = const_cast<Rcc&>(mutated.rccs.rows().front());
  row.settled_amount += 1.0;
  EXPECT_NE(ComputeDatasetFingerprint(mutated), before);
  row.settled_amount -= 1.0;
  EXPECT_EQ(ComputeDatasetFingerprint(mutated), before);
}

/// The byte-at-a-time FNV-1a step FingerprintMix must reproduce exactly.
std::uint64_t ReferenceMix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (byte * 8)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

TEST(FingerprintTest, MixMatchesByteAtATimeReference) {
  std::vector<std::uint64_t> words = {0,
                                      1,
                                      0xFF,
                                      0x100,
                                      (std::uint64_t{1} << 56) - 1,
                                      std::uint64_t{1} << 56,
                                      std::uint64_t{1} << 63,
                                      ~std::uint64_t{0}};
  for (const std::int64_t negative :
       {std::int64_t{-1}, std::int64_t{-2}, std::int64_t{-256},
        std::int64_t{-45000}, std::numeric_limits<std::int64_t>::min()}) {
    words.push_back(static_cast<std::uint64_t>(negative));
  }
  Rng rng(2718);
  for (int i = 0; i < 1'000'000; ++i) {
    // Shift by a random amount so every byte length is well represented.
    words.push_back(rng.Next() >> (rng.Next() % 64));
  }
  std::uint64_t hash = kFingerprintSeed;
  std::uint64_t reference = kFingerprintSeed;
  for (const std::uint64_t word : words) {
    ASSERT_EQ(FingerprintMix(hash, word), ReferenceMix(hash, word)) << word;
    hash = FingerprintMix(hash, word);
    reference = ReferenceMix(reference, word);
  }
  EXPECT_EQ(hash, reference);
}

/// Two avails (one still ongoing) and three RCCs (one still open) with
/// literal fields.
Dataset GoldenDataset() {
  Dataset data;
  Avail closed;
  closed.id = 7;
  closed.ship_id = 301;
  closed.status = AvailStatus::kClosed;
  closed.planned_start = *Date::Parse("2019-01-07");
  closed.planned_end = *Date::Parse("2019-06-28");
  closed.actual_start = *Date::Parse("2019-01-09");
  closed.actual_end = *Date::Parse("2019-08-15");
  closed.ship_class = 2;
  closed.rmc_id = 3;
  closed.ship_age_years = 17.25;
  closed.avail_type = 1;
  closed.homeport = 4;
  closed.prior_avail_count = 5;
  closed.contract_value_musd = 88.5;
  closed.crew_size = 310;
  Avail ongoing = closed;
  ongoing.id = 12;
  ongoing.ship_id = 418;
  ongoing.status = AvailStatus::kOngoing;
  ongoing.planned_start = *Date::Parse("2020-03-02");
  ongoing.planned_end = *Date::Parse("2020-11-20");
  ongoing.actual_start = *Date::Parse("2020-03-02");
  ongoing.actual_end.reset();
  ongoing.ship_age_years = 6.5;
  ongoing.contract_value_musd = 120.0;
  EXPECT_TRUE(data.avails.Add(closed).ok());
  EXPECT_TRUE(data.avails.Add(ongoing).ok());

  Rcc growth;
  growth.id = 1001;
  growth.avail_id = 7;
  growth.type = RccType::kGrowth;
  growth.swlin = *Swlin::Parse("434-11-001");
  growth.creation_date = *Date::Parse("2019-02-11");
  growth.settled_date = *Date::Parse("2019-03-29");
  growth.settled_amount = 1357.25;
  Rcc new_work = growth;
  new_work.id = 1002;
  new_work.type = RccType::kNewWork;
  new_work.swlin = *Swlin::Parse("256-02-117");
  new_work.creation_date = *Date::Parse("2019-04-01");
  new_work.settled_date = *Date::Parse("2019-07-19");
  new_work.settled_amount = 88000.5;
  Rcc open = growth;
  open.id = 2001;
  open.avail_id = 12;
  open.type = RccType::kNewGrowth;
  open.swlin = *Swlin::Parse("999-99-999");
  open.creation_date = *Date::Parse("2020-05-14");
  open.settled_date.reset();
  open.settled_amount = 0.0;
  EXPECT_TRUE(data.rccs.Add(growth).ok());
  EXPECT_TRUE(data.rccs.Add(new_work).ok());
  EXPECT_TRUE(data.rccs.Add(open).ok());
  return data;
}

TEST(FingerprintTest, GoldenDatasetFingerprint) {
  // Integer-only arithmetic over fixed fields: the value holds for every
  // compiler and sanitizer build. Epochs, ViewCache keys and retrain
  // version names are all this value, so it must never drift.
  const Dataset data = GoldenDataset();
  EXPECT_EQ(ComputeDatasetFingerprint(data), 0xbb42f41d1b26ad70ull);
}

TEST(FingerprintTest, IdAndGridDigestsAreOrderSensitive) {
  EXPECT_NE(DigestIds({1, 2, 3}), DigestIds({3, 2, 1}));
  EXPECT_NE(DigestIds({1, 2}), DigestIds({1, 2, 3}));
  EXPECT_NE(DigestGrid({0.0, 50.0}), DigestGrid({50.0, 0.0}));
  EXPECT_EQ(DigestGrid({0.0, 50.0, 100.0}), DigestGrid({0.0, 50.0, 100.0}));
}

TEST(ViewCacheTest, HitReturnsTheSameSnapshot) {
  const Dataset data = SmallData();
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(64ull << 20, /*num_shards=*/1);
  const auto first = BuildModelingViewShared(
      data, epoch, engineer, ids, grid, {}, cache.max_bytes(), &cache);
  const auto second = BuildModelingViewShared(
      data, epoch, engineer, ids, grid, {}, cache.max_bytes(), &cache);
  EXPECT_EQ(first.get(), second.get());  // one physical snapshot
  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ViewCacheTest, CachedViewBitIdenticalToDirectBuild) {
  const Dataset data = SmallData();
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(64ull << 20, 1);
  const auto cached = BuildModelingViewShared(
      data, epoch, engineer, ids, grid, {}, cache.max_bytes(), &cache);
  const ModelingView direct = BuildModelingView(data, engineer, ids, grid);
  EXPECT_TRUE(ViewsBitIdentical(*cached, direct));
}

TEST(ViewCacheTest, ZeroBudgetBypassesStorageButStaysCorrect) {
  const Dataset data = SmallData();
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(0, 1);
  const auto first =
      BuildModelingViewShared(data, epoch, engineer, ids, grid, {}, 0, &cache);
  const auto second =
      BuildModelingViewShared(data, epoch, engineer, ids, grid, {}, 0, &cache);
  EXPECT_NE(first.get(), second.get());  // nothing retained
  EXPECT_TRUE(ViewsBitIdentical(*first, *second));
  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ViewCacheTest, TinyBudgetEvictsLeastRecentlyUsed) {
  const Dataset data = SmallData();
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  // Budget sized to hold roughly one view: inserting a second distinct key
  // must push out the least recently used entry (single shard => global
  // LRU order).
  ViewCache probe(1ull << 30, 1);
  const auto sized = BuildModelingViewShared(
      data, epoch, engineer, ids, grid, {}, probe.max_bytes(), &probe);
  const std::size_t one_view = ApproxModelingViewBytes(*sized);

  ViewCache cache(one_view + one_view / 2, 1);
  const std::vector<std::int64_t> half(ids.begin(),
                                       ids.begin() + ids.size() / 2);
  const auto full_key = MakeViewCacheKey(epoch, ids, grid);
  const auto half_key = MakeViewCacheKey(epoch, half, grid);
  ASSERT_FALSE(full_key == half_key);

  BuildModelingViewShared(data, epoch, engineer, ids, grid, {},
                          cache.max_bytes(), &cache);
  BuildModelingViewShared(data, epoch, engineer, half, grid, {},
                          cache.max_bytes(), &cache);

  EXPECT_GE(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(full_key), nullptr);   // LRU tail was evicted
  EXPECT_NE(cache.Lookup(half_key), nullptr);   // newest entry survives
}

TEST(ViewCacheTest, OversizeViewIsReturnedUncachedWithoutFlushingTheShard) {
  const Dataset data = SmallData();
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);
  const std::vector<std::int64_t> half(ids.begin(),
                                       ids.begin() + ids.size() / 2);

  ViewCache probe(1ull << 30, 1);
  const std::size_t full_bytes = ApproxModelingViewBytes(
      *BuildModelingViewShared(data, epoch, engineer, ids, grid, {},
                               probe.max_bytes(), &probe));
  const std::size_t half_bytes = ApproxModelingViewBytes(
      *BuildModelingViewShared(data, epoch, engineer, half, grid, {},
                               probe.max_bytes(), &probe));
  ASSERT_LT(half_bytes, full_bytes);

  // One shard whose whole budget holds the half view but not the full one.
  ViewCache cache((half_bytes + full_bytes) / 2, 1);
  BuildModelingViewShared(data, epoch, engineer, half, grid, {},
                          cache.max_bytes(), &cache);
  const auto full = BuildModelingViewShared(
      data, epoch, engineer, ids, grid, {}, cache.max_bytes(), &cache);
  EXPECT_EQ(full->avail_ids, ids);  // the caller still gets its view

  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, half_bytes);
  EXPECT_NE(cache.Lookup(MakeViewCacheKey(epoch, half, grid)), nullptr);
  EXPECT_EQ(cache.Lookup(MakeViewCacheKey(epoch, ids, grid)), nullptr);
}

// The benchmark-scale fleet (200 avails, 10% grid) must be retained by the
// process-default cache: a view that outgrows its shard is rebuilt by every
// HPT trial, CV run and bundle load that asks for it.
TEST(ViewCacheTest, DefaultBudgetRetainsABenchScaleFleetView) {
  SynthConfig config;
  config.num_avails = 200;
  config.mean_rccs_per_avail = 240;
  config.ongoing_fraction = 0.05;
  config.seed = 42;
  const Dataset data = GenerateDataset(config);
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(10.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(kDefaultViewCacheBytes, 8);
  const auto first = BuildModelingViewShared(
      data, epoch, engineer, ids, grid, {}, kDefaultViewCacheBytes, &cache);
  const auto second = BuildModelingViewShared(
      data, epoch, engineer, ids, grid, {}, kDefaultViewCacheBytes, &cache);
  EXPECT_EQ(first.get(), second.get());
  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(ApproxModelingViewBytes(*first), kDefaultViewCacheBytes / 8);
}

TEST(ViewCacheTest, ShrinkingBudgetEvictsImmediately) {
  const Dataset data = SmallData();
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(1ull << 30, 1);
  const auto view = BuildModelingViewShared(
      data, epoch, engineer, ids, grid, {}, cache.max_bytes(), &cache);
  ASSERT_EQ(cache.Stats().entries, 1u);

  cache.SetMaxBytes(1);  // below any real view's footprint
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  // The caller's snapshot outlives eviction.
  EXPECT_EQ(view->avail_ids.size(), ids.size());
}

TEST(ViewCacheTest, ClearAndResetCountersIsolateRuns) {
  const Dataset data = SmallData();
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(64ull << 20, 1);
  BuildModelingViewShared(data, epoch, engineer, ids, grid, {},
                          cache.max_bytes(), &cache);
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
  cache.ResetCounters();
  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.evictions, 0u);
}

// Exercised under TSan in CI: concurrent misses on one key must converge
// on a single stored snapshot without data races, and concurrent distinct
// keys must not corrupt shard state.
TEST(ViewCacheConcurrencyTest, ConcurrentGetOrBuildConverges) {
  const Dataset data = SmallData();
  const std::uint64_t epoch = ComputeDatasetFingerprint(data);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);
  const std::vector<std::int64_t> half(ids.begin(),
                                       ids.begin() + ids.size() / 2);

  ViewCache cache(256ull << 20, 4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ModelingView>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::vector<std::int64_t>& pick = (t % 2 == 0) ? ids : half;
        for (int round = 0; round < 4; ++round) {
          seen[static_cast<std::size_t>(t)] = BuildModelingViewShared(
              data, epoch, engineer, pick, grid, {}, cache.max_bytes(), &cache);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  // After the dust settles every thread on the same key holds the stored
  // snapshot for that key.
  const auto full_entry = cache.Lookup(MakeViewCacheKey(epoch, ids, grid));
  const auto half_entry = cache.Lookup(MakeViewCacheKey(epoch, half, grid));
  ASSERT_NE(full_entry, nullptr);
  ASSERT_NE(half_entry, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)],
              (t % 2 == 0) ? full_entry : half_entry);
  }
  EXPECT_EQ(cache.Stats().entries, 2u);
}

}  // namespace
}  // namespace domd
