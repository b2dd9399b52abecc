// Integration contract of the modeling-view cache: it is a pure identity
// optimization. Cross-validation, estimator training/query, and serving
// bundle loads must produce bit-identical results with the cache enabled
// and disabled, and content-identical bundle loads must share one live
// view snapshot (the hot-swap fast path).

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "cache/view_cache.h"
#include "core/domd_estimator.h"
#include "core/test_helpers.h"
#include "eval/cross_validation.h"
#include "serve/model_bundle.h"
#include "synth/generator.h"

namespace domd {
namespace {

using testing_internal::ViewsBitIdentical;

Dataset SmallData() {
  SynthConfig config;
  config.seed = 29;
  config.num_avails = 50;
  config.mean_rccs_per_avail = 40;
  config.ongoing_fraction = 0.1;
  return GenerateDataset(config);
}

PipelineConfig CheapConfig(std::size_t cache_bytes) {
  PipelineConfig config;
  config.num_features = 20;
  config.gbt.num_rounds = 30;
  config.window_width_pct = 25.0;
  config.cache_bytes = cache_bytes;
  return config;
}

std::vector<std::int64_t> LabeledIds(const Dataset& data) {
  std::vector<std::int64_t> ids;
  for (const Avail& avail : data.avails.rows()) {
    if (avail.delay().has_value()) ids.push_back(avail.id);
  }
  return ids;
}

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(CacheIdentityTest, CrossValidationBitIdenticalCacheOnAndOff) {
  const Dataset data = SmallData();
  CvOptions options;
  options.num_folds = 3;

  const auto cached = CrossValidate(data, CheapConfig(256ull << 20), options);
  const auto uncached = CrossValidate(data, CheapConfig(0), options);
  ASSERT_TRUE(cached.ok()) << cached.status();
  ASSERT_TRUE(uncached.ok()) << uncached.status();

  ASSERT_EQ(cached->folds.size(), uncached->folds.size());
  for (std::size_t f = 0; f < cached->folds.size(); ++f) {
    EXPECT_EQ(cached->folds[f].held_out_ids, uncached->folds[f].held_out_ids);
    EXPECT_TRUE(BitIdentical(cached->folds[f].metrics.mae100,
                             uncached->folds[f].metrics.mae100));
    EXPECT_TRUE(BitIdentical(cached->folds[f].metrics.rmse,
                             uncached->folds[f].metrics.rmse));
  }
  EXPECT_TRUE(BitIdentical(cached->mean.mae100, uncached->mean.mae100));
  EXPECT_TRUE(BitIdentical(cached->mae_stddev, uncached->mae_stddev));
}

TEST(CacheIdentityTest, EstimatorPredictionsBitIdenticalCacheOnAndOff) {
  const Dataset data = SmallData();
  const std::vector<std::int64_t> train_ids = LabeledIds(data);

  const auto cached =
      DomdEstimator::Train(&data, CheapConfig(256ull << 20), train_ids);
  const auto uncached = DomdEstimator::Train(&data, CheapConfig(0), train_ids);
  ASSERT_TRUE(cached.ok()) << cached.status();
  ASSERT_TRUE(uncached.ok()) << uncached.status();

  for (const Avail& avail : data.avails.rows()) {
    for (double t : {40.0, 100.0}) {
      const auto a = cached->QueryAtLogicalTime(avail.id, t);
      const auto b = uncached->QueryAtLogicalTime(avail.id, t);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_EQ(a->steps.size(), b->steps.size());
      EXPECT_TRUE(
          BitIdentical(a->fused_estimate_days, b->fused_estimate_days));
      for (std::size_t s = 0; s < a->steps.size(); ++s) {
        EXPECT_TRUE(BitIdentical(a->steps[s].estimated_delay_days,
                                 b->steps[s].estimated_delay_days));
      }
    }
  }
}

TEST(CacheIdentityTest, ContentIdenticalBundleLoadsShareOneLiveView) {
  const Dataset data = SmallData();
  const std::vector<std::int64_t> train_ids = LabeledIds(data);
  auto estimator =
      DomdEstimator::Train(&data, CheapConfig(256ull << 20), train_ids);
  ASSERT_TRUE(estimator.ok()) << estimator.status();

  const std::string dir = ::testing::TempDir() + "/domd_cache_identity_bundle";
  ASSERT_TRUE(ModelBundle::Write(*estimator, data, dir, "v1").ok());

  // Two loads of the same artifact read two Dataset copies from disk; the
  // content fingerprint keys them onto one cache entry, so the second load
  // (and a serving hot-swap to it) reuses the first's live snapshot.
  const auto first = ModelBundle::Load(dir);
  const auto second = ModelBundle::Load(dir);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ((*first)->estimator().shared_view().get(),
            (*second)->estimator().shared_view().get());

  // And scoring through either bundle matches the in-process estimator.
  for (std::int64_t id : train_ids) {
    const auto expected = estimator->QueryAtLogicalTime(id, 100.0);
    const auto scored = (*second)->ScoreReferenceAvail(id, 100.0);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(scored.ok()) << scored.status();
    EXPECT_TRUE(BitIdentical(scored->estimate_days,
                             expected->fused_estimate_days));
  }
}

TEST(CacheIdentityTest, DisabledCacheBundleLoadsBuildIndependently) {
  const Dataset data = SmallData();
  const std::vector<std::int64_t> train_ids = LabeledIds(data);
  auto estimator = DomdEstimator::Train(&data, CheapConfig(0), train_ids);
  ASSERT_TRUE(estimator.ok()) << estimator.status();

  const std::string dir = ::testing::TempDir() + "/domd_cache_identity_off";
  ASSERT_TRUE(ModelBundle::Write(*estimator, data, dir, "v1").ok());

  const auto first = ModelBundle::Load(dir, {}, /*cache_bytes=*/0);
  const auto second = ModelBundle::Load(dir, {}, /*cache_bytes=*/0);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE((*first)->estimator().shared_view().get(),
            (*second)->estimator().shared_view().get());

  // Distinct snapshots, identical bits.
  for (std::int64_t id : train_ids) {
    const auto a = (*first)->ScoreReferenceAvail(id, 100.0);
    const auto b = (*second)->ScoreReferenceAvail(id, 100.0);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_TRUE(BitIdentical(a->estimate_days, b->estimate_days));
  }
}

TEST(CacheIdentityTest, AmendedDatasetRebuiltAtTheSameAddressGetsItsOwnView) {
  // A dataset rebuilt where a dead one lived keeps its address, its table
  // sizes and its boundary ids. Only its content tells it apart, so only
  // its content may key the view it trains on.
  std::optional<Dataset> slot;
  slot.emplace(SmallData());
  const std::vector<std::int64_t> train_ids = LabeledIds(*slot);
  const PipelineConfig config = CheapConfig(256ull << 20);
  ASSERT_TRUE(DomdEstimator::Train(&*slot, config, train_ids).ok());

  // Every RCC of one avail settled the day it was created.
  Dataset amended = *slot;
  const std::int64_t avail_id = slot->rccs.rows().front().avail_id;
  for (Rcc rcc : slot->rccs.rows()) {
    if (rcc.avail_id != avail_id) continue;
    rcc.settled_date = rcc.creation_date;
    ASSERT_TRUE(amended.rccs.Upsert(rcc).ok());
  }
  ASSERT_NE(ComputeDatasetFingerprint(amended),
            ComputeDatasetFingerprint(*slot));
  slot.reset();
  slot.emplace(std::move(amended));

  const auto estimator = DomdEstimator::Train(&*slot, config, train_ids);
  ASSERT_TRUE(estimator.ok()) << estimator.status();
  std::vector<std::int64_t> all_ids;
  for (const Avail& avail : slot->avails.rows()) all_ids.push_back(avail.id);
  const ModelingView fresh = BuildModelingView(
      *slot, FeatureEngineer(&*slot), all_ids, estimator->grid());
  EXPECT_TRUE(ViewsBitIdentical(*estimator->shared_view(), fresh));
}

}  // namespace
}  // namespace domd
