// Tests for the ModelBundle serving artifact: write/load round-trip,
// schema-compatibility gating, and the bit-identity contract between
// reference-fleet scoring, detached batch scoring, and the underlying
// estimator.

#include "serve/model_bundle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "query/status_query.h"
#include "serve/serve_test_fixture.h"
#include "serve/wire.h"

namespace domd {
namespace {

using testing_internal::GetServeFixture;
using testing_internal::MakeDetachedRequest;

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ModelBundleTest, WriteRejectsBadVersionTags) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_badtag";
  EXPECT_EQ(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                               dir, "")
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                               dir, "v 1")
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelBundleTest, LoadFromMissingDirectoryFails) {
  auto bundle = ModelBundle::Load("/nonexistent/bundle");
  EXPECT_EQ(bundle.status().code(), StatusCode::kIoError);
}

TEST(ModelBundleTest, RoundTripPreservesVersionSchemaAndFleet) {
  const auto& fixture = GetServeFixture();
  EXPECT_EQ(fixture.v1->version(), "v1");
  EXPECT_EQ(fixture.v2->version(), "v2");
  EXPECT_EQ(fixture.v1->schema_hash(), FeatureCatalogVersion());
  // Pinned: every bundle ever written carries this schema hash.
  EXPECT_EQ(FeatureCatalogVersion(), 10179255777321209353ull);
  EXPECT_EQ(fixture.v1->data().avails.size(),
            fixture.pipeline.data.avails.size());
  EXPECT_EQ(fixture.v1->data().rccs.size(),
            fixture.pipeline.data.rccs.size());
  EXPECT_EQ(fixture.v1->grid(), fixture.estimator_v1->grid());
}

TEST(ModelBundleTest, SchemaHashMismatchRefusedAtLoad) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_badschema";
  ASSERT_TRUE(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                                 dir, "v1")
                  .ok());
  {
    std::ofstream manifest(dir + "/MANIFEST");
    manifest << "domd_bundle v1\nversion v1\nschema_hash 12345\n"
             << "avails " << fixture.pipeline.data.avails.size() << "\n"
             << "rccs " << fixture.pipeline.data.rccs.size() << "\n";
  }
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelBundleTest, BadManifestMagicRejected) {
  const std::string dir = ::testing::TempDir() + "/domd_bundle_badmagic";
  std::filesystem::create_directories(dir);
  {
    std::ofstream manifest(dir + "/MANIFEST");
    manifest << "not_a_bundle v9\n";
  }
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelBundleTest, ManifestCardinalityMismatchRefused) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_badcounts";
  ASSERT_TRUE(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                                 dir, "v1")
                  .ok());
  {
    std::ofstream manifest(dir + "/MANIFEST");
    manifest << "domd_bundle v1\nversion v1\nschema_hash "
             << FeatureCatalogVersion() << "\navails 9999\nrccs 1\n";
  }
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelBundleTest, ManifestRecordsAChecksumPerPayloadFile) {
  const auto& fixture = GetServeFixture();
  std::ifstream manifest(fixture.dir_v1 + "/MANIFEST");
  ASSERT_TRUE(manifest.good());
  std::string text((std::istreambuf_iterator<char>(manifest)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("domd_bundle v2"), std::string::npos);
  EXPECT_NE(text.find("checksum avails.csv "), std::string::npos);
  EXPECT_NE(text.find("checksum rccs.csv "), std::string::npos);
  EXPECT_NE(text.find("checksum models.txt "), std::string::npos);
}

TEST(ModelBundleTest, FlippedPayloadByteIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_flip";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  const std::string target = dir + "/models.txt";
  std::string bytes;
  {
    std::ifstream in(target, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 10u);
  bytes[10] = static_cast<char>(bytes[10] ^ 0x01);  // a single flipped bit.
  {
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
}

TEST(ModelBundleTest, TruncatedPayloadIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_trunc";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  std::filesystem::resize_file(dir + "/avails.csv", 64);
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
}

TEST(ModelBundleTest, MissingManifestedFileIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_missing";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  std::filesystem::remove(dir + "/models.txt");
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
}

TEST(ModelBundleTest, V2ManifestMissingAChecksumLineIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_nosum";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  {
    // Rewrite the manifest keeping the v2 tag but dropping every checksum:
    // a v2 bundle without its integrity records is itself torn.
    std::ofstream manifest(dir + "/MANIFEST", std::ios::trunc);
    manifest << "domd_bundle v2\nversion v1\nschema_hash "
             << FeatureCatalogVersion() << "\navails "
             << fixture.pipeline.data.avails.size() << "\nrccs "
             << fixture.pipeline.data.rccs.size() << "\n";
  }
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
}

TEST(ModelBundleTest, CopyRefusesAV2ManifestMissingAChecksum) {
  const auto& fixture = GetServeFixture();
  const std::string src = ::testing::TempDir() + "/domd_bundle_copy_nosum";
  const std::string dest = src + "_dest";
  for (const std::string& dir : {src, dest, dest + ".tmp"}) {
    std::filesystem::remove_all(dir);
  }
  std::filesystem::copy(fixture.dir_v1, src,
                        std::filesystem::copy_options::recursive);
  {
    // Keep every manifest record but the models.txt checksum.
    std::ifstream in(src + "/MANIFEST");
    std::string kept, line;
    while (std::getline(in, line)) {
      if (line.rfind("checksum models.txt", 0) != 0) kept += line + "\n";
    }
    in.close();
    std::ofstream(src + "/MANIFEST", std::ios::trunc) << kept;
  }
  // The copy reads the manifest by Load's rules: nothing is staged.
  EXPECT_EQ(ModelBundle::Load(src).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(CopyBundleDurable(src, dest).code(), StatusCode::kDataLoss);
  EXPECT_FALSE(std::filesystem::exists(dest));
  EXPECT_FALSE(std::filesystem::exists(dest + ".tmp"));
}

TEST(ModelBundleTest, LegacyV1ManifestStillLoadsWithoutChecksums) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_legacy";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  {
    std::ofstream manifest(dir + "/MANIFEST", std::ios::trunc);
    manifest << "domd_bundle v1\nversion v1\nschema_hash "
             << FeatureCatalogVersion() << "\navails "
             << fixture.pipeline.data.avails.size() << "\nrccs "
             << fixture.pipeline.data.rccs.size() << "\n";
  }
  auto bundle = ModelBundle::Load(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ((*bundle)->version(), "v1");
}

TEST(ModelBundleTest, RewritingABundleReplacesItAtomically) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_republish";
  ASSERT_TRUE(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                                 dir, "first")
                  .ok());
  ASSERT_TRUE(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                                 dir, "second")
                  .ok());
  auto bundle = ModelBundle::Load(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ((*bundle)->version(), "second");
  // Neither the staging dir nor the displaced old bundle linger.
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + ".old"));
}

/// The reference answer the estimator gives: QueryAtLogicalTime predicts
/// and attributes every step up to t* by itself.
ServePrediction PredictionFromQuery(const DomdQueryResult& result,
                                    const std::string& version) {
  ServePrediction prediction;
  prediction.avail_id = result.avail_id;
  prediction.t_star = result.query_t_star;
  prediction.estimate_days = result.fused_estimate_days;
  prediction.num_steps = result.steps.size();
  prediction.band_low = result.steps.front().estimated_delay_days;
  prediction.band_high = prediction.band_low;
  for (const DomdStepEstimate& step : result.steps) {
    prediction.band_low =
        std::min(prediction.band_low, step.estimated_delay_days);
    prediction.band_high =
        std::max(prediction.band_high, step.estimated_delay_days);
  }
  prediction.top_features = result.steps.back().top_features;
  prediction.bundle_version = version;
  return prediction;
}

/// Empty when `scored` equals `expected` bit for bit, else what differs.
std::string ReferenceMismatch(const ServePrediction& scored,
                              const ServePrediction& expected) {
  if (!BitIdentical(scored.estimate_days, expected.estimate_days)) {
    return "estimate_days";
  }
  if (!BitIdentical(scored.band_low, expected.band_low) ||
      !BitIdentical(scored.band_high, expected.band_high)) {
    return "band";
  }
  if (scored.num_steps != expected.num_steps) return "num_steps";
  if (scored.top_features.size() != expected.top_features.size()) {
    return "top_features count";
  }
  for (std::size_t i = 0; i < scored.top_features.size(); ++i) {
    if (scored.top_features[i].feature_name !=
            expected.top_features[i].feature_name ||
        !BitIdentical(scored.top_features[i].contribution,
                      expected.top_features[i].contribution)) {
      return "top_features[" + std::to_string(i) + "]";
    }
  }
  if (PredictionToJson(scored, 1.5).Serialize() !=
      PredictionToJson(expected, 1.5).Serialize()) {
    return "wire bytes";
  }
  return "";
}

// ScoreReferenceAvail reads a prefix of the step table built at Load and
// attributes the last step once; the bundle's own estimator predicts and
// attributes every step per query. Both must agree bit for bit on every
// reference avail, at every grid t* and off it, for every top_k, across
// architectures, model families and fusion methods. The reference is the
// loaded bundle's own estimator.
TEST(ModelBundleTest, ReferenceScoreMatchesEstimatorQuery) {
  const auto& fixture = GetServeFixture();
  std::vector<std::shared_ptr<const ModelBundle>> bundles = {fixture.v1};
  const std::string pid = std::to_string(::getpid());
  for (const Architecture architecture :
       {Architecture::kNonStacked, Architecture::kStacked}) {
    for (const ModelFamily family :
         {ModelFamily::kGbt, ModelFamily::kElasticNet}) {
      for (const FusionMethod fusion :
           {FusionMethod::kAverage, FusionMethod::kMedian}) {
        PipelineConfig config = testing_internal::FastConfig();
        config.window_width_pct = 10.0;
        config.architecture = architecture;
        config.model_family = family;
        config.fusion = fusion;
        auto estimator = DomdEstimator::Train(
            &fixture.pipeline.data, config, fixture.pipeline.split.train);
        ASSERT_TRUE(estimator.ok()) << estimator.status();
        const std::string dir = ::testing::TempDir() +
                                "/domd_bundle_identity" +
                                std::to_string(bundles.size()) + "." + pid;
        ASSERT_TRUE(ModelBundle::Write(*estimator, fixture.pipeline.data, dir,
                                       "identity")
                        .ok());
        auto bundle = ModelBundle::Load(dir);
        ASSERT_TRUE(bundle.ok()) << bundle.status();
        bundles.push_back(std::move(*bundle));
        std::filesystem::remove_all(dir);
      }
    }
  }

  std::size_t cases = 0;
  std::size_t outside_band = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (const auto& bundle : bundles) {
    std::vector<double> t_stars = bundle->grid();
    t_stars.insert(t_stars.end(), {-5.0, 0.0, 4.99, 55.0, 250.0});
    for (const Avail& avail : bundle->data().avails.rows()) {
      for (const double t_star : t_stars) {
        for (const std::size_t top_k : {0, 1, 5, 1000}) {
          const auto expected =
              bundle->estimator().QueryAtLogicalTime(avail.id, t_star, top_k);
          const auto scored =
              bundle->ScoreReferenceAvail(avail.id, t_star, top_k);
          ASSERT_TRUE(expected.ok()) << expected.status();
          ASSERT_TRUE(scored.ok()) << scored.status();
          ++cases;
          // Fusion weights the steps it fuses: the band holds the estimate.
          outside_band += scored->estimate_days < scored->band_low ||
                          scored->estimate_days > scored->band_high;
          const std::string mismatch = ReferenceMismatch(
              *scored, PredictionFromQuery(*expected, bundle->version()));
          if (mismatch.empty()) continue;
          if (mismatches++ == 0) {
            first_mismatch = bundle->config().ToString() + " avail " +
                             std::to_string(avail.id) + " t* " +
                             std::to_string(t_star) + " top_k " +
                             std::to_string(top_k) + ": " + mismatch;
          }
        }
      }
    }
  }
  // v1's 50% grid has 3 steps and each 10% grid 11, plus 5 off-grid t*.
  EXPECT_EQ(cases, fixture.pipeline.data.avails.size() * 4u *
                       ((3u + 5u) + 8u * (11u + 5u)));
  EXPECT_EQ(outside_band, 0u);
  EXPECT_EQ(mismatches, 0u) << first_mismatch;
}

TEST(ModelBundleTest, ScoreReferenceUnknownAvailFails) {
  const auto& fixture = GetServeFixture();
  const auto scored = fixture.v1->ScoreReferenceAvail(999999, 100.0);
  ASSERT_FALSE(scored.ok());
  EXPECT_EQ(scored.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scored.status().ToString(),
            fixture.v1->estimator().QueryAtLogicalTime(999999, 100.0)
                .status()
                .ToString());
}

TEST(ModelBundleTest, DetachedScoreBatchMatchesReferenceBitIdentically) {
  const auto& fixture = GetServeFixture();
  std::vector<ScoreRequest> requests;
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < 3 && i < fixture.pipeline.split.test.size();
       ++i) {
    ids.push_back(fixture.pipeline.split.test[i]);
    requests.push_back(MakeDetachedRequest(fixture.pipeline.data, ids.back(),
                                           /*t_star=*/100.0));
  }
  ASSERT_FALSE(requests.empty());

  const auto results = fixture.v1->ScoreBatch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    const auto reference = fixture.v1->ScoreReferenceAvail(ids[i], 100.0);
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(BitIdentical(results[i]->estimate_days,
                             reference->estimate_days));
    EXPECT_TRUE(BitIdentical(results[i]->band_low, reference->band_low));
    EXPECT_TRUE(BitIdentical(results[i]->band_high, reference->band_high));
    EXPECT_EQ(results[i]->num_steps, reference->num_steps);
    EXPECT_EQ(results[i]->bundle_version, "v1");
    // The response echoes the caller-local id, not the remapped one.
    EXPECT_EQ(results[i]->avail_id, requests[i].avail.id);
    ASSERT_EQ(results[i]->top_features.size(),
              reference->top_features.size());
    for (std::size_t k = 0; k < reference->top_features.size(); ++k) {
      EXPECT_EQ(results[i]->top_features[k].feature_name,
                reference->top_features[k].feature_name);
      EXPECT_TRUE(BitIdentical(results[i]->top_features[k].contribution,
                               reference->top_features[k].contribution));
    }
  }
}

TEST(ModelBundleTest, ScoreBatchAnswersEverySlotEvenWithBadRequests) {
  const auto& fixture = GetServeFixture();
  const std::int64_t good_id = fixture.pipeline.split.test.front();
  std::vector<ScoreRequest> requests;
  requests.push_back(MakeDetachedRequest(fixture.pipeline.data, good_id));
  requests.emplace_back();  // default avail: invalid (no dates).
  requests.push_back(MakeDetachedRequest(fixture.pipeline.data, good_id));

  const auto results = fixture.v1->ScoreBatch(requests);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[2].ok()) << results[2].status();
  // The bad middle slot must not shift or perturb its neighbors.
  EXPECT_TRUE(
      BitIdentical(results[0]->estimate_days, results[2]->estimate_days));
  const auto solo = fixture.v1->ScoreBatch({requests[0]});
  ASSERT_TRUE(solo[0].ok());
  EXPECT_TRUE(
      BitIdentical(results[0]->estimate_days, solo[0]->estimate_days));
}

TEST(ModelBundleTest, ScoreBatchParallelismIsBitIdentical) {
  const auto& fixture = GetServeFixture();
  std::vector<ScoreRequest> requests;
  for (std::size_t i = 0; i < 4 && i < fixture.pipeline.split.test.size();
       ++i) {
    requests.push_back(MakeDetachedRequest(fixture.pipeline.data,
                                           fixture.pipeline.split.test[i]));
  }
  Parallelism serial;
  serial.num_threads = 1;
  Parallelism parallel;
  parallel.num_threads = 4;
  const auto a = fixture.v1->ScoreBatch(requests, serial);
  const auto b = fixture.v1->ScoreBatch(requests, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_TRUE(BitIdentical(a[i]->estimate_days, b[i]->estimate_days));
    EXPECT_TRUE(BitIdentical(a[i]->band_low, b[i]->band_low));
    EXPECT_TRUE(BitIdentical(a[i]->band_high, b[i]->band_high));
  }
}

TEST(ModelBundleTest, DifferentStacksProduceDifferentEstimates) {
  // The v1/v2 fixture bundles must disagree on at least one test avail —
  // the hot-swap torn-model checks are vacuous otherwise.
  const auto& fixture = GetServeFixture();
  bool any_different = false;
  for (std::int64_t id : fixture.pipeline.split.test) {
    const auto a = fixture.v1->ScoreReferenceAvail(id, 100.0);
    const auto b = fixture.v2->ScoreReferenceAvail(id, 100.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    if (!BitIdentical(a->estimate_days, b->estimate_days)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(ModelBundleTest, FrozenQueryEngineAnswersStatusQueries) {
  const auto& fixture = GetServeFixture();
  StatusQuery query;
  query.category = RccStatusCategory::kCreated;
  query.aggregate = AggregateFn::kCount;
  const auto from_bundle = fixture.v1->query_engine().Execute(query, 100.0);
  ASSERT_TRUE(from_bundle.ok()) << from_bundle.status();

  const StatusQueryEngine direct(&fixture.pipeline.data,
                                 IndexBackend::kAvlTree);
  const auto expected = direct.Execute(query, 100.0);
  ASSERT_TRUE(expected.ok());
  EXPECT_DOUBLE_EQ(*from_bundle, *expected);
  EXPECT_GT(*from_bundle, 0.0);
}

TEST(ModelBundleTest, QueryEngineIsBuiltOnceOnFirstConcurrentUse) {
  // A fresh load: no earlier test has touched this bundle's engine, so the
  // four racing calls below are its first.
  const auto& fixture = GetServeFixture();
  auto bundle = ModelBundle::Load(fixture.dir_v1);
  ASSERT_TRUE(bundle.ok()) << bundle.status();

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<const StatusQueryEngine*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = &(*bundle)->query_engine();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(&seen[0]->data(), &(*bundle)->data());

  const StatusQueryEngine direct(&(*bundle)->data(), IndexBackend::kAvlTree);
  for (const RccStatusCategory category :
       {RccStatusCategory::kActive, RccStatusCategory::kSettled,
        RccStatusCategory::kCreated, RccStatusCategory::kNotCreated}) {
    for (const AggregateFn aggregate : {AggregateFn::kCount, AggregateFn::kSum,
                                        AggregateFn::kAvg, AggregateFn::kMax}) {
      for (const double t_star : {0.0, 35.0, 100.0, 150.0}) {
        for (const bool grouped : {false, true}) {
          StatusQuery query;
          query.category = category;
          query.aggregate = aggregate;
          if (grouped) {
            query.type_filter = RccType::kGrowth;
            query.swlin_level = 1;
            query.swlin_prefix = 4;
          }
          const auto got = seen[0]->Execute(query, t_star);
          const auto want = direct.Execute(query, t_star);
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_TRUE(want.ok()) << want.status();
          EXPECT_TRUE(BitIdentical(*got, *want))
              << RccStatusCategoryToString(category) << " "
              << AggregateFnToString(aggregate) << " @ t*=" << t_star
              << (grouped ? " grouped" : "");
        }
      }
    }
  }
}

}  // namespace
}  // namespace domd
