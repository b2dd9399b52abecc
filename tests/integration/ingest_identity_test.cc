#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cache/view_cache.h"
#include "core/domd_estimator.h"
#include "ingest/data_store.h"
#include "synth/generator.h"
#include "core/test_helpers.h"

namespace domd {
namespace {

/// Bit-identity gate (DESIGN.md §14): training from data that arrived as a
/// mutation stream must be byte-for-byte the same as training from the
/// equivalent batch dataset. The synth generator assigns avail and RCC ids
/// sequentially in row order, so splitting the fleet at an avail boundary
/// and streaming the suffix in row order reproduces the batch row order (a
/// cut appends new ids in order of first appearance in the stream) — which
/// is what makes the fingerprints, the serialized models and the
/// predictions exactly comparable.
class IngestIdentityTest : public ::testing::Test {
 protected:
  static constexpr int kNumAvails = 20;
  static constexpr std::int64_t kBaseAvails = 13;  // stream the last 7.

  void SetUp() override {
    SynthConfig config;
    config.num_avails = kNumAvails;
    config.mean_rccs_per_avail = 30.0;
    config.seed = 7;
    full_ = GenerateDataset(config);

    // Base = the avail-id prefix and its RCCs, copied row by row from the
    // in-memory dataset.
    for (const Avail& avail : full_.avails.rows()) {
      if (avail.id <= kBaseAvails) ASSERT_TRUE(base_.avails.Add(avail).ok());
    }
    for (const Rcc& rcc : full_.rccs.rows()) {
      if (rcc.avail_id <= kBaseAvails) ASSERT_TRUE(base_.rccs.Add(rcc).ok());
    }
    ASSERT_LT(base_.avails.size(), full_.avails.size());
    ASSERT_LT(base_.rccs.size(), full_.rccs.size());

    // The stream: suffix avails first (so their RCCs validate), then the
    // suffix RCCs, both in row (= id) order.
    for (const Avail& avail : full_.avails.rows()) {
      if (avail.id > kBaseAvails) {
        mutations_.push_back(MakeAvailUpsert(avail));
      }
    }
    for (const Rcc& rcc : full_.rccs.rows()) {
      if (rcc.avail_id > kBaseAvails) {
        mutations_.push_back(MakeRccUpsert(rcc));
      }
    }

    log_path_ = (std::filesystem::temp_directory_path() /
                 ("domd_ingest_identity_" + std::to_string(::getpid()) +
                  ".log"))
                    .string();
    std::filesystem::remove(log_path_);
  }

  void TearDown() override {
    std::filesystem::remove(log_path_);
    for (const std::string& path : cleanup_) std::filesystem::remove(path);
  }

  std::string TempFile(const std::string& name) {
    std::string path = (std::filesystem::temp_directory_path() /
                        ("domd_ingest_identity_" + name + "_" +
                         std::to_string(::getpid())))
                           .string();
    cleanup_.push_back(path);
    return path;
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::vector<std::int64_t> TrainIds() const {
    std::vector<std::int64_t> ids;
    for (const Avail& avail : full_.avails.rows()) {
      if (avail.delay().has_value()) ids.push_back(avail.id);
    }
    return ids;
  }

  Dataset full_;
  Dataset base_;
  std::vector<IngestMutation> mutations_;
  std::string log_path_;
  std::vector<std::string> cleanup_;
};

TEST_F(IngestIdentityTest, StreamedSuffixReproducesBatchEpoch) {
  auto batch = DataStore::Open(full_);
  ASSERT_TRUE(batch.ok());
  const std::uint64_t batch_epoch = (*batch)->Snapshot()->epoch();

  DataStoreOptions options;
  options.log_path = log_path_;
  auto streamed = DataStore::Open(base_, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE((*streamed)->AppendBatch(mutations_).ok());

  // Identical content => identical epoch, both before compaction (delta
  // overlay) and after (merged base).
  const auto dirty = (*streamed)->Snapshot();
  EXPECT_EQ(dirty->epoch(), batch_epoch);
  EXPECT_EQ(dirty->delta_depth(), mutations_.size());

  auto merged = (*streamed)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const auto clean = (*streamed)->Snapshot();
  EXPECT_EQ(clean->epoch(), batch_epoch);
  EXPECT_EQ(clean->data().avails.size(), full_.avails.size());
  EXPECT_EQ(clean->data().rccs.size(), full_.rccs.size());

  // Crash-replay identity: a second store over the same base replays the
  // log and lands on the same epoch — the codec never rounds.
  auto replayed = DataStore::Open(base_, options);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ((*replayed)->stats().replayed, mutations_.size());
  EXPECT_EQ((*replayed)->Snapshot()->epoch(), batch_epoch);
}

TEST_F(IngestIdentityTest, ModelsAndPredictionsAreByteIdentical) {
  auto batch = DataStore::Open(full_);
  ASSERT_TRUE(batch.ok());

  DataStoreOptions options;
  options.log_path = log_path_;
  auto streamed = DataStore::Open(base_, options);
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE((*streamed)->AppendBatch(mutations_).ok());
  ASSERT_TRUE((*streamed)->Merge().ok());

  const std::vector<std::int64_t> train_ids = TrainIds();
  ASSERT_GE(train_ids.size(), 10u);

  for (const int threads : {1, 2, 4}) {
    PipelineConfig config = testing_internal::FastConfig();
    config.parallelism.num_threads = threads;

    auto from_batch =
        DomdEstimator::Train((*batch)->Snapshot(), config, train_ids);
    ASSERT_TRUE(from_batch.ok()) << from_batch.status().ToString();
    auto from_stream =
        DomdEstimator::Train((*streamed)->Snapshot(), config, train_ids);
    ASSERT_TRUE(from_stream.ok()) << from_stream.status().ToString();

    const std::string batch_models =
        TempFile("batch_t" + std::to_string(threads));
    const std::string stream_models =
        TempFile("stream_t" + std::to_string(threads));
    ASSERT_TRUE(from_batch->SaveModels(batch_models).ok());
    ASSERT_TRUE(from_stream->SaveModels(stream_models).ok());
    EXPECT_EQ(ReadBytes(batch_models), ReadBytes(stream_models))
        << "serialized models diverge at threads=" << threads;

    for (const std::int64_t avail_id :
         {std::int64_t{2}, kBaseAvails, std::int64_t{kNumAvails}}) {
      for (const double t_star : {0.0, 40.0, 85.0}) {
        auto a = from_batch->QueryAtLogicalTime(avail_id, t_star);
        auto b = from_stream->QueryAtLogicalTime(avail_id, t_star);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        // Bitwise double equality, not tolerance.
        EXPECT_EQ(a->fused_estimate_days, b->fused_estimate_days)
            << "avail " << avail_id << " t*=" << t_star
            << " threads=" << threads;
        ASSERT_EQ(a->steps.size(), b->steps.size());
        for (std::size_t i = 0; i < a->steps.size(); ++i) {
          EXPECT_EQ(a->steps[i].estimated_delay_days,
                    b->steps[i].estimated_delay_days);
        }
      }
    }
  }
}

TEST_F(IngestIdentityTest, ContentIdenticalSnapshotsShareOneCachedView) {
  auto batch = DataStore::Open(full_);
  ASSERT_TRUE(batch.ok());

  DataStoreOptions options;
  options.log_path = log_path_;
  auto streamed = DataStore::Open(base_, options);
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE((*streamed)->AppendBatch(mutations_).ok());
  ASSERT_TRUE((*streamed)->Merge().ok());

  // The process-global cache may already hold this fleet's view (earlier
  // tests in this binary train on the same content), so give both stores a
  // fresh identical epoch first by appending the same row to each.
  Avail unique = full_.avails.rows().back();
  unique.id = kNumAvails + 1;
  unique.ship_id += 1000;
  ASSERT_TRUE((*batch)->Append(MakeAvailUpsert(unique)).ok());
  ASSERT_TRUE((*streamed)->Append(MakeAvailUpsert(unique)).ok());
  ASSERT_EQ((*batch)->Snapshot()->epoch(), (*streamed)->Snapshot()->epoch());

  const std::vector<std::int64_t> train_ids = TrainIds();
  const PipelineConfig config = testing_internal::FastConfig();

  const ViewCacheStats before = ViewCache::Default().Stats();
  auto first = DomdEstimator::Train((*batch)->Snapshot(), config, train_ids);
  ASSERT_TRUE(first.ok());
  const ViewCacheStats after_first = ViewCache::Default().Stats();
  EXPECT_GT(after_first.misses, before.misses);  // built once...

  auto second =
      DomdEstimator::Train((*streamed)->Snapshot(), config, train_ids);
  ASSERT_TRUE(second.ok());
  const ViewCacheStats after_second = ViewCache::Default().Stats();
  // ...and the streamed store's epoch-identical snapshot reuses it: same
  // fingerprint => same cache key => no second build.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(first->shared_view().get(), second->shared_view().get());

  // An append moves the epoch, so the next train cannot reuse the view.
  Avail extra = full_.avails.rows().back();
  extra.id = kNumAvails + 2;
  ASSERT_TRUE((*streamed)->Append(MakeAvailUpsert(extra)).ok());
  auto third =
      DomdEstimator::Train((*streamed)->Snapshot(), config, train_ids);
  ASSERT_TRUE(third.ok());
  const ViewCacheStats after_third = ViewCache::Default().Stats();
  EXPECT_GT(after_third.misses, after_second.misses);
  EXPECT_NE(third->shared_view().get(), second->shared_view().get());
}

}  // namespace
}  // namespace domd
