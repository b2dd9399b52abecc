#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/timeline.h"
#include "data/logical_time.h"
#include "eval/cross_validation.h"
#include "features/feature_engineer.h"
#include "select/selectors.h"
#include "synth/generator.h"

namespace domd {
namespace {

// The contract under test: every parallel path is bit-identical to the
// serial one, so num_threads only trades wall-clock. "Bit-identical" is
// checked literally — doubles are compared by their bit patterns and
// models by their serialized text.

const int kThreadCounts[] = {1, 2, 8};

Dataset SeededFleet() {
  SynthConfig config;
  config.seed = 42;
  config.num_avails = 73;  // the paper's fleet size
  config.mean_rccs_per_avail = 50;
  config.ongoing_fraction = 0.1;
  return GenerateDataset(config);
}

std::vector<std::int64_t> AllIds(const Dataset& data) {
  std::vector<std::int64_t> ids;
  for (const Avail& avail : data.avails.rows()) ids.push_back(avail.id);
  return ids;
}

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectTensorsBitIdentical(const FeatureTensor& a, const FeatureTensor& b,
                               int threads) {
  ASSERT_EQ(a.num_steps(), b.num_steps());
  ASSERT_EQ(a.num_avails(), b.num_avails());
  ASSERT_EQ(a.num_features(), b.num_features());
  for (std::size_t step = 0; step < a.num_steps(); ++step) {
    const Matrix& ma = a.slice(step);
    const Matrix& mb = b.slice(step);
    for (std::size_t r = 0; r < ma.rows(); ++r) {
      for (std::size_t c = 0; c < ma.cols(); ++c) {
        ASSERT_TRUE(BitIdentical(ma.at(r, c), mb.at(r, c)))
            << "threads=" << threads << " step=" << step << " row=" << r
            << " col=" << c << ": " << ma.at(r, c) << " vs " << mb.at(r, c);
      }
    }
  }
}

TEST(ParallelDeterminismTest, FeatureTensorBitIdenticalAcrossThreadCounts) {
  const Dataset data = SeededFleet();
  const std::vector<std::int64_t> ids = AllIds(data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const FeatureEngineer engineer(&data);

  const FeatureTensor serial = engineer.ComputeIncremental(ids, grid);
  for (int threads : kThreadCounts) {
    Parallelism parallelism;
    parallelism.num_threads = threads;
    const FeatureTensor tensor =
        engineer.ComputeIncremental(ids, grid, parallelism);
    ExpectTensorsBitIdentical(serial, tensor, threads);
  }
}

TEST(ParallelDeterminismTest, FeatureTensorBitIdenticalOnRowSubset) {
  // Subset engineering drives a block-restricted StatStructure per worker;
  // the rows must still match the full serial sweep exactly.
  const Dataset data = SeededFleet();
  std::vector<std::int64_t> ids = AllIds(data);
  ids.resize(ids.size() / 2);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const FeatureEngineer engineer(&data);

  const FeatureTensor serial = engineer.ComputeIncremental(ids, grid);
  for (int threads : kThreadCounts) {
    Parallelism parallelism;
    parallelism.num_threads = threads;
    ExpectTensorsBitIdentical(
        serial, engineer.ComputeIncremental(ids, grid, parallelism), threads);
  }
}

/// (architecture, model family, selector) of one timeline fit.
using TimelineFitParam =
    std::tuple<Architecture, ModelFamily, SelectionMethod>;

class TimelineFitDeterminismTest
    : public ::testing::TestWithParam<TimelineFitParam> {};

// TimelineModelSet::Fit runs its steps in parallel, each step's selection
// and fit serial inside it: the serialized set must equal the serial fit's
// at every thread count, for every architecture, family and selector.
TEST_P(TimelineFitDeterminismTest, SerializedSetIdenticalAcrossThreadCounts) {
  // A small fleet at the 25% grid (5 steps) keeps the RFE cases, which
  // refit a GBT over the whole catalog, to about a second each.
  SynthConfig fleet;
  fleet.seed = 42;
  fleet.num_avails = 30;
  fleet.mean_rccs_per_avail = 40;
  const Dataset data = GenerateDataset(fleet);
  const FeatureEngineer engineer(&data);
  const ModelingView view = BuildModelingView(data, engineer, AllIds(data),
                                              LogicalTimeGrid(25.0));
  std::vector<std::string> names;
  for (const FeatureDef& def : engineer.catalog().features()) {
    names.push_back(def.name);
  }

  PipelineConfig config;
  std::tie(config.architecture, config.model_family, config.selection) =
      GetParam();
  config.num_features = 12;
  config.gbt.num_rounds = 10;
  const auto fit = [&](int threads) {
    config.parallelism.num_threads = threads;
    TimelineModelSet models;
    const Status status = models.Fit(config, view, names);
    EXPECT_TRUE(status.ok()) << status;
    EXPECT_EQ(models.num_steps(), view.num_steps());
    std::ostringstream out;
    EXPECT_TRUE(models.Save(out).ok());
    return out.str();
  };

  const std::string serial = fit(1);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(fit(threads), serial) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchitectureFamilySelector, TimelineFitDeterminismTest,
    ::testing::Combine(::testing::Values(Architecture::kNonStacked,
                                         Architecture::kStacked),
                       ::testing::Values(ModelFamily::kGbt,
                                         ModelFamily::kElasticNet),
                       ::testing::ValuesIn(kAllSelectionMethods)),
    [](const ::testing::TestParamInfo<TimelineFitParam>& info) {
      std::string name =
          std::string(std::get<0>(info.param) == Architecture::kStacked
                          ? "Stacked"
                          : "NonStacked") +
          "_" + ModelFamilyToString(std::get<1>(info.param)) + "_" +
          SelectionMethodToString(std::get<2>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ParallelDeterminismTest, CrossValidationMetricsIdenticalAcrossThreads) {
  const Dataset data = SeededFleet();
  PipelineConfig config;
  config.num_features = 15;
  config.gbt.num_rounds = 15;
  config.window_width_pct = 25.0;
  CvOptions options;
  options.num_folds = 3;

  const auto serial = CrossValidate(data, config, options);
  ASSERT_TRUE(serial.ok()) << serial.status();

  for (int threads : kThreadCounts) {
    config.parallelism.num_threads = threads;
    const auto result = CrossValidate(data, config, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->folds.size(), serial->folds.size());
    for (std::size_t f = 0; f < serial->folds.size(); ++f) {
      EXPECT_EQ(result->folds[f].held_out_ids, serial->folds[f].held_out_ids)
          << "threads=" << threads << " fold=" << f;
      EXPECT_TRUE(BitIdentical(result->folds[f].metrics.mae100,
                               serial->folds[f].metrics.mae100))
          << "threads=" << threads << " fold=" << f;
      EXPECT_TRUE(BitIdentical(result->folds[f].metrics.rmse,
                               serial->folds[f].metrics.rmse))
          << "threads=" << threads << " fold=" << f;
      EXPECT_TRUE(BitIdentical(result->folds[f].metrics.r2,
                               serial->folds[f].metrics.r2))
          << "threads=" << threads << " fold=" << f;
    }
    EXPECT_TRUE(BitIdentical(result->mean.mae100, serial->mean.mae100));
    EXPECT_TRUE(BitIdentical(result->mae_stddev, serial->mae_stddev));
  }
}

}  // namespace
}  // namespace domd
