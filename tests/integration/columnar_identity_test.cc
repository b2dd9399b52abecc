// End-to-end identity battery for the columnar training/scoring paths
// (DESIGN.md §13). The contract: threads and the breadth-first batch
// scorer are pure performance knobs — every model a pipeline trains must
// be bit-identical to the serial fit at every thread count, and every
// batched prediction bit-identical to per-row traversal. Models are
// compared by serialized text, doubles by bit pattern.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/test_helpers.h"
#include "core/timeline.h"

namespace domd {
namespace {

using testing_internal::FastConfig;
using testing_internal::MakePipelineFixture;
using testing_internal::PipelineFixture;

const int kThreadCounts[] = {1, 2, 4};

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

const PipelineFixture& Fixture() {
  static const PipelineFixture& fixture =
      *new PipelineFixture(MakePipelineFixture(/*seed=*/1234,
                                               /*num_avails=*/50,
                                               /*window_pct=*/50.0));
  return fixture;
}

std::string FitAndSerialize(const PipelineConfig& config,
                            const ModelingView& train,
                            const std::vector<std::string>& names) {
  TimelineModelSet models;
  const Status status = models.Fit(config, train, names);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::ostringstream out;
  EXPECT_TRUE(models.Save(out).ok());
  return out.str();
}

class ColumnarIdentityTest
    : public ::testing::TestWithParam<Architecture> {};

TEST_P(ColumnarIdentityTest, TrainedModelsMatchSerialFitAtEveryThreadCount) {
  const PipelineFixture& fixture = Fixture();
  PipelineConfig config = FastConfig();
  config.window_width_pct = 50.0;
  config.architecture = GetParam();

  config.parallelism.num_threads = 1;
  const std::string expected =
      FitAndSerialize(config, fixture.train, fixture.dynamic_names);

  for (int threads : kThreadCounts) {
    config.parallelism.num_threads = threads;
    EXPECT_EQ(FitAndSerialize(config, fixture.train, fixture.dynamic_names),
              expected)
        << "fit diverged from the serial fit at threads=" << threads;
  }
}

TEST_P(ColumnarIdentityTest, BatchedPredictPerStepMatchesPerRowTraversal) {
  const PipelineFixture& fixture = Fixture();
  PipelineConfig config = FastConfig();
  config.window_width_pct = 50.0;
  config.architecture = GetParam();

  TimelineModelSet models;
  const Status status =
      models.Fit(config, fixture.train, fixture.dynamic_names);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Batched scoring (one input matrix per step through PredictBatch)
  // against the reference per-row walk, on a view the models never saw.
  const std::vector<std::vector<double>> batched =
      models.PredictPerStep(fixture.test);
  ASSERT_EQ(batched.size(), models.num_steps());
  for (std::size_t step = 0; step < models.num_steps(); ++step) {
    ASSERT_EQ(batched[step].size(), fixture.test.avail_ids.size());
    for (std::size_t row = 0; row < fixture.test.avail_ids.size(); ++row) {
      const std::vector<double> input =
          models.BuildInputRow(fixture.test, row, step);
      const double expected = models.model(step).Predict(input);
      ASSERT_TRUE(BitIdentical(batched[step][row], expected))
          << "step=" << step << " row=" << row << ": " << batched[step][row]
          << " vs " << expected;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ColumnarIdentityTest,
    ::testing::Values(Architecture::kNonStacked, Architecture::kStacked),
    [](const ::testing::TestParamInfo<Architecture>& info) {
      return info.param == Architecture::kStacked ? "Stacked" : "NonStacked";
    });

}  // namespace
}  // namespace domd
