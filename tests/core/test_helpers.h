#ifndef DOMD_TESTS_CORE_TEST_HELPERS_H_
#define DOMD_TESTS_CORE_TEST_HELPERS_H_

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/timeline.h"
#include "data/logical_time.h"
#include "data/splits.h"
#include "synth/generator.h"

namespace domd {
namespace testing_internal {

/// A small but learnable end-to-end fixture: synthetic fleet, split, and
/// train/validation/test ModelingViews over a coarse grid (few steps keeps
/// core tests fast).
struct PipelineFixture {
  Dataset data;
  DataSplit split;
  std::unique_ptr<FeatureEngineer> engineer;
  std::vector<double> grid;
  ModelingView train;
  ModelingView validation;
  ModelingView test;
  std::vector<std::string> dynamic_names;
};

inline PipelineFixture MakePipelineFixture(std::uint64_t seed = 42,
                                           int num_avails = 60,
                                           double window_pct = 25.0) {
  PipelineFixture fixture;
  SynthConfig config;
  config.seed = seed;
  config.num_avails = num_avails;
  config.mean_rccs_per_avail = 60.0;
  fixture.data = GenerateDataset(config);

  Rng rng(seed + 1);
  fixture.split = *MakeSplit(fixture.data.avails, SplitOptions{}, &rng);
  fixture.engineer = std::make_unique<FeatureEngineer>(&fixture.data);
  fixture.grid = LogicalTimeGrid(window_pct);

  fixture.train = BuildModelingView(fixture.data, *fixture.engineer,
                                    fixture.split.train, fixture.grid);
  fixture.validation = BuildModelingView(fixture.data, *fixture.engineer,
                                         fixture.split.validation,
                                         fixture.grid);
  fixture.test = BuildModelingView(fixture.data, *fixture.engineer,
                                   fixture.split.test, fixture.grid);
  for (const FeatureDef& def : fixture.engineer->catalog().features()) {
    fixture.dynamic_names.push_back(def.name);
  }
  return fixture;
}

/// A cheap GBT configuration for tests.
inline PipelineConfig FastConfig() {
  PipelineConfig config;
  config.num_features = 20;
  config.gbt.num_rounds = 30;
  config.gbt.tree.max_depth = 3;
  config.window_width_pct = 25.0;
  return config;
}

/// Same doubles bit for bit: +0.0 and -0.0 differ, and a NaN equals itself.
inline bool BitIdentical(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Same ids, labels, static features and tensor slices, bit for bit.
inline bool ViewsBitIdentical(const ModelingView& a, const ModelingView& b) {
  if (a.avail_ids != b.avail_ids || !BitIdentical(a.labels, b.labels) ||
      a.static_x.cols() != b.static_x.cols() ||
      !BitIdentical(a.static_x.data(), b.static_x.data()) ||
      a.num_steps() != b.num_steps()) {
    return false;
  }
  for (std::size_t s = 0; s < a.num_steps(); ++s) {
    if (a.dynamic.slice(s).cols() != b.dynamic.slice(s).cols() ||
        !BitIdentical(a.dynamic.slice(s).data(), b.dynamic.slice(s).data())) {
      return false;
    }
  }
  return true;
}

}  // namespace testing_internal
}  // namespace domd

#endif  // DOMD_TESTS_CORE_TEST_HELPERS_H_
