// Round-trip tests for model persistence: trees, GBT ensembles,
// Elastic-Net models, pipeline configs, timeline model sets, and the full
// estimator save/load path.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/domd_estimator.h"
#include "core/test_helpers.h"

// A sanitizer runtime brings its own operator new (clang links it into the
// binary), so under one the allocation count below comes from the
// runtime's allocation hook instead of replacement operators.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DOMD_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DOMD_TEST_SANITIZED 1
#endif
#endif
#ifndef DOMD_TEST_SANITIZED
#define DOMD_TEST_SANITIZED 0
#endif

#if DOMD_TEST_SANITIZED
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void* ptr, std::size_t size),
    void (*free_hook)(const volatile void* ptr));
#endif

namespace domd {
namespace {

// Bytes this thread asks the allocator for while t_counting is set.
thread_local bool t_counting = false;
thread_local std::size_t t_allocated = 0;

void CountAllocation(std::size_t size) {
  if (t_counting) t_allocated += size;
}

#if DOMD_TEST_SANITIZED
void CountHook(const volatile void*, std::size_t size) {
  CountAllocation(size);
}
void IgnoreFree(const volatile void*) {}  // the runtime wants both hooks.
[[maybe_unused]] const int kCountHookInstalled =
    __sanitizer_install_malloc_and_free_hooks(CountHook, IgnoreFree);
#endif

using testing_internal::FastConfig;
using testing_internal::MakePipelineFixture;

TEST(SerializationTest, GbtRoundTripPredictsIdentically) {
  Rng rng(1);
  Matrix x(120, 4);
  std::vector<double> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    for (std::size_t c = 0; c < 4; ++c) x.at(i, c) = rng.Uniform(-1, 1);
    y[i] = 20 * x.at(i, 0) - 5 * x.at(i, 2) * x.at(i, 3) + rng.Gaussian();
  }
  GbtParams params;
  params.num_rounds = 40;
  params.subsample = 0.9;
  GbtRegressor model(params, Loss::PseudoHuber(18.0));
  ASSERT_TRUE(model.Fit(x, y).ok());

  std::stringstream buffer;
  model.Save(buffer);
  auto loaded = GbtRegressor::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_trees(), model.num_trees());
  EXPECT_EQ(loaded->num_features(), model.num_features());
  EXPECT_EQ(loaded->loss().kind(), LossKind::kPseudoHuber);
  EXPECT_DOUBLE_EQ(loaded->loss().delta(), 18.0);
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_DOUBLE_EQ(loaded->Predict(x.row(r)), model.Predict(x.row(r)));
    // Contributions must round-trip exactly too (node weights preserved).
    EXPECT_EQ(loaded->Contributions(x.row(r)), model.Contributions(x.row(r)));
  }
}

TEST(SerializationTest, ElasticNetRoundTrip) {
  Rng rng(2);
  Matrix x(80, 3);
  std::vector<double> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x.at(i, c) = rng.Uniform(-2, 2);
    y[i] = 3 * x.at(i, 0) - x.at(i, 1) + 0.2 * rng.Gaussian();
  }
  ElasticNetRegression model(ElasticNetParams{0.01, 0.5, 500, 1e-7});
  ASSERT_TRUE(model.Fit(x, y).ok());

  std::stringstream buffer;
  model.Save(buffer);
  auto loaded = ElasticNetRegression::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->coefficients(), model.coefficients());
  EXPECT_DOUBLE_EQ(loaded->intercept(), model.intercept());
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_DOUBLE_EQ(loaded->Predict(x.row(r)), model.Predict(x.row(r)));
  }
}

TEST(SerializationTest, PipelineConfigRoundTrip) {
  PipelineConfig config;
  config.selection = SelectionMethod::kSpearman;
  config.num_features = 37;
  config.model_family = ModelFamily::kElasticNet;
  config.architecture = Architecture::kStacked;
  config.loss = LossKind::kAbsolute;
  config.huber_delta = 7.25;
  config.hpt_trials = 12;
  config.fusion = FusionMethod::kMin;
  config.window_width_pct = 12.5;
  config.seed = 9001;
  config.gbt.num_rounds = 77;
  config.gbt.learning_rate = 0.055;
  config.gbt.tree.max_depth = 5;
  config.gbt.tree.split_method = SplitMethod::kHistogram;
  config.elastic_net.alpha = 0.125;

  std::stringstream buffer;
  config.Save(buffer);
  auto loaded = PipelineConfig::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->selection, config.selection);
  EXPECT_EQ(loaded->num_features, config.num_features);
  EXPECT_EQ(loaded->model_family, config.model_family);
  EXPECT_EQ(loaded->architecture, config.architecture);
  EXPECT_EQ(loaded->loss, config.loss);
  EXPECT_DOUBLE_EQ(loaded->huber_delta, config.huber_delta);
  EXPECT_EQ(loaded->hpt_trials, config.hpt_trials);
  EXPECT_EQ(loaded->fusion, config.fusion);
  EXPECT_DOUBLE_EQ(loaded->window_width_pct, config.window_width_pct);
  EXPECT_EQ(loaded->seed, config.seed);
  EXPECT_EQ(loaded->gbt.num_rounds, config.gbt.num_rounds);
  EXPECT_DOUBLE_EQ(loaded->gbt.learning_rate, config.gbt.learning_rate);
  EXPECT_EQ(loaded->gbt.tree.split_method, SplitMethod::kHistogram);
  EXPECT_DOUBLE_EQ(loaded->elastic_net.alpha, config.elastic_net.alpha);
}

// A one-tree GBT model over two features whose tree is `tree` (in
// Forest::Save's text form): what a hand-edited model file read by
// `domd evaluate/query/report --model` looks like.
constexpr char kOneTreeModelHeader[] =
    "gbt v1\nloss 0 1\nparams 1 0.5 3 1 1 0 0 32 1 1 7\nmodel 0 2 1\n";

StatusOr<GbtRegressor> LoadOneTreeModel(const std::string& tree) {
  std::stringstream buffer(kOneTreeModelHeader + tree);
  return GbtRegressor::Load(buffer);
}

constexpr char kWellFormedTree[] =
    "tree 3\n1 1 2 0.5 0 1\n-1 -1 -1 0 -1 0\n-1 -1 -1 0 1 0\n";

TEST(SerializationTest, CorruptedInputsRejected) {
  {
    std::stringstream buffer("not a model");
    EXPECT_FALSE(GbtRegressor::Load(buffer).ok());
  }
  {
    std::stringstream buffer("gbt v1\nloss 0 0\nparams 1 0.1");
    EXPECT_FALSE(GbtRegressor::Load(buffer).ok());
  }
  EXPECT_FALSE(LoadOneTreeModel("tree 3\n0 1 2 0.5").ok());
  {
    std::stringstream buffer("elastic_net v2\n");
    EXPECT_FALSE(ElasticNetRegression::Load(buffer).ok());
  }
  {
    std::stringstream buffer;
    EXPECT_FALSE(PipelineConfig::Load(buffer).ok());
  }
  {
    std::stringstream buffer("timeline_model_set v1\nbroken");
    EXPECT_FALSE(TimelineModelSet::Load(buffer, 8, 8).ok());
  }
}

/// `text` with token `token` of line `line` (0-based; line 0 is the
/// header) replaced by `value`: a hand-edited model or config file.
std::string EditToken(const std::string& text, std::size_t line,
                      std::size_t token, const std::string& value) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  std::vector<std::string> tokens = StrSplit(lines.at(line), ' ');
  tokens.at(token) = value;
  lines[line] = StrJoin(tokens, " ");
  return StrJoin(lines, "\n");
}

std::string SavedDefaultConfig() {
  std::stringstream saved;
  PipelineConfig().Save(saved);
  return saved.str();
}

TEST(SerializationTest, PipelineConfigRejectsOutOfRangeEnums) {
  struct Edit {
    std::size_t line;
    std::size_t token;
    std::string value;
    std::string field;
  };
  for (const Edit& edit : std::vector<Edit>{{1, 0, "99", "selection"},
                                            {1, 0, "-1", "selection"},
                                            {1, 2, "2", "model family"},
                                            {1, 3, "2", "architecture"},
                                            {1, 4, "7", "loss"},
                                            {1, 7, "9", "fusion"},
                                            {2, 6, "5", "split method"}}) {
    std::stringstream buffer(
        EditToken(SavedDefaultConfig(), edit.line, edit.token, edit.value));
    const auto loaded = PipelineConfig::Load(buffer);
    ASSERT_FALSE(loaded.ok()) << edit.field << " " << edit.value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(edit.field), std::string::npos)
        << loaded.status();
  }
  // The last enumerator of each field still loads.
  std::string text = SavedDefaultConfig();
  for (const auto& [line, token, value] :
       std::vector<std::tuple<std::size_t, std::size_t, std::string>>{
           {1, 0, "5"}, {1, 2, "1"}, {1, 3, "1"}, {1, 7, "4"}, {2, 6, "1"}}) {
    text = EditToken(text, line, token, value);
  }
  std::stringstream buffer(text);
  const auto loaded = PipelineConfig::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->selection, SelectionMethod::kMutualInformationApprox);
  EXPECT_EQ(loaded->fusion, FusionMethod::kWeightedRecent);
  EXPECT_EQ(loaded->gbt.tree.split_method, SplitMethod::kHistogram);
}

TEST(SerializationTest, PipelineConfigLoadsTheQuantileLoss) {
  // Loss 3 is the quantile loss; huber_delta holds its level.
  const std::string quantile = EditToken(SavedDefaultConfig(), 1, 4, "3");
  std::stringstream buffer(EditToken(quantile, 1, 5, "0.9"));
  const auto loaded = PipelineConfig::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Loss loss = loaded->MakeLoss();
  EXPECT_EQ(loss.kind(), LossKind::kQuantile);
  EXPECT_DOUBLE_EQ(loss.tau(), 0.9);
  // A level outside (0, 1) -- the default 18 among them -- is rejected.
  for (const std::string level : {"18", "1", "0", "-0.5"}) {
    std::stringstream bad(EditToken(quantile, 1, 5, level));
    const auto rejected = PipelineConfig::Load(bad);
    ASSERT_FALSE(rejected.ok()) << level;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find("quantile level"),
              std::string::npos)
        << rejected.status();
  }
}

TEST(SerializationTest, GbtRejectsOutOfRangeEnums) {
  const std::string model =
      "gbt v1\nloss 0 1\nparams 1 0.5 3 1 1 0 0 32 1 1 7\nmodel 0 2 0\n";
  {
    std::stringstream buffer(model);
    ASSERT_TRUE(GbtRegressor::Load(buffer).ok());
  }
  for (const auto& [line, token, value, field] :
       std::vector<std::tuple<std::size_t, std::size_t, std::string,
                              std::string>>{{1, 1, "4", "loss"},
                                            {1, 1, "-1", "loss"},
                                            {2, 7, "5", "split method"},
                                            {2, 7, "2", "split method"}}) {
    std::stringstream buffer(EditToken(model, line, token, value));
    const auto loaded = GbtRegressor::Load(buffer);
    ASSERT_FALSE(loaded.ok()) << field << " " << value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(field), std::string::npos)
        << loaded.status();
  }
}

TEST(SerializationTest, TreeChildIndexOutOfRangeRejected) {
  EXPECT_FALSE(LoadOneTreeModel("tree 1\n0 5 6 0.5 1.0 0.0\n").ok());
}

TEST(SerializationTest, ModelLoadAcceptsAWellFormedTree) {
  auto model = LoadOneTreeModel(kWellFormedTree);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Predict(std::vector<double>{9.0, 0.0}), -0.5);
  EXPECT_EQ(model->Predict(std::vector<double>{9.0, 1.0}), 0.5);
}

TEST(SerializationTest, ModelLoadRejectsNegativeChild) {
  EXPECT_FALSE(LoadOneTreeModel("tree 3\n0 -1 2 0.5 0 1\n"
                                "-1 -1 -1 0 -1 0\n-1 -1 -1 0 1 0\n")
                   .ok());
}

TEST(SerializationTest, ModelLoadRejectsSelfLoop) {
  EXPECT_FALSE(LoadOneTreeModel("tree 3\n0 0 2 0.5 0 1\n"
                                "-1 -1 -1 0 -1 0\n-1 -1 -1 0 1 0\n")
                   .ok());
}

TEST(SerializationTest, ModelLoadRejectsBackEdgeCycle) {
  // Node 1's right child points back at the root.
  EXPECT_FALSE(LoadOneTreeModel("tree 4\n0 1 2 0.5 0 1\n0 3 0 0.25 0 1\n"
                                "-1 -1 -1 0 1 0\n-1 -1 -1 0 -1 0\n")
                   .ok());
}

TEST(SerializationTest, ModelLoadRejectsSharedChild) {
  // Nodes 1 and 2 both claim leaves 3 and 4: a DAG, not a tree.
  EXPECT_FALSE(LoadOneTreeModel("tree 5\n0 1 2 0.5 0 1\n1 3 4 0.5 0 1\n"
                                "1 3 4 0.5 0 1\n-1 -1 -1 0 -1 0\n"
                                "-1 -1 -1 0 1 0\n")
                   .ok());
}

TEST(SerializationTest, ModelLoadRejectsSplitFeatureOutOfRange) {
  // The model reads two features; a split on feature 5 would index past
  // every input row.
  EXPECT_FALSE(LoadOneTreeModel("tree 3\n5 1 2 0.5 0 1\n"
                                "-1 -1 -1 0 -1 0\n-1 -1 -1 0 1 0\n")
                   .ok());
}

TEST(SerializationTest, ModelLoadRejectsEmptyTree) {
  // Fit grows at least one node per round, so Save never writes this.
  const auto model = LoadOneTreeModel("tree 0\n");
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, ModelLoadRejectsLeafThresholdOrGain) {
  // A leaf holds only its weight: Save writes "-1 -1 -1 0 <weight> 0".
  for (const std::string leaf :
       {"-1 -1 -1 0.5 -1 0\n", "-1 -1 -1 0 -1 2\n", "-1 -1 -1 -0 -1 0\n",
        "-1 -1 -1 0 -1 -0\n"}) {
    const auto model = LoadOneTreeModel("tree 3\n1 1 2 0.5 0 1\n" + leaf +
                                        "-1 -1 -1 0 1 0\n");
    ASSERT_FALSE(model.ok()) << leaf;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << leaf;
  }
}

// Save(Load(text)) is `text`, byte for byte.
void ExpectSaveOfLoadRepeats(const std::string& text) {
  std::stringstream in(text);
  const auto loaded = GbtRegressor::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::ostringstream out;
  loaded->Save(out);
  EXPECT_EQ(out.str(), text);
}

TEST(SerializationTest, GbtSaveOfLoadRepeatsTheText) {
  Rng rng(5);
  Matrix x(150, 5);
  std::vector<double> y(150);
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::size_t c = 0; c < 5; ++c) x.at(i, c) = rng.Uniform(-1, 1);
    y[i] = 12 * x.at(i, 1) + 4 * x.at(i, 0) * x.at(i, 4) + rng.Gaussian();
  }
  GbtParams params;
  params.num_rounds = 25;
  params.tree.max_depth = 4;
  params.subsample = 0.8;
  // Absolute loss refines its leaves to residual medians after growing.
  for (const Loss& loss :
       {Loss::Squared(), Loss::PseudoHuber(18.0), Loss::Absolute()}) {
    GbtRegressor model(params, loss);
    ASSERT_TRUE(model.Fit(x, y).ok());
    std::ostringstream text;
    model.Save(text);
    ExpectSaveOfLoadRepeats(text.str());
  }
  ExpectSaveOfLoadRepeats(std::string(kOneTreeModelHeader) + kWellFormedTree);
}

// Bytes this thread asked the allocator for while `load` ran. The count
// is armed only around the call, so neither earlier tests nor other
// threads enter into it, however the tests are run.
template <typename LoadFn>
std::size_t AllocatedBytes(LoadFn load) {
  t_allocated = 0;
  t_counting = true;
  load();
  t_counting = false;
  return t_allocated;
}

// A parser that sizes a buffer from a count it has not read asks for
// 8 MB or more here; growing as records parse, these loads take a few KB.
constexpr std::size_t kMaxLoadBytes = std::size_t{1} << 20;

TEST(SerializationTest, GbtTreeNodeCountSizesNoBuffer) {
  // A model file of under 100 bytes that promises ten million nodes and
  // holds one.
  const std::size_t bytes = AllocatedBytes([] {
    const auto model = LoadOneTreeModel("tree 9999999\n0 1 2 0.5 0 1\n");
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(model.status().message(), "truncated tree node list");
  });
  EXPECT_LT(bytes, kMaxLoadBytes);
}

TEST(SerializationTest, ElasticNetCoefficientCountSizesNoBuffer) {
  const std::size_t bytes = AllocatedBytes([] {
    std::stringstream buffer(
        "elastic_net v1\nparams 0.01 0.5 500 1e-07\nmodel 0 100000000\n");
    const auto model = ElasticNetRegression::Load(buffer);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(model.status().message(), "truncated coefficient list");
  });
  EXPECT_LT(bytes, kMaxLoadBytes);
}

TEST(SerializationTest, TimelineListCountsSizeNoBuffer) {
  std::stringstream config;
  PipelineConfig().Save(config);
  const std::string prefix =
      "timeline_model_set v1\n" + config.str() + "stacked 0\nsteps 1\n";
  for (const auto& [lists, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"selected 1000000\n", "truncated selected record"},
           {"selected 0\nnames 1000000\n", "truncated names record"}}) {
    const std::size_t bytes = AllocatedBytes([&] {
      std::stringstream buffer(prefix + lists);
      const auto set = TimelineModelSet::Load(buffer, 8, 8);
      ASSERT_FALSE(set.ok()) << lists;
      EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(set.status().message(), message);
    });
    EXPECT_LT(bytes, kMaxLoadBytes) << lists;
  }
}

class EstimatorSerializationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new testing_internal::PipelineFixture(
        MakePipelineFixture(/*seed=*/31, /*num_avails=*/40,
                            /*window_pct=*/50.0));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static testing_internal::PipelineFixture* fixture_;
};

testing_internal::PipelineFixture* EstimatorSerializationTest::fixture_ =
    nullptr;

TEST_F(EstimatorSerializationTest, TimelineModelSetRoundTrip) {
  PipelineConfig config = FastConfig();
  config.window_width_pct = 50.0;
  TimelineModelSet models;
  ASSERT_TRUE(
      models.Fit(config, fixture_->train, fixture_->dynamic_names).ok());

  std::stringstream buffer;
  ASSERT_TRUE(models.Save(buffer).ok());
  auto loaded = TimelineModelSet::Load(buffer, StaticFeatureNames().size(),
                                       fixture_->dynamic_names.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_steps(), models.num_steps());
  for (std::size_t step = 0; step < models.num_steps(); ++step) {
    EXPECT_EQ(loaded->selected_features(step), models.selected_features(step));
    EXPECT_EQ(loaded->input_names(step), models.input_names(step));
  }
  const auto original = models.PredictPerStep(fixture_->validation);
  const auto restored = loaded->PredictPerStep(fixture_->validation);
  for (std::size_t step = 0; step < original.size(); ++step) {
    EXPECT_EQ(original[step], restored[step]);
  }
}

TEST_F(EstimatorSerializationTest, StackedModelSetRoundTrip) {
  PipelineConfig config = FastConfig();
  config.window_width_pct = 50.0;
  config.architecture = Architecture::kStacked;
  TimelineModelSet models;
  ASSERT_TRUE(
      models.Fit(config, fixture_->train, fixture_->dynamic_names).ok());
  std::stringstream buffer;
  ASSERT_TRUE(models.Save(buffer).ok());
  auto loaded = TimelineModelSet::Load(buffer, StaticFeatureNames().size(),
                                       fixture_->dynamic_names.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->is_stacked());
  const auto original = models.PredictPerStep(fixture_->validation);
  const auto restored = loaded->PredictPerStep(fixture_->validation);
  EXPECT_EQ(original, restored);
}

TEST_F(EstimatorSerializationTest, EstimatorSaveLoadQueriesMatch) {
  PipelineConfig config = FastConfig();
  config.window_width_pct = 50.0;
  auto estimator =
      DomdEstimator::Train(&fixture_->data, config, fixture_->split.train);
  ASSERT_TRUE(estimator.ok()) << estimator.status();

  const std::string path = ::testing::TempDir() + "/domd_models.txt";
  ASSERT_TRUE(estimator->SaveModels(path).ok());
  auto served = DomdEstimator::LoadModels(&fixture_->data, path);
  ASSERT_TRUE(served.ok()) << served.status();

  for (std::int64_t id : fixture_->split.test) {
    const auto a = estimator->QueryAtLogicalTime(id, 100.0);
    const auto b = served->QueryAtLogicalTime(id, 100.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a->fused_estimate_days, b->fused_estimate_days);
    ASSERT_EQ(a->steps.size(), b->steps.size());
    for (std::size_t s = 0; s < a->steps.size(); ++s) {
      EXPECT_DOUBLE_EQ(a->steps[s].estimated_delay_days,
                       b->steps[s].estimated_delay_days);
    }
  }
  std::remove(path.c_str());
}

TEST_F(EstimatorSerializationTest, HistogramSplitModelSetRoundTrip) {
  // The histogram split method serializes through the same tree format as
  // exact splits; restored predictions must be bit-identical.
  PipelineConfig config = FastConfig();
  config.window_width_pct = 50.0;
  config.gbt.tree.split_method = SplitMethod::kHistogram;
  TimelineModelSet models;
  ASSERT_TRUE(
      models.Fit(config, fixture_->train, fixture_->dynamic_names).ok());

  std::stringstream buffer;
  ASSERT_TRUE(models.Save(buffer).ok());
  auto loaded = TimelineModelSet::Load(buffer, StaticFeatureNames().size(),
                                       fixture_->dynamic_names.size());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const auto original = models.PredictPerStep(fixture_->validation);
  const auto restored = loaded->PredictPerStep(fixture_->validation);
  EXPECT_EQ(original, restored);
}

TEST_F(EstimatorSerializationTest, ElasticNetFusionEstimatorRoundTrip) {
  // The full elastic-net serving stack — stacked architecture with min
  // fusion — must re-score a held-out set bit-identically after a
  // SaveModels/LoadModels cycle.
  PipelineConfig config = FastConfig();
  config.window_width_pct = 50.0;
  config.model_family = ModelFamily::kElasticNet;
  config.architecture = Architecture::kStacked;
  config.fusion = FusionMethod::kMin;
  auto estimator =
      DomdEstimator::Train(&fixture_->data, config, fixture_->split.train);
  ASSERT_TRUE(estimator.ok()) << estimator.status();

  const std::string path = ::testing::TempDir() + "/domd_en_models.txt";
  ASSERT_TRUE(estimator->SaveModels(path).ok());
  auto served = DomdEstimator::LoadModels(&fixture_->data, path);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->config().model_family, ModelFamily::kElasticNet);
  EXPECT_EQ(served->config().fusion, FusionMethod::kMin);

  for (std::int64_t id : fixture_->split.test) {
    const auto a = estimator->QueryAtLogicalTime(id, 100.0);
    const auto b = served->QueryAtLogicalTime(id, 100.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->fused_estimate_days, b->fused_estimate_days);
    ASSERT_EQ(a->steps.size(), b->steps.size());
    for (std::size_t s = 0; s < a->steps.size(); ++s) {
      EXPECT_EQ(a->steps[s].estimated_delay_days,
                b->steps[s].estimated_delay_days);
    }
  }
  std::remove(path.c_str());
}

TEST_F(EstimatorSerializationTest, LoadFromMissingFileFails) {
  EXPECT_FALSE(
      DomdEstimator::LoadModels(&fixture_->data, "/nonexistent/m.txt").ok());
}

// The model file SaveModels writes for a FastConfig estimator.
std::string SavedModelText(const Dataset& data,
                           const std::vector<std::int64_t>& train_ids,
                           Architecture architecture) {
  PipelineConfig config = FastConfig();
  config.window_width_pct = 50.0;
  config.architecture = architecture;
  auto estimator = DomdEstimator::Train(&data, config, train_ids);
  EXPECT_TRUE(estimator.ok()) << estimator.status();
  std::stringstream text;
  EXPECT_TRUE(estimator->models().Save(text).ok());
  return text.str();
}

// `text` with whitespace-separated field `field` (0 is the tag) of the
// first line at or after offset `from` that starts with `tag` replaced by
// `value`.
std::string EditField(const std::string& text, const std::string& tag,
                      std::size_t field, const std::string& value,
                      std::size_t from = 0) {
  const std::size_t start = text.find("\n" + tag + " ", from) + 1;
  const std::size_t end = text.find('\n', start);
  std::istringstream line(text.substr(start, end - start));
  std::vector<std::string> fields;
  for (std::string f; line >> f;) fields.push_back(f);
  EXPECT_LT(field, fields.size());
  fields[field] = value;
  std::string edited;
  for (const std::string& f : fields) edited += (edited.empty() ? "" : " ") + f;
  return text.substr(0, start) + edited + text.substr(end);
}

// A GBT "model <base-score> <num-features> <trees>" line's feature count,
// for the first such line at or after `from`, raised by one.
std::string WidenModel(const std::string& text, std::size_t from) {
  const std::size_t start = text.find("\nmodel ", from) + 1;
  std::istringstream line(text.substr(start, text.find('\n', start) - start));
  std::string tag, base_score;
  std::size_t num_features = 0;
  line >> tag >> base_score >> num_features;
  return EditField(text, "model", 2, std::to_string(num_features + 1), from);
}

class ModelInputWidthTest : public EstimatorSerializationTest {
 protected:
  // Loads model text the way bundles and `--model` files are loaded.
  static Status Load(const std::string& text) {
    std::istringstream in(text);
    return DomdEstimator::LoadModelsFromStream(&fixture_->data, in).status();
  }
  // The load fails for `why`, not for some parse error an edit caused.
  static void ExpectRejected(const std::string& text, const std::string& why) {
    const Status status = Load(text);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find(why), std::string::npos) << status;
  }
  static std::string Flat() {
    return SavedModelText(fixture_->data, fixture_->split.train,
                          Architecture::kNonStacked);
  }
  static std::string Stacked() {
    return SavedModelText(fixture_->data, fixture_->split.train,
                          Architecture::kStacked);
  }
};

TEST_F(ModelInputWidthTest, AcceptsModelsWithinTheirInputWidths) {
  // The control for the edits below: the files they start from load.
  EXPECT_TRUE(Load(Flat()).ok());
  EXPECT_TRUE(Load(Stacked()).ok());
}

TEST_F(ModelInputWidthTest, RejectsSelectedColumnPastTheCatalog) {
  const std::string text = Flat();
  // `selected <count> <first column> ...`: one past the last catalog column.
  ExpectRejected(EditField(text, "selected", 2,
                           std::to_string(fixture_->dynamic_names.size())),
                 "step 0 selects column");
}

TEST_F(ModelInputWidthTest, RejectsStepModelWiderThanItsInput) {
  const std::string text = Flat();
  // Statics + selected columns: one more feature reads past the row.
  ExpectRejected(WidenModel(text, text.find("\nselected ")),
                 "step 0 model reads");
}

TEST_F(ModelInputWidthTest, RejectsStackedStepModelWiderThanItsInput) {
  const std::string text = Stacked();
  // Selected columns + the base prediction, plus one.
  ExpectRejected(WidenModel(text, text.find("\nselected ")),
                 "step 0 model reads");
}

TEST_F(ModelInputWidthTest, RejectsBaseModelWiderThanTheStatics) {
  const std::string text = Stacked();
  ExpectRejected(WidenModel(text, text.find("\nstacked 1")),
                 "base model reads");
}

#if !DOMD_TEST_SANITIZED
void* CountedNew(std::size_t size) {
  CountAllocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
#endif

}  // namespace
}  // namespace domd

#if !DOMD_TEST_SANITIZED
// The test binary's non-aligned operator new and delete, all on malloc and
// free (aligned forms keep the library's): new counts for AllocatedBytes.
void* operator new(std::size_t size) { return domd::CountedNew(size); }
void* operator new[](std::size_t size) { return domd::CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return domd::CountedNew(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif
