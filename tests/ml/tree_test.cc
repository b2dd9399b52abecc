#include "ml/tree.h"

#include <gtest/gtest.h>

#include <numeric>
#include <span>

#include "common/rng.h"
#include "ml/columnar.h"

namespace domd {
namespace {

// For squared loss at predictions == 0: grad = -y, hess = 1, so a leaf's
// Newton weight with lambda = 0 is the mean label of its samples.
void SquaredTargets(const std::vector<double>& y, std::vector<double>* grad,
                    std::vector<double>* hess) {
  grad->resize(y.size());
  hess->assign(y.size(), 1.0);
  for (std::size_t i = 0; i < y.size(); ++i) (*grad)[i] = -y[i];
}

// The output of a one-tree forest's tree for `row` (no base, unit scale).
double TreeOutput(const Forest& tree, std::span<const double> row) {
  return tree.Predict(row, 0.0, 1.0);
}

std::vector<std::size_t> AllRows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

TEST(RegressionTreeTest, SplitsPerfectStepFunction) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    y[i] = i < 5 ? -10.0 : 10.0;
  }
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);
  TreeParams params;
  params.max_depth = 2;
  params.lambda = 0.0;
  Forest tree;
  tree.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(10),
                {0}, params);

  EXPECT_NEAR(TreeOutput(tree, std::vector<double>{2.0}), -10.0, 1e-9);
  EXPECT_NEAR(TreeOutput(tree, std::vector<double>{7.0}), 10.0, 1e-9);
  EXPECT_GE(tree.num_leaves(), 2u);
}

TEST(RegressionTreeTest, RespectsMaxDepth) {
  Rng rng(1);
  Matrix x(200, 3);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x.at(i, c) = rng.Uniform(-1, 1);
    y[i] = rng.Gaussian();
  }
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);
  for (int depth : {1, 2, 4}) {
    TreeParams params;
    params.max_depth = depth;
    params.min_child_weight = 1.0;
    Forest tree;
    tree.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(200),
                  {0, 1, 2}, params);
    EXPECT_LE(tree.depth(0), depth);
    EXPECT_LE(tree.num_leaves(), static_cast<std::size_t>(1) << depth);
  }
}

TEST(RegressionTreeTest, ConstantFeatureYieldsStump) {
  Matrix x(20, 1);
  std::vector<double> y(20, 0.0);
  for (std::size_t i = 0; i < 20; ++i) {
    x.at(i, 0) = 3.0;
    y[i] = static_cast<double>(i);
  }
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);
  Forest tree;
  tree.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(20), {0},
                TreeParams{});
  EXPECT_EQ(tree.num_nodes(), 1u);
  // Root weight = mean of y (lambda=1 shrinks slightly).
  EXPECT_NEAR(TreeOutput(tree, std::vector<double>{3.0}), 9.5, 0.6);
}

TEST(RegressionTreeTest, MinChildWeightBlocksSmallLeaves) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    y[i] = i == 9 ? 100.0 : 0.0;  // lone outlier invites a 9/1 split
  }
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);
  TreeParams params;
  params.min_child_weight = 3.0;  // forbids children with < 3 samples
  params.max_depth = 1;
  Forest tree;
  tree.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(10),
                {0}, params);
  if (tree.num_nodes() > 1) {
    // Any split taken must leave >= 3 samples on the right.
    EXPECT_NEAR(TreeOutput(tree, std::vector<double>{9.0}),
                TreeOutput(tree, std::vector<double>{7.5}), 1e-9);
  }
}

TEST(RegressionTreeTest, GammaPrunesWeakSplits) {
  Rng rng(3);
  Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = rng.Uniform(0, 1);
    y[i] = 0.01 * rng.Gaussian();  // nearly no structure
  }
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);
  TreeParams params;
  params.gamma = 100.0;  // demands massive gain
  Forest tree;
  tree.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(100),
                {0}, params);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(RegressionTreeTest, LambdaShrinksLeafWeights) {
  Matrix x(4, 1);
  std::vector<double> y = {10, 10, 10, 10};
  for (std::size_t i = 0; i < 4; ++i) x.at(i, 0) = static_cast<double>(i);
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);
  TreeParams no_reg;
  no_reg.lambda = 0.0;
  Forest tree_a;
  tree_a.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(4), {0},
                  no_reg);
  TreeParams heavy;
  heavy.lambda = 4.0;
  Forest tree_b;
  tree_b.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(4), {0},
                  heavy);
  // -G/(H+l): 40/4 = 10 vs 40/8 = 5.
  EXPECT_NEAR(TreeOutput(tree_a, std::vector<double>{0.0}), 10.0, 1e-9);
  EXPECT_NEAR(TreeOutput(tree_b, std::vector<double>{0.0}), 5.0, 1e-9);
}

TEST(RegressionTreeTest, HistogramApproximatesExact) {
  Rng rng(7);
  Matrix x(500, 2);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) {
    x.at(i, 0) = rng.Uniform(0, 1);
    x.at(i, 1) = rng.Uniform(0, 1);
    y[i] = (x.at(i, 0) > 0.5 ? 10.0 : -10.0) + rng.Gaussian();
  }
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);

  TreeParams exact;
  exact.max_depth = 3;
  Forest tree_exact;
  tree_exact.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(500),
                      {0, 1}, exact);

  TreeParams histogram = exact;
  histogram.split_method = SplitMethod::kHistogram;
  histogram.histogram_bins = 64;
  Forest tree_hist;
  tree_hist.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(500),
                     {0, 1}, histogram);

  // Both should recover the dominant step near 0.5.
  for (double probe : {0.1, 0.4, 0.6, 0.9}) {
    const std::vector<double> row = {probe, 0.5};
    EXPECT_NEAR(TreeOutput(tree_exact, row), TreeOutput(tree_hist, row),
                3.0);
  }
}

TEST(RegressionTreeTest, ContributionsDecomposePrediction) {
  Rng rng(11);
  Matrix x(100, 3);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x.at(i, c) = rng.Uniform(-2, 2);
    y[i] = 3 * x.at(i, 0) - x.at(i, 2) + rng.Gaussian();
  }
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);
  TreeParams params;
  params.max_depth = 4;
  Forest tree;
  tree.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(100),
                {0, 1, 2}, params);

  for (std::size_t r = 0; r < 10; ++r) {
    std::vector<double> contributions(4, 0.0);  // 3 features + the base
    tree.AddContributions(x.row(r), 1.0, contributions);
    const double total = contributions[3] + contributions[0] +
                         contributions[1] + contributions[2];
    EXPECT_NEAR(total, TreeOutput(tree, x.row(r)), 1e-9);
  }
}

TEST(RegressionTreeTest, GainsAttributeToSplitFeatures) {
  Matrix x(50, 2);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    x.at(i, 1) = 0.0;  // constant: unusable
    y[i] = i < 25 ? 0.0 : 50.0;
  }
  std::vector<double> grad, hess;
  SquaredTargets(y, &grad, &hess);
  Forest tree;
  tree.GrowTree(TrainingFrame::FromMatrix(x), grad, hess, AllRows(50),
                {0, 1}, TreeParams{});
  std::vector<double> gains(2, 0.0);
  tree.AddGains(gains);
  EXPECT_GT(gains[0], 0.0);
  EXPECT_DOUBLE_EQ(gains[1], 0.0);
}

TEST(RegressionTreeTest, EmptyRowsYieldZeroTree) {
  Matrix x(5, 1);
  Forest tree;
  tree.GrowTree(TrainingFrame::FromMatrix(x), {0, 0, 0, 0, 0},
                {1, 1, 1, 1, 1}, {}, {0}, TreeParams{});
  EXPECT_DOUBLE_EQ(TreeOutput(tree, std::vector<double>{1.0}), 0.0);
}

}  // namespace
}  // namespace domd
