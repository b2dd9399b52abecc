#include "ml/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/loss.h"
#include "ml/tree.h"

namespace domd {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                    int distinct = 0) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (distinct > 0) {
        x.at(r, c) = static_cast<double>(
            rng.UniformInt(0, distinct - 1));
      } else {
        x.at(r, c) = rng.Uniform() * 10.0 - 5.0;
      }
    }
  }
  return x;
}

std::vector<double> RandomLabels(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> y(rows);
  for (double& v : y) v = rng.Uniform() * 40.0;
  return y;
}

/// A serial reference grower written independently of Forest's columnar
/// scans. Per node and per feature it sorts the node's
/// (value, row) pairs and scans every boundary (exact), or fills
/// equal-width bins (histogram); it partitions with std::partition and
/// uses no threads. Grow() prints Forest::Save's format for one tree, so
/// the production grower must match it byte for byte.
class ReferenceGrower {
 public:
  ReferenceGrower(const Matrix& x, const std::vector<double>& grad,
                  const std::vector<double>& hess, const TreeParams& params)
      : x_(x), grad_(grad), hess_(hess), params_(params) {}

  std::string Grow(std::vector<std::size_t> rows,
                   const std::vector<std::size_t>& features) {
    nodes_.clear();
    if (rows.empty()) {
      nodes_.push_back(Node{});
    } else {
      GrowNode(rows, 0, rows.size(), features, 0);
    }
    std::ostringstream out;
    out << std::setprecision(17) << "tree " << nodes_.size() << "\n";
    for (const Node& n : nodes_) {
      out << n.feature << ' ' << n.left << ' ' << n.right << ' '
          << n.threshold << ' ' << n.weight << ' ' << n.gain << "\n";
    }
    return out.str();
  }

 private:
  struct Node {
    std::int32_t feature = -1;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double threshold = 0.0;
    double weight = 0.0;
    double gain = 0.0;
  };

  struct Split {
    bool found = false;
    std::size_t feature = 0;
    double threshold = 0.0;
    double gain = 0.0;
  };

  double Score(double g, double h) const {
    return g * g / (h + params_.lambda);
  }

  /// Scores one boundary. Candidates arrive in feature order, then
  /// boundary order, and only a strictly larger gain replaces the best —
  /// so ties keep the earliest feature and the earliest boundary.
  void Offer(double g_left, double h_left, double g_total, double h_total,
             double parent_score, std::size_t feature, double threshold,
             Split* best) const {
    const double g_right = g_total - g_left;
    const double h_right = h_total - h_left;
    if (h_left < params_.min_child_weight ||
        h_right < params_.min_child_weight) {
      return;
    }
    const double gain =
        0.5 * (Score(g_left, h_left) + Score(g_right, h_right) -
               parent_score) -
        params_.gamma;
    if (gain > best->gain) *best = Split{true, feature, threshold, gain};
  }

  void ScanExact(const std::vector<std::size_t>& rows, std::size_t begin,
                 std::size_t end, std::size_t feature, double g_total,
                 double h_total, double parent_score, Split* best) const {
    std::vector<std::pair<double, std::size_t>> sorted;
    for (std::size_t i = begin; i < end; ++i) {
      sorted.emplace_back(x_.at(rows[i], feature), rows[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    double g_left = 0.0, h_left = 0.0;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      g_left += grad_[sorted[i].second];
      h_left += hess_[sorted[i].second];
      if (sorted[i].first == sorted[i + 1].first) continue;
      Offer(g_left, h_left, g_total, h_total, parent_score, feature,
            0.5 * (sorted[i].first + sorted[i + 1].first), best);
    }
  }

  void ScanHistogram(const std::vector<std::size_t>& rows, std::size_t begin,
                     std::size_t end, std::size_t feature, double g_total,
                     double h_total, double parent_score,
                     Split* best) const {
    const auto bins =
        static_cast<std::size_t>(std::max(2, params_.histogram_bins));
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t i = begin; i < end; ++i) {
      lo = std::min(lo, x_.at(rows[i], feature));
      hi = std::max(hi, x_.at(rows[i], feature));
    }
    if (!(hi > lo)) return;
    const double width = (hi - lo) / static_cast<double>(bins);
    std::vector<double> bin_g(bins, 0.0), bin_h(bins, 0.0);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = rows[i];
      auto b = static_cast<std::size_t>((x_.at(r, feature) - lo) / width);
      b = std::min(b, bins - 1);
      bin_g[b] += grad_[r];
      bin_h[b] += hess_[r];
    }
    double g_left = 0.0, h_left = 0.0;
    for (std::size_t b = 0; b + 1 < bins; ++b) {
      g_left += bin_g[b];
      h_left += bin_h[b];
      Offer(g_left, h_left, g_total, h_total, parent_score, feature,
            lo + width * static_cast<double>(b + 1), best);
    }
  }

  std::int32_t GrowNode(std::vector<std::size_t>& rows, std::size_t begin,
                        std::size_t end,
                        const std::vector<std::size_t>& features,
                        int depth) {
    double g_total = 0.0, h_total = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      g_total += grad_[rows[i]];
      h_total += hess_[rows[i]];
    }
    const auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(Node{});
    nodes_.back().weight = -g_total / (h_total + params_.lambda);
    if (depth >= params_.max_depth || end - begin < 2) return id;

    const double parent_score = Score(g_total, h_total);
    Split best;
    for (const std::size_t feature : features) {
      if (params_.split_method == SplitMethod::kExact) {
        ScanExact(rows, begin, end, feature, g_total, h_total, parent_score,
                  &best);
      } else {
        ScanHistogram(rows, begin, end, feature, g_total, h_total,
                      parent_score, &best);
      }
    }
    if (!best.found) return id;

    const auto middle = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t r) {
          return x_.at(r, best.feature) <= best.threshold;
        });
    const auto mid = static_cast<std::size_t>(middle - rows.begin());
    if (mid == begin || mid == end) return id;

    const std::int32_t left = GrowNode(rows, begin, mid, features, depth + 1);
    const std::int32_t right = GrowNode(rows, mid, end, features, depth + 1);
    Node& node = nodes_[static_cast<std::size_t>(id)];
    node.feature = static_cast<std::int32_t>(best.feature);
    node.left = left;
    node.right = right;
    node.threshold = best.threshold;
    node.gain = best.gain;
    return id;
  }

  const Matrix& x_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  TreeParams params_;
  std::vector<Node> nodes_;
};

/// (split method, concurrent fits, distinct values per column; 0 =
/// continuous columns).
using TreeReferenceParam = std::tuple<SplitMethod, int, int>;

class TreeReferenceTest
    : public ::testing::TestWithParam<TreeReferenceParam> {};

// The production grower (presorted columns + node mask) must reproduce the
// serial per-node sort-and-scan reference byte for byte, boosting-round
// after boosting-round. Timeline steps fit concurrently, so each round
// also grows the same tree from that many threads at once over one shared
// frame: every copy must equal the reference.
TEST_P(TreeReferenceTest, TreesMatchSerialReference) {
  const auto [method, threads, distinct] = GetParam();
  const std::size_t n = 1000;
  const Matrix x = RandomMatrix(n, 12, 7, distinct);
  const std::vector<double> y = RandomLabels(n, 11);
  const TrainingFrame frame = TrainingFrame::FromMatrix(x);
  const Loss loss = Loss::PseudoHuber(18.0);

  TreeParams params;
  params.max_depth = 4;
  params.split_method = method;

  Rng rng(13);
  std::vector<double> predictions(n, 20.0), grad(n), hess(n);
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = loss.Gradient(predictions[i], y[i]);
      hess[i] = loss.Hessian(predictions[i], y[i]);
    }
    std::vector<std::size_t> rows, features;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.8)) rows.push_back(i);
    }
    for (std::size_t f = 0; f < x.cols(); ++f) {
      if (rng.Bernoulli(0.7)) features.push_back(f);
    }

    std::vector<Forest> forests(static_cast<std::size_t>(threads));
    ASSERT_TRUE(ParallelFor(threads, forests.size(), /*grain=*/1,
                            [&](std::size_t begin, std::size_t end) {
                              for (std::size_t t = begin; t < end; ++t) {
                                forests[t].GrowTree(frame, grad, hess, rows,
                                                    features, params);
                              }
                              return Status::OK();
                            })
                    .ok());
    const std::string reference =
        ReferenceGrower(x, grad, hess, params).Grow(rows, features);
    for (const Forest& forest : forests) {
      ASSERT_GT(forest.num_nodes(), 1u) << "round " << round;
      std::ostringstream out;
      forest.Save(out);
      ASSERT_EQ(out.str(), reference) << "round " << round;
    }
    const Forest& forest = forests.front();

    for (std::size_t i = 0; i < n; ++i) {
      predictions[i] = forest.Predict(x.row(i), predictions[i], 0.3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodThreadsData, TreeReferenceTest,
    ::testing::Combine(::testing::Values(SplitMethod::kExact,
                                         SplitMethod::kHistogram),
                       ::testing::Values(1, 2, 4), ::testing::Values(0, 5)),
    [](const ::testing::TestParamInfo<TreeReferenceParam>& info) {
      const bool exact = std::get<0>(info.param) == SplitMethod::kExact;
      return std::string(exact ? "Exact" : "Histogram") + "_" +
             std::to_string(std::get<1>(info.param)) + "T_" +
             (std::get<2>(info.param) == 0 ? "Continuous" : "FiveDistinct");
    });

TEST(TrainingFrame, OrderMatchesValueThenRowSort) {
  const double values[] = {2.0, 1.0, 2.0, 0.5, 1.0};
  Matrix x(5, 1);
  for (std::size_t r = 0; r < 5; ++r) x.at(r, 0) = values[r];
  const std::vector<std::uint32_t> expected = {3, 1, 4, 0, 2};
  EXPECT_EQ(TrainingFrame::FromMatrix(x).column(0).order, expected);
}

TEST(TrainingFrame, FromMatrixShapes) {
  const Matrix x = RandomMatrix(50, 4, 59);
  const TrainingFrame frame = TrainingFrame::FromMatrix(x);
  EXPECT_EQ(frame.rows(), 50u);
  EXPECT_EQ(frame.cols(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    const FrameColumn& column = frame.column(c);
    ASSERT_EQ(column.values.size(), 50u);
    ASSERT_EQ(column.order.size(), 50u);
    for (std::size_t r = 0; r < 50; ++r) {
      EXPECT_EQ(column.values[r], x.at(r, c));
    }
  }
}

}  // namespace
}  // namespace domd
