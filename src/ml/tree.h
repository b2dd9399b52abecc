#ifndef DOMD_ML_TREE_H_
#define DOMD_ML_TREE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "common/status.h"

namespace domd {

class TrainingFrame;

/// How a tree enumerates candidate split thresholds.
enum class SplitMethod {
  kExact,      ///< Sort node samples per feature, scan every boundary.
  kHistogram,  ///< Equal-width histograms per feature (approximate).
};

/// Regression-tree growing parameters (the XGBoost-style regularized
/// objective: leaf weight w* = -G/(H + lambda), split gain =
/// 1/2 [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma).
struct TreeParams {
  int max_depth = 3;
  double min_child_weight = 1.0;  ///< Minimum Hessian mass per child.
  double lambda = 1.0;            ///< L2 penalty on leaf weights.
  double gamma = 0.0;             ///< Minimum gain to accept a split.
  SplitMethod split_method = SplitMethod::kExact;
  int histogram_bins = 32;
};

/// One regression tree fitted to per-sample gradients and Hessians (a
/// single boosting round's weak learner). Every node stores its Newton
/// weight, which makes Saabas-style per-feature prediction attribution
/// exact and cheap.
class RegressionTree {
 public:
  RegressionTree() = default;

  /// Grows the tree greedily over a columnar TrainingFrame on the given
  /// sample rows, considering only `features` as split candidates. The
  /// exact scan walks each column's presorted (value, row) order filtered
  /// by a node membership mask — the sequence a per-node sort of the
  /// node's (value, row) pairs would produce — so no node ever sorts.
  void Fit(const TrainingFrame& frame, const std::vector<double>& grad,
           const std::vector<double>& hess,
           const std::vector<std::size_t>& rows,
           const std::vector<std::size_t>& features, const TreeParams& params);

  /// The tree's output for one instance (no shrinkage applied).
  double Predict(std::span<const double> row) const;

  /// Walks the decision path, adding (child weight - parent weight) to
  /// (*contributions)[split_feature] scaled by `scale`; returns the root
  /// weight (the tree's base value) scaled by `scale`.
  double AccumulateContributions(std::span<const double> row, double scale,
                                 std::vector<double>* contributions) const;

  /// Adds each split's gain to (*gains)[feature].
  void AccumulateGains(std::vector<double>* gains) const;

  /// Node index of the leaf this instance routes to.
  std::int32_t LeafFor(std::span<const double> row) const;

  /// Appends this tree's nodes as flat parallel arrays for breadth-first
  /// batch traversal. `base` is the index the first appended node receives;
  /// child links are rebased onto it. Leaves become self-loops (feature 0,
  /// threshold +inf, left = right = self), so iterating depth() steps from
  /// the root lands every row on its leaf. An empty tree appends one
  /// zero-weight self-loop (matching Predict() == 0.0).
  void AppendFlat(std::int32_t base, std::vector<std::int32_t>* feature,
                  std::vector<double>* threshold,
                  std::vector<std::int32_t>* left,
                  std::vector<std::int32_t>* right,
                  std::vector<double>* weight) const;

  /// Overrides a node's weight. Used by losses whose optimal leaf value is
  /// not the Newton step (e.g. the median residual for absolute loss).
  void SetNodeWeight(std::int32_t node, double weight) {
    nodes_[static_cast<std::size_t>(node)].weight = weight;
  }

  /// Serializes the tree as one text block (node count + one node per
  /// line, full double precision).
  void Save(std::ostream& out) const;

  /// Reads a tree written by Save(). Rejects anything but a binary tree
  /// rooted at node 0 (children after their parent, one parent per
  /// non-root node, leaves exactly "-1 -1 -1") and any split feature
  /// >= num_features, so a loaded tree can never loop or read out of range.
  static StatusOr<RegressionTree> Load(std::istream& in,
                                       std::size_t num_features);

  std::size_t num_nodes() const { return nodes_.size(); }
  /// Number of leaves.
  std::size_t num_leaves() const;
  /// Maximum depth actually grown (root = 0; 0 for a stump-less tree).
  int depth() const;

 private:
  struct Node {
    std::int32_t feature = -1;  ///< -1 marks a leaf.
    std::int32_t left = -1;
    std::int32_t right = -1;
    double threshold = 0.0;  ///< go left when value <= threshold.
    double weight = 0.0;     ///< Newton weight -G/(H+lambda) at this node.
    double gain = 0.0;       ///< split gain (internal nodes only).
  };

  struct SplitDecision {
    bool found = false;
    std::size_t feature = 0;
    double threshold = 0.0;
    double gain = 0.0;
  };

  std::int32_t Grow(const TrainingFrame& frame,
                    const std::vector<double>& grad,
                    const std::vector<double>& hess,
                    std::vector<std::size_t>& rows, std::size_t begin,
                    std::size_t end,
                    const std::vector<std::size_t>& features,
                    const TreeParams& params, int depth,
                    std::vector<std::uint8_t>& mask);

  SplitDecision FindSplit(const TrainingFrame& frame,
                          const std::vector<double>& grad,
                          const std::vector<double>& hess,
                          const std::vector<std::size_t>& rows,
                          std::size_t begin, std::size_t end,
                          const std::vector<std::size_t>& features,
                          const TreeParams& params, double g_total,
                          double h_total,
                          const std::vector<std::uint8_t>& mask) const;

  /// Best split of a single feature over the rows `mask` marks.
  SplitDecision ScanFeatureExact(const TrainingFrame& frame,
                                 const std::vector<double>& grad,
                                 const std::vector<double>& hess,
                                 std::size_t node_size, std::size_t feature,
                                 const TreeParams& params, double g_total,
                                 double h_total, double parent_score,
                                 const std::vector<std::uint8_t>& mask) const;

  SplitDecision ScanFeatureHistogram(const TrainingFrame& frame,
                                     const std::vector<double>& grad,
                                     const std::vector<double>& hess,
                                     const std::vector<std::size_t>& rows,
                                     std::size_t begin, std::size_t end,
                                     std::size_t feature,
                                     const TreeParams& params, double g_total,
                                     double h_total, double parent_score) const;

  int DepthOf(std::int32_t node) const;

  std::vector<Node> nodes_;
};

}  // namespace domd

#endif  // DOMD_ML_TREE_H_
