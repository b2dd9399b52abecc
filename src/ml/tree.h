#ifndef DOMD_ML_TREE_H_
#define DOMD_ML_TREE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "common/status.h"
#include "ml/matrix.h"

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

/// The regression trees of one ensemble (a GBT's weak learners, one per
/// boosting round) as one pool of nodes in parallel arrays, with per-tree
/// roots and depths. Every node stores its Newton weight, which makes
/// Saabas-style per-feature attribution exact and cheap. A leaf is a
/// self-loop (feature 0, threshold +inf, left = right = itself), so a walk
/// of depth(tree) steps from the root parks every row on its leaf, and a
/// walk that stops at the self-loop visits only the decision path. The
/// grower, every walk and the text codec read and write this one pool.
class Forest {
 public:
  /// Grows one tree greedily over a columnar TrainingFrame on the given
  /// sample rows, considering only `features` as split candidates, and
  /// appends it to the pool. The exact scan walks each column's presorted
  /// (value, row) order filtered by a node membership mask — the sequence
  /// a per-node sort of the node's (value, row) pairs would produce — so
  /// no node ever sorts. No rows grow one zero-weight leaf.
  void GrowTree(const TrainingFrame& frame, const std::vector<double>& grad,
                const std::vector<double>& hess,
                const std::vector<std::size_t>& rows,
                const std::vector<std::size_t>& features,
                const TreeParams& params);

  /// Releases spare capacity, so each array holds exactly its nodes.
  void ShrinkToFit();

  /// `base` plus `scale` times each tree's leaf weight for `row`, added
  /// in tree order.
  double Predict(std::span<const double> row, double base,
                 double scale) const;

  /// For every row r of x, adds `scale` times the leaf weight of each
  /// tree from `first_tree` on to out[r], in tree order: the exact FP
  /// sequence of Predict. Rows descend in blocks, one tree at a time, one
  /// depth level per step (branch-free). Only reads the pool, so one
  /// forest may score from many threads.
  void AddPredictions(const Matrix& x, double scale, std::size_t first_tree,
                      std::span<double> out) const;

  /// Saabas path attribution: for each tree in order, adds `scale` times
  /// the root weight to out.back() and `scale` times (child weight -
  /// parent weight) along the decision path to out[split feature]. The
  /// walk stops at the leaf's self-loop, so no leaf adds a term. `out`
  /// holds one slot per feature plus the base.
  void AddContributions(std::span<const double> row, double scale,
                        std::span<double> out) const;

  /// Adds each split's gain to gains[feature], in pool order.
  void AddGains(std::span<double> gains) const;

  /// Node index of the leaf `row` reaches in tree `tree`.
  std::int32_t LeafFor(std::size_t tree, std::span<const double> row) const;

  /// Overrides a node's weight. Used by losses whose optimal leaf value is
  /// not the Newton step (e.g. the median residual for absolute loss).
  void SetWeight(std::int32_t node, double weight) {
    weight_[static_cast<std::size_t>(node)] = weight;
  }

  /// Writes each tree as one text block ("tree <nodes>", then one
  /// "feature left right threshold weight gain" line per node with
  /// tree-local child indices, full double precision; a leaf reads
  /// "-1 -1 -1 0 <weight> 0").
  void Save(std::ostream& out) const;

  /// Reads `num_trees` blocks Save wrote, growing the pool as nodes parse.
  /// Rejects anything but a non-empty binary tree rooted at node 0
  /// (children after their parent, one parent per non-root node, leaves
  /// exactly "-1 -1 -1 0 <weight> 0") and any split feature
  /// >= num_features, so no walk can loop or read out of range.
  static StatusOr<Forest> Load(std::istream& in, std::size_t num_trees,
                               std::size_t num_features);

  std::size_t num_trees() const { return roots_.size(); }
  std::size_t num_nodes() const { return feature_.size(); }
  /// Number of leaves across all trees.
  std::size_t num_leaves() const;
  /// Maximum depth tree `tree` reaches (root = 0; 0 for a lone leaf).
  int depth(std::size_t tree) const { return depths_[tree]; }

 private:
  struct SplitDecision {
    bool found = false;
    std::size_t feature = 0;
    double threshold = 0.0;
    double gain = 0.0;
  };

  /// Appends a leaf of the given weight at depth `depth` of the last tree.
  std::int32_t AddLeaf(double weight, int depth);

  bool IsLeaf(std::size_t node) const {
    return left_[node] == static_cast<std::int32_t>(node);
  }

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

  // One entry per node, trees back to back; child links are pool indices.
  std::vector<std::int32_t> feature_, left_, right_;
  std::vector<double> threshold_, weight_;
  std::vector<double> gain_;  ///< Split gain; 0 at leaves.
  // One entry per tree.
  std::vector<std::int32_t> roots_;
  std::vector<int> depths_;
};

}  // namespace domd

#endif  // DOMD_ML_TREE_H_
