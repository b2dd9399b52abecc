#include "ml/tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iomanip>
#include <limits>
#include <string>
#include <vector>

#include "ml/columnar.h"

namespace domd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double NewtonWeight(double g, double h, double lambda) {
  return -g / (h + lambda);
}

double ScoreHalf(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

}  // namespace

void Forest::GrowTree(const TrainingFrame& frame,
                      const std::vector<double>& grad,
                      const std::vector<double>& hess,
                      const std::vector<std::size_t>& rows,
                      const std::vector<std::size_t>& features,
                      const TreeParams& params) {
  roots_.push_back(static_cast<std::int32_t>(feature_.size()));
  depths_.push_back(0);
  if (rows.empty()) {
    AddLeaf(0.0, 0);
    return;
  }
  std::vector<std::size_t> work = rows;
  // Node membership mask for the presorted exact scan. Each node marks its
  // own rows before the split search and unmarks them after, so the vector
  // is allocated once per tree.
  std::vector<std::uint8_t> mask(frame.rows(), 0);
  Grow(frame, grad, hess, work, 0, work.size(), features, params, 0, mask);
}

std::int32_t Forest::AddLeaf(double weight, int depth) {
  const auto self = static_cast<std::int32_t>(feature_.size());
  // v <= +inf keeps a row parked on its leaf (a NaN compares false and
  // takes `right`, which is also the leaf).
  feature_.push_back(0);
  threshold_.push_back(kInf);
  left_.push_back(self);
  right_.push_back(self);
  weight_.push_back(weight);
  gain_.push_back(0.0);
  depths_.back() = std::max(depths_.back(), depth);
  return self;
}

void Forest::ShrinkToFit() {
  feature_.shrink_to_fit();
  left_.shrink_to_fit();
  right_.shrink_to_fit();
  threshold_.shrink_to_fit();
  weight_.shrink_to_fit();
  gain_.shrink_to_fit();
  roots_.shrink_to_fit();
  depths_.shrink_to_fit();
}

std::int32_t Forest::Grow(const TrainingFrame& frame,
                          const std::vector<double>& grad,
                          const std::vector<double>& hess,
                          std::vector<std::size_t>& rows, std::size_t begin,
                          std::size_t end,
                          const std::vector<std::size_t>& features,
                          const TreeParams& params, int depth,
                          std::vector<std::uint8_t>& mask) {
  double g_total = 0.0, h_total = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_total += grad[rows[i]];
    h_total += hess[rows[i]];
  }

  const std::int32_t node_id =
      AddLeaf(NewtonWeight(g_total, h_total, params.lambda), depth);

  if (depth >= params.max_depth || end - begin < 2) return node_id;

  const bool exact = params.split_method == SplitMethod::kExact;
  if (exact) {
    for (std::size_t i = begin; i < end; ++i) mask[rows[i]] = 1;
  }
  const SplitDecision split = FindSplit(frame, grad, hess, rows, begin, end,
                                        features, params, g_total, h_total,
                                        mask);
  if (exact) {
    for (std::size_t i = begin; i < end; ++i) mask[rows[i]] = 0;
  }
  if (!split.found) return node_id;

  const std::size_t feature = split.feature;
  const double threshold = split.threshold;
  const double* values = frame.column(feature).values.data();
  auto middle = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return values[r] <= threshold; });
  const auto mid = static_cast<std::size_t>(middle - rows.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  const std::int32_t left = Grow(frame, grad, hess, rows, begin, mid,
                                 features, params, depth + 1, mask);
  const std::int32_t right = Grow(frame, grad, hess, rows, mid, end,
                                  features, params, depth + 1, mask);

  const auto node = static_cast<std::size_t>(node_id);
  feature_[node] = static_cast<std::int32_t>(feature);
  threshold_[node] = threshold;
  gain_[node] = split.gain;
  left_[node] = left;
  right_[node] = right;
  return node_id;
}

Forest::SplitDecision Forest::FindSplit(
    const TrainingFrame& frame, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end,
    const std::vector<std::size_t>& features, const TreeParams& params,
    double g_total, double h_total,
    const std::vector<std::uint8_t>& mask) const {
  const double parent_score = ScoreHalf(g_total, h_total, params.lambda);

  // Within a feature ties keep the earliest boundary, and across features
  // the strict > keeps the earliest feature.
  SplitDecision best;
  for (const std::size_t feature : features) {
    const SplitDecision candidate =
        params.split_method == SplitMethod::kExact
            ? ScanFeatureExact(frame, grad, hess, end - begin, feature,
                               params, g_total, h_total, parent_score, mask)
            : ScanFeatureHistogram(frame, grad, hess, rows, begin, end,
                                   feature, params, g_total, h_total,
                                   parent_score);
    if (candidate.found && (!best.found || candidate.gain > best.gain)) {
      best = candidate;
    }
  }
  if (best.found && best.gain <= 0.0) best.found = false;
  return best;
}

Forest::SplitDecision Forest::ScanFeatureExact(
    const TrainingFrame& frame, const std::vector<double>& grad,
    const std::vector<double>& hess, std::size_t node_size,
    std::size_t feature, const TreeParams& params, double g_total,
    double h_total, double parent_score,
    const std::vector<std::uint8_t>& mask) const {
  // The column's global (value, row) order filtered by the node mask IS
  // the node's members sorted by (value, row), so the walk visits every
  // boundary of the per-node sorted sequence without sorting the node.
  SplitDecision best;
  const FrameColumn& column = frame.column(feature);
  const double* values = column.values.data();
  double g_left = 0.0, h_left = 0.0;
  double prev_v = 0.0;
  std::size_t prev_r = 0;
  std::size_t seen = 0;
  for (const std::uint32_t r : column.order) {
    if (!mask[r]) continue;
    const double v = values[r];
    if (seen > 0) {
      // The previous member joins the left side, then the boundary between
      // it and the current member is evaluated — exactly the i / i+1
      // stepping of the sorted-pairs loop.
      g_left += grad[prev_r];
      h_left += hess[prev_r];
      if (prev_v != v) {
        const double g_right = g_total - g_left;
        const double h_right = h_total - h_left;
        if (h_left >= params.min_child_weight &&
            h_right >= params.min_child_weight) {
          const double gain =
              0.5 * (ScoreHalf(g_left, h_left, params.lambda) +
                     ScoreHalf(g_right, h_right, params.lambda) -
                     parent_score) -
              params.gamma;
          if (gain > best.gain || (!best.found && gain > 0.0)) {
            best.found = true;
            best.feature = feature;
            best.threshold = 0.5 * (prev_v + v);
            best.gain = gain;
          }
        }
      }
    }
    prev_v = v;
    prev_r = r;
    if (++seen == node_size) break;  // no members left past the last one
  }
  return best;
}

Forest::SplitDecision Forest::ScanFeatureHistogram(
    const TrainingFrame& frame, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end, std::size_t feature,
    const TreeParams& params, double g_total, double h_total,
    double parent_score) const {
  SplitDecision best;
  const auto bins =
      static_cast<std::size_t>(std::max(2, params.histogram_bins));
  const double* values = frame.column(feature).values.data();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = begin; i < end; ++i) {
    const double v = values[rows[i]];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!(hi > lo)) return best;

  std::vector<double> bin_g(bins, 0.0), bin_h(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = rows[i];
    auto b = static_cast<std::size_t>((values[r] - lo) / width);
    if (b >= bins) b = bins - 1;
    bin_g[b] += grad[r];
    bin_h[b] += hess[r];
  }

  double g_left = 0.0, h_left = 0.0;
  for (std::size_t b = 0; b + 1 < bins; ++b) {
    g_left += bin_g[b];
    h_left += bin_h[b];
    const double g_right = g_total - g_left;
    const double h_right = h_total - h_left;
    if (h_left < params.min_child_weight ||
        h_right < params.min_child_weight) {
      continue;
    }
    const double gain =
        0.5 * (ScoreHalf(g_left, h_left, params.lambda) +
               ScoreHalf(g_right, h_right, params.lambda) - parent_score) -
        params.gamma;
    if (gain > best.gain || (!best.found && gain > 0.0)) {
      best.found = true;
      best.feature = feature;
      best.threshold = lo + width * static_cast<double>(b + 1);
      best.gain = gain;
    }
  }
  return best;
}

std::int32_t Forest::LeafFor(std::size_t tree,
                             std::span<const double> row) const {
  auto node = static_cast<std::size_t>(roots_[tree]);
  while (!IsLeaf(node)) {
    node = static_cast<std::size_t>(
        row[static_cast<std::size_t>(feature_[node])] <= threshold_[node]
            ? left_[node]
            : right_[node]);
  }
  return static_cast<std::int32_t>(node);
}

double Forest::Predict(std::span<const double> row, double base,
                       double scale) const {
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    base += scale * weight_[static_cast<std::size_t>(LeafFor(t, row))];
  }
  return base;
}

void Forest::AddPredictions(const Matrix& x, double scale,
                            std::size_t first_tree,
                            std::span<double> out) const {
  const std::size_t n = x.rows();
  if (first_tree >= roots_.size() || n == 0) return;

  // Block of rows descends one tree at a time: every step reads one node
  // array entry per row (branch-free select), and per-row accumulation
  // stays in tree order — the exact FP sequence of Predict().
  constexpr std::size_t kBlock = 256;
  std::array<std::int32_t, kBlock> idx{};
  const std::size_t cols = x.cols();
  const double* xd = x.data().data();

  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t bn = std::min(kBlock, n - b0);
    for (std::size_t t = first_tree; t < roots_.size(); ++t) {
      const std::int32_t root = roots_[t];
      const int depth = depths_[t];
      for (std::size_t k = 0; k < bn; ++k) idx[k] = root;
      for (int d = 0; d < depth; ++d) {
        for (std::size_t k = 0; k < bn; ++k) {
          const auto node = static_cast<std::size_t>(idx[k]);
          const double v =
              xd[(b0 + k) * cols + static_cast<std::size_t>(feature_[node])];
          idx[k] = v <= threshold_[node] ? left_[node] : right_[node];
        }
      }
      for (std::size_t k = 0; k < bn; ++k) {
        out[b0 + k] += scale * weight_[static_cast<std::size_t>(idx[k])];
      }
    }
  }
}

void Forest::AddContributions(std::span<const double> row, double scale,
                              std::span<double> out) const {
  double base = out.back();
  for (const std::int32_t root : roots_) {
    auto node = static_cast<std::size_t>(root);
    base += weight_[node] * scale;
    while (!IsLeaf(node)) {
      const auto feature = static_cast<std::size_t>(feature_[node]);
      const auto child = static_cast<std::size_t>(
          row[feature] <= threshold_[node] ? left_[node] : right_[node]);
      out[feature] += (weight_[child] - weight_[node]) * scale;
      node = child;
    }
  }
  out.back() = base;
}

void Forest::AddGains(std::span<double> gains) const {
  for (std::size_t node = 0; node < feature_.size(); ++node) {
    if (!IsLeaf(node)) {
      gains[static_cast<std::size_t>(feature_[node])] += gain_[node];
    }
  }
}

std::size_t Forest::num_leaves() const {
  std::size_t leaves = 0;
  for (std::size_t node = 0; node < feature_.size(); ++node) {
    if (IsLeaf(node)) ++leaves;
  }
  return leaves;
}

void Forest::Save(std::ostream& out) const {
  out << std::setprecision(17);
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const std::int32_t root = roots_[t];
    const std::size_t end = t + 1 < roots_.size()
                                ? static_cast<std::size_t>(roots_[t + 1])
                                : feature_.size();
    out << "tree " << end - static_cast<std::size_t>(root) << "\n";
    for (auto node = static_cast<std::size_t>(root); node < end; ++node) {
      if (IsLeaf(node)) {
        out << "-1 -1 -1 0 " << weight_[node] << " 0\n";
      } else {
        out << feature_[node] << ' ' << left_[node] - root << ' '
            << right_[node] - root << ' ' << threshold_[node] << ' '
            << weight_[node] << ' ' << gain_[node] << "\n";
      }
    }
  }
}

StatusOr<Forest> Forest::Load(std::istream& in, std::size_t num_trees,
                              std::size_t num_features) {
  Forest forest;
  std::vector<int> node_depth;
  for (std::size_t t = 0; t < num_trees; ++t) {
    std::string tag;
    std::size_t count = 0;
    if (!(in >> tag >> count) || tag != "tree") {
      return Status::InvalidArgument("bad tree header");
    }
    // Node ids are int32 across the whole pool.
    if (count > 10'000'000 ||
        count > static_cast<std::size_t>(
                    std::numeric_limits<std::int32_t>::max()) -
                    forest.num_nodes()) {
      return Status::OutOfRange("implausible tree node count");
    }
    if (count == 0) return Status::InvalidArgument("empty tree");
    // Accept only what Save writes: a binary tree rooted at node 0 whose
    // children follow their parent and whose non-root nodes each have one
    // parent. Anything else lets a walk loop forever or read outside the
    // pool or the input row.
    const auto root = static_cast<std::int32_t>(forest.feature_.size());
    forest.roots_.push_back(root);
    forest.depths_.push_back(0);
    const auto limit = static_cast<std::int32_t>(count);
    for (std::int32_t i = 0; i < limit; ++i) {
      std::int32_t feature = 0, left = 0, right = 0;
      double threshold = 0.0, weight = 0.0, gain = 0.0;
      if (!(in >> feature >> left >> right >> threshold >> weight >> gain)) {
        return Status::InvalidArgument("truncated tree node list");
      }
      const std::int32_t node = forest.AddLeaf(weight, 0);
      if (feature < 0) {
        if (feature != -1 || left != -1 || right != -1) {
          return Status::InvalidArgument("tree leaf must read -1 -1 -1");
        }
        if (threshold != 0.0 || std::signbit(threshold) || gain != 0.0 ||
            std::signbit(gain)) {
          return Status::InvalidArgument(
              "tree leaf threshold and gain must read 0");
        }
        continue;
      }
      if (static_cast<std::size_t>(feature) >= num_features) {
        return Status::OutOfRange("tree split feature out of range");
      }
      for (const std::int32_t child : {left, right}) {
        if (child <= i || child >= limit) {
          return Status::OutOfRange("tree child index out of range");
        }
      }
      const auto n = static_cast<std::size_t>(node);
      forest.feature_[n] = feature;
      forest.threshold_[n] = threshold;
      forest.gain_[n] = gain;
      forest.left_[n] = root + left;
      forest.right_[n] = root + right;
    }
    // Every line has parsed, so the scratch is no larger than the input:
    // walk parents before children, giving each child its one parent's
    // depth + 1 (-1 marks a node no parent has named yet).
    node_depth.assign(count, -1);
    node_depth[0] = 0;
    int& depth = forest.depths_.back();
    for (std::size_t i = 0; i < count; ++i) {
      if (node_depth[i] < 0) {
        return Status::InvalidArgument("tree node unreachable from the root");
      }
      depth = std::max(depth, node_depth[i]);
      const std::size_t node = static_cast<std::size_t>(root) + i;
      if (forest.IsLeaf(node)) continue;
      for (const std::int32_t child :
           {forest.left_[node], forest.right_[node]}) {
        int& child_depth = node_depth[static_cast<std::size_t>(child - root)];
        if (child_depth >= 0) {
          return Status::InvalidArgument("tree node has two parents");
        }
        child_depth = node_depth[i] + 1;
      }
    }
  }
  forest.ShrinkToFit();
  return forest;
}

}  // namespace domd
