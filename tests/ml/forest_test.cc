// Every walk of a GBT's forest against a reference that reads nothing but
// the model's Save text: Predict, PredictBatch, Saabas Contributions and
// gain importances must match it bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ml/gbt.h"

namespace domd {
namespace {

/// A GBT walked straight from its "gbt v1" text, one node list per tree
/// with tree-local child indices and -1 marking a leaf — the format
/// TreeReferenceTest's ReferenceGrower prints. Written independently of
/// Forest's pool: it follows the text's links until a node has no
/// children.
class TextForest {
 public:
  explicit TextForest(const std::string& text) {
    std::istringstream in(text);
    std::string word;
    in >> word >> word;          // gbt v1
    in >> word >> word >> word;  // loss <kind> <delta>
    // params <rounds> <learning rate> and nine more fields.
    in >> word >> word >> learning_rate_;
    for (int field = 0; field < 9; ++field) in >> word;
    std::size_t num_trees = 0;
    in >> word >> base_score_ >> num_features_ >> num_trees;
    trees_.resize(num_trees);
    for (std::vector<Node>& tree : trees_) {
      std::size_t count = 0;
      in >> word >> count;
      tree.resize(count);
      for (Node& node : tree) {
        in >> node.feature >> node.left >> node.right >> node.threshold >>
            node.weight >> node.gain;
      }
    }
    EXPECT_TRUE(in) << "unreadable model text";
  }

  double Predict(std::span<const double> row) const {
    double value = base_score_;
    for (const std::vector<Node>& tree : trees_) {
      std::int32_t node = 0;
      while (tree[node].feature >= 0) node = Child(tree[node], row);
      value += learning_rate_ * tree[node].weight;
    }
    return value;
  }

  std::vector<double> Contributions(std::span<const double> row) const {
    std::vector<double> out(num_features_ + 1, 0.0);
    double base = base_score_;
    for (const std::vector<Node>& tree : trees_) {
      base += tree[0].weight * learning_rate_;
      std::int32_t node = 0;
      while (tree[node].feature >= 0) {
        const std::int32_t child = Child(tree[node], row);
        out[tree[node].feature] +=
            (tree[child].weight - tree[node].weight) * learning_rate_;
        node = child;
      }
    }
    out.back() = base;
    return out;
  }

  std::vector<double> Importances() const {
    std::vector<double> gains(num_features_, 0.0);
    for (const std::vector<Node>& tree : trees_) {
      for (const Node& node : tree) {
        if (node.feature >= 0) gains[node.feature] += node.gain;
      }
    }
    return gains;
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

  static std::int32_t Child(const Node& node, std::span<const double> row) {
    return row[node.feature] <= node.threshold ? node.left : node.right;
  }

  double learning_rate_ = 0.0;
  double base_score_ = 0.0;
  std::size_t num_features_ = 0;
  std::vector<std::vector<Node>> trees_;
};

// Bitwise equality: NaN == NaN and -0.0 != 0.0.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      x.at(r, c) = rng.Uniform() * 10.0 - 5.0;
    }
  }
  return x;
}

/// Probe rows: random values with a NaN in every third row, which every
/// split routes right.
Matrix ProbeWithNans(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix x = RandomMatrix(rows, cols, seed);
  for (std::size_t r = 0; r < rows; r += 3) {
    x.at(r, (r / 3) % cols) = std::numeric_limits<double>::quiet_NaN();
  }
  return x;
}

GbtRegressor TrainedModel(Loss loss, std::uint64_t seed) {
  const Matrix x = RandomMatrix(300, 7, seed);
  Rng rng(seed + 1);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y[r] = 4.0 * x.at(r, 0) - x.at(r, 3) * x.at(r, 5) + rng.Gaussian();
  }
  GbtParams params;
  params.num_rounds = 40;
  params.tree.max_depth = 5;
  params.subsample = 0.8;
  params.colsample = 0.7;
  GbtRegressor model(params, loss);
  EXPECT_TRUE(model.Fit(x, y).ok());
  return model;
}

std::string SavedText(const GbtRegressor& model) {
  std::ostringstream text;
  model.Save(text);
  return text.str();
}

/// Rows of `probe` on which some walk of `model` differs from `reference`
/// in any bit.
int Mismatches(const GbtRegressor& model, const TextForest& reference,
               const Matrix& probe) {
  int mismatches = 0;
  const std::vector<double> batch = model.PredictBatch(probe);
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    const double expected = reference.Predict(probe.row(r));
    if (!SameBits(model.Predict(probe.row(r)), expected) ||
        !SameBits(batch[r], expected) ||
        !SameBits(model.Contributions(probe.row(r)),
                  reference.Contributions(probe.row(r)))) {
      ++mismatches;
    }
  }
  if (!SameBits(model.FeatureImportances(), reference.Importances())) {
    ++mismatches;
  }
  return mismatches;
}

std::vector<Loss> Losses() {
  // Absolute loss refines its leaves to residual medians after growing.
  return {Loss::Squared(), Loss::PseudoHuber(18.0), Loss::Absolute()};
}

TEST(ForestWalkTest, EveryWalkMatchesTheTextReference) {
  std::uint64_t seed = 3;
  for (const Loss& loss : Losses()) {
    const GbtRegressor model = TrainedModel(loss, seed);
    const std::string text = SavedText(model);
    const TextForest reference(text);
    const Matrix probe = ProbeWithNans(257, 7, seed + 10);
    const int kind = static_cast<int>(loss.kind());
    EXPECT_EQ(Mismatches(model, reference, probe), 0) << "loss " << kind;

    std::istringstream in(text);
    const auto loaded = GbtRegressor::Load(in);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(Mismatches(*loaded, reference, probe), 0) << "loss " << kind;
    seed += 100;
  }
}

TEST(BatchPredict, EveryWalkMatchesTheTextReferenceFromFourThreads) {
  for (const Loss& loss : Losses()) {
    const GbtRegressor model = TrainedModel(loss, 41);
    const TextForest reference(SavedText(model));
    std::vector<Matrix> probes;
    for (std::uint64_t t = 0; t < 4; ++t) {
      probes.push_back(ProbeWithNans(90 + 37 * t, 7, 43 + t));
    }
    std::vector<int> mismatches(4, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int pass = 0; pass < 5; ++pass) {
          mismatches[t] += Mismatches(model, reference, probes[t]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches, std::vector<int>(4, 0))
        << "loss " << static_cast<int>(loss.kind());
  }
}

}  // namespace
}  // namespace domd
