#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ml/gbt.h"

namespace domd {
namespace {

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

GbtRegressor TrainedModel(const Matrix& x, Loss loss, int depth,
                          int rounds = 30) {
  Rng rng(99);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y[r] = x.at(r, 0) * 3.0 + rng.Uniform();
  }
  GbtParams params;
  params.num_rounds = rounds;
  params.tree.max_depth = depth;
  GbtRegressor model(params, loss);
  EXPECT_TRUE(model.Fit(x, y).ok());
  return model;
}

void ExpectBatchMatchesPerRow(const GbtRegressor& model, const Matrix& x) {
  const std::vector<double> batch = model.PredictBatch(x);
  ASSERT_EQ(batch.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double row = model.Predict(x.row(r));
    if (std::isnan(row)) {
      EXPECT_TRUE(std::isnan(batch[r])) << "row " << r;
    } else {
      EXPECT_EQ(row, batch[r]) << "row " << r;
    }
  }
}

TEST(BatchPredict, BitIdenticalToPerRowTraversal) {
  const Matrix train = RandomMatrix(200, 9, 3);
  const GbtRegressor model = TrainedModel(train, Loss::Squared(), 4);
  ExpectBatchMatchesPerRow(model, train);
  ExpectBatchMatchesPerRow(model, RandomMatrix(513, 9, 5));
}

TEST(BatchPredict, DeepAndShallowTrees) {
  const Matrix train = RandomMatrix(300, 6, 13);
  ExpectBatchMatchesPerRow(TrainedModel(train, Loss::PseudoHuber(18.0), 1),
                           RandomMatrix(100, 6, 17));
  ExpectBatchMatchesPerRow(TrainedModel(train, Loss::Absolute(), 6),
                           RandomMatrix(100, 6, 19));
}

TEST(BatchPredict, NanFeaturesRouteRightInBothPaths) {
  const Matrix train = RandomMatrix(150, 4, 23);
  const GbtRegressor model = TrainedModel(train, Loss::Squared(), 3);
  Matrix probe = RandomMatrix(64, 4, 29);
  for (std::size_t r = 0; r < probe.rows(); r += 3) {
    probe.at(r, r % 4) = std::numeric_limits<double>::quiet_NaN();
  }
  ExpectBatchMatchesPerRow(model, probe);
}

TEST(BatchPredict, OddBlockSizesAndSingleRow) {
  const Matrix train = RandomMatrix(120, 5, 31);
  const GbtRegressor model = TrainedModel(train, Loss::Squared(), 3);
  ExpectBatchMatchesPerRow(model, RandomMatrix(1, 5, 37));
  ExpectBatchMatchesPerRow(model, RandomMatrix(3, 5, 41));
  ExpectBatchMatchesPerRow(model, RandomMatrix(255, 5, 43));
  ExpectBatchMatchesPerRow(model, RandomMatrix(257, 5, 47));
}

TEST(BatchPredict, EmptyMatrixYieldsEmpty) {
  const Matrix train = RandomMatrix(80, 3, 53);
  const GbtRegressor model = TrainedModel(train, Loss::Squared(), 2);
  EXPECT_TRUE(model.PredictBatch(Matrix(0, 3)).empty());
}

// Bitwise equality: NaN == NaN and -0.0 != 0.0.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(BatchPredict, LoadedModelScoresAsItsSource) {
  const Matrix train = RandomMatrix(200, 7, 61);
  const GbtRegressor model = TrainedModel(train, Loss::PseudoHuber(18.0), 4);
  std::stringstream text;
  model.Save(text);
  auto loaded = GbtRegressor::Load(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Matrix probe = RandomMatrix(300, 7, 67);
  ExpectBatchMatchesPerRow(*loaded, probe);
  EXPECT_TRUE(SameBits(loaded->PredictBatch(probe), model.PredictBatch(probe)));
}

TEST(BatchPredict, CopiedAndMovedModelsScoreAsTheirSource) {
  const Matrix train = RandomMatrix(160, 5, 71);
  const Matrix probe = RandomMatrix(130, 5, 73);
  GbtRegressor source = TrainedModel(train, Loss::Squared(), 3);
  const std::vector<double> expected = source.PredictBatch(probe);

  const GbtRegressor copy(source);
  ExpectBatchMatchesPerRow(copy, probe);
  EXPECT_TRUE(SameBits(copy.PredictBatch(probe), expected));

  GbtRegressor assigned;
  assigned = copy;
  EXPECT_TRUE(SameBits(assigned.PredictBatch(probe), expected));

  const GbtRegressor moved(std::move(source));
  ExpectBatchMatchesPerRow(moved, probe);
  EXPECT_TRUE(SameBits(moved.PredictBatch(probe), expected));

  GbtRegressor move_assigned = TrainedModel(probe, Loss::Absolute(), 2, 5);
  move_assigned = std::move(assigned);
  ExpectBatchMatchesPerRow(move_assigned, probe);
  EXPECT_TRUE(SameBits(move_assigned.PredictBatch(probe), expected));
}

TEST(BatchPredict, RefitReplacesTheFlatForest) {
  // A refit must replace the flattened forest, not append to it: the
  // second fit's batch scores must match its own trees, and a fresh model
  // fitted on the same data.
  const Matrix first = RandomMatrix(150, 6, 79);
  const Matrix second = RandomMatrix(220, 6, 83);
  std::vector<double> y_second(second.rows());
  for (std::size_t r = 0; r < second.rows(); ++r) {
    y_second[r] = second.at(r, 2) * second.at(r, 3);
  }
  GbtParams params;
  params.num_rounds = 25;
  params.tree.max_depth = 4;
  GbtRegressor refit(params);
  std::vector<double> y_first(first.rows());
  for (std::size_t r = 0; r < first.rows(); ++r) y_first[r] = first.at(r, 0);
  ASSERT_TRUE(refit.Fit(first, y_first).ok());
  ASSERT_TRUE(refit.Fit(second, y_second).ok());
  GbtRegressor fresh(params);
  ASSERT_TRUE(fresh.Fit(second, y_second).ok());

  const Matrix probe = RandomMatrix(257, 6, 89);
  ExpectBatchMatchesPerRow(refit, probe);
  EXPECT_TRUE(SameBits(refit.PredictBatch(probe), fresh.PredictBatch(probe)));
}

TEST(BatchPredict, OneConstModelScoresFromFourThreads) {
  const Matrix train = RandomMatrix(240, 8, 97);
  const GbtRegressor model = TrainedModel(train, Loss::Squared(), 5, 60);
  std::vector<Matrix> probes;
  std::vector<std::vector<double>> expected;
  for (std::uint64_t t = 0; t < 4; ++t) {
    probes.push_back(RandomMatrix(100 + 61 * t, 8, 101 + t));
    std::vector<double> rows(probes.back().rows());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      rows[r] = model.Predict(probes.back().row(r));
    }
    expected.push_back(std::move(rows));
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 20; ++pass) {
        if (!SameBits(model.PredictBatch(probes[t]), expected[t])) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(BatchPredict, VirtualDispatchThroughRegressorBase) {
  const Matrix train = RandomMatrix(90, 4, 59);
  auto model = std::make_unique<GbtRegressor>();
  std::vector<double> y(train.rows());
  for (std::size_t r = 0; r < y.size(); ++r) y[r] = train.at(r, 1);
  ASSERT_TRUE(model->Fit(train, y).ok());
  const Regressor* base = model.get();
  const std::vector<double> via_base = base->PredictBatch(train);
  const std::vector<double> direct = model->PredictBatch(train);
  EXPECT_EQ(via_base, direct);
}

}  // namespace
}  // namespace domd
