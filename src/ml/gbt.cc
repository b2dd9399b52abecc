#include "ml/gbt.h"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <unordered_map>

#include "common/rng.h"
#include "ml/columnar.h"
#include "obs/trace.h"

namespace domd {

Status GbtRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  DOMD_OBS_SPAN("gbt.fit");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  if (n == 0 || p == 0) {
    return Status::InvalidArgument("gbt: empty design matrix");
  }
  if (y.size() != n) {
    return Status::InvalidArgument("gbt: label/row count mismatch");
  }
  if (params_.num_rounds <= 0 || params_.learning_rate <= 0.0) {
    return Status::InvalidArgument("gbt: rounds and learning rate must be positive");
  }

  const TrainingFrame frame = TrainingFrame::FromMatrix(x);
  forest_ = Forest();
  training_curve_.clear();
  num_features_ = p;

  // Base score: mean for squared loss, the target quantile for pinball,
  // median otherwise (robust start).
  if (loss_.kind() == LossKind::kSquared) {
    base_score_ = std::accumulate(y.begin(), y.end(), 0.0) /
                  static_cast<double>(n);
  } else {
    std::vector<double> sorted = y;
    std::sort(sorted.begin(), sorted.end());
    const double level =
        loss_.kind() == LossKind::kQuantile ? loss_.tau() : 0.5;
    const auto index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(level * static_cast<double>(sorted.size())));
    base_score_ = sorted[index];
  }

  std::vector<double> predictions(n, base_score_);
  std::vector<double> grad(n), hess(n);
  Rng rng(params_.seed);

  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<std::size_t> all_features(p);
  std::iota(all_features.begin(), all_features.end(), 0);

  for (int round = 0; round < params_.num_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = loss_.Gradient(predictions[i], y[i]);
      hess[i] = loss_.Hessian(predictions[i], y[i]);
    }

    // Row subsampling.
    std::vector<std::size_t> rows;
    if (params_.subsample >= 1.0) {
      rows = all_rows;
    } else {
      rows.reserve(static_cast<std::size_t>(
          params_.subsample * static_cast<double>(n)) + 1);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(params_.subsample)) rows.push_back(i);
      }
      if (rows.size() < 2) rows = all_rows;
    }

    // Column subsampling.
    std::vector<std::size_t> features;
    if (params_.colsample >= 1.0) {
      features = all_features;
    } else {
      features.reserve(static_cast<std::size_t>(
          params_.colsample * static_cast<double>(p)) + 1);
      for (std::size_t f = 0; f < p; ++f) {
        if (rng.Bernoulli(params_.colsample)) features.push_back(f);
      }
      if (features.empty()) features = all_features;
    }

    {
      DOMD_OBS_SPAN("gbt.split_search");
      forest_.GrowTree(frame, grad, hess, rows, features, params_.tree);
    }
    const std::size_t tree = forest_.num_trees() - 1;

    // Zero-curvature losses (absolute, pinball): the Newton step under the
    // unit-Hessian surrogate is a tiny fixed-size move, so (as LightGBM
    // does for MAE) refine each leaf to the optimal order statistic of its
    // residuals — the median for l1, the tau-quantile for pinball.
    if (loss_.kind() == LossKind::kAbsolute ||
        loss_.kind() == LossKind::kQuantile) {
      const double level =
          loss_.kind() == LossKind::kQuantile ? loss_.tau() : 0.5;
      std::unordered_map<std::int32_t, std::vector<double>> leaf_residuals;
      for (std::size_t i : rows) {
        const std::int32_t leaf = forest_.LeafFor(tree, x.row(i));
        leaf_residuals[leaf].push_back(y[i] - predictions[i]);
      }
      for (auto& [leaf, residuals] : leaf_residuals) {
        std::sort(residuals.begin(), residuals.end());
        const auto index = std::min(
            residuals.size() - 1,
            static_cast<std::size_t>(level *
                                     static_cast<double>(residuals.size())));
        forest_.SetWeight(leaf, residuals[index]);
      }
    }

    forest_.AddPredictions(x, params_.learning_rate, tree, predictions);

    double loss_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      loss_sum += loss_.Value(predictions[i], y[i]);
    }
    training_curve_.push_back(loss_sum / static_cast<double>(n));
  }
  forest_.ShrinkToFit();
  return Status::OK();
}

double GbtRegressor::Predict(std::span<const double> row) const {
  return forest_.Predict(row, base_score_, params_.learning_rate);
}

std::vector<double> GbtRegressor::PredictBatch(const Matrix& x) const {
  std::vector<double> out(x.rows(), base_score_);
  forest_.AddPredictions(x, params_.learning_rate, 0, out);
  return out;
}

std::vector<double> GbtRegressor::FeatureImportances() const {
  std::vector<double> gains(num_features_, 0.0);
  forest_.AddGains(gains);
  return gains;
}

void WriteGbtParams(std::ostream& out, const GbtParams& params) {
  out << params.num_rounds << ' ' << params.learning_rate << ' '
      << params.tree.max_depth << ' ' << params.tree.min_child_weight << ' '
      << params.tree.lambda << ' ' << params.tree.gamma << ' '
      << static_cast<int>(params.tree.split_method) << ' '
      << params.tree.histogram_bins << ' ' << params.subsample << ' '
      << params.colsample << ' ' << params.seed;
}

Status ReadGbtParams(std::istream& in, const std::string& record,
                     GbtParams* params) {
  int split_method = 0;
  if (!(in >> params->num_rounds >> params->learning_rate >>
        params->tree.max_depth >> params->tree.min_child_weight >>
        params->tree.lambda >> params->tree.gamma >> split_method >>
        params->tree.histogram_bins >> params->subsample >>
        params->colsample >> params->seed)) {
    return Status::InvalidArgument("bad " + record + " record");
  }
  return ReadEnum(split_method, SplitMethod::kHistogram,
                  (record + " split method").c_str(),
                  &params->tree.split_method);
}

void GbtRegressor::Save(std::ostream& out) const {
  out << std::setprecision(17);
  out << "gbt v1\n";
  out << "loss " << static_cast<int>(loss_.kind()) << ' ' << loss_.delta()
      << "\n";
  out << "params ";
  WriteGbtParams(out, params_);
  out << "\nmodel " << base_score_ << ' ' << num_features_ << ' '
      << forest_.num_trees() << "\n";
  forest_.Save(out);
}

StatusOr<GbtRegressor> GbtRegressor::Load(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "gbt" || version != "v1") {
    return Status::InvalidArgument("bad GBT header");
  }
  int loss_kind = 0;
  double delta = 0.0;
  if (!(in >> tag >> loss_kind >> delta) || tag != "loss") {
    return Status::InvalidArgument("bad GBT loss record");
  }
  if (!(in >> tag) || tag != "params") {
    return Status::InvalidArgument("bad GBT params record");
  }
  GbtParams params;
  DOMD_RETURN_IF_ERROR(ReadGbtParams(in, "GBT params", &params));
  LossKind kind = LossKind::kSquared;
  DOMD_RETURN_IF_ERROR(
      ReadEnum(loss_kind, LossKind::kQuantile, "GBT loss", &kind));

  GbtRegressor model(params, Loss::FromKind(kind, delta));
  std::size_t num_trees = 0;
  if (!(in >> tag >> model.base_score_ >> model.num_features_ >> num_trees) ||
      tag != "model") {
    return Status::InvalidArgument("bad GBT model record");
  }
  if (num_trees > 1'000'000) {
    return Status::OutOfRange("implausible GBT tree count");
  }
  auto forest = Forest::Load(in, num_trees, model.num_features_);
  if (!forest.ok()) return forest.status();
  model.forest_ = std::move(*forest);
  return model;
}

std::vector<double> GbtRegressor::Contributions(
    std::span<const double> row) const {
  std::vector<double> contributions(num_features_ + 1, 0.0);
  contributions.back() = base_score_;
  forest_.AddContributions(row, params_.learning_rate, contributions);
  return contributions;
}

}  // namespace domd
