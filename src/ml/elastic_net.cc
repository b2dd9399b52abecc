#include "ml/elastic_net.h"

#include <cmath>
#include <iomanip>

namespace domd {
namespace {

double SoftThreshold(double z, double gamma) {
  if (z > gamma) return z - gamma;
  if (z < -gamma) return z + gamma;
  return 0.0;
}

}  // namespace

Status ElasticNetRegression::Fit(const Matrix& x,
                                 const std::vector<double>& y) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  if (n == 0 || p == 0) {
    return Status::InvalidArgument("elastic net: empty design matrix");
  }
  if (y.size() != n) {
    return Status::InvalidArgument("elastic net: label/row count mismatch");
  }

  // Standardize columns; constant columns get scale 1 (coefficient will
  // shrink to zero anyway).
  std::vector<double> mean(p, 0.0), scale(p, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < p; ++c) mean[c] += row[c];
  }
  for (std::size_t c = 0; c < p; ++c) mean[c] /= static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < p; ++c) {
      const double d = row[c] - mean[c];
      scale[c] += d * d;
    }
  }
  for (std::size_t c = 0; c < p; ++c) {
    scale[c] = std::sqrt(scale[c] / static_cast<double>(n));
    if (scale[c] <= 1e-12) scale[c] = 1.0;
  }

  double y_mean = 0.0;
  for (double v : y) y_mean += v;
  y_mean /= static_cast<double>(n);

  // Column-major standardized copy for cache-friendly coordinate sweeps.
  std::vector<double> xs(n * p);
  for (std::size_t c = 0; c < p; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      xs[c * n + r] = (x.at(r, c) - mean[c]) / scale[c];
    }
  }

  std::vector<double> beta(p, 0.0);
  std::vector<double> residual(n);
  for (std::size_t r = 0; r < n; ++r) residual[r] = y[r] - y_mean;

  const double alpha = params_.alpha;
  const double l1 = alpha * params_.l1_ratio;
  const double l2 = alpha * (1.0 - params_.l1_ratio);
  const double inv_n = 1.0 / static_cast<double>(n);

  iterations_used_ = 0;
  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (std::size_t c = 0; c < p; ++c) {
      const double* col = &xs[c * n];
      // Partial residual correlation: (1/n) x_c . (residual + x_c beta_c).
      double rho = 0.0;
      for (std::size_t r = 0; r < n; ++r) rho += col[r] * residual[r];
      rho = rho * inv_n + beta[c];  // columns have unit variance
      const double updated = SoftThreshold(rho, l1) / (1.0 + l2);
      const double delta = updated - beta[c];
      if (delta != 0.0) {
        for (std::size_t r = 0; r < n; ++r) residual[r] -= delta * col[r];
        beta[c] = updated;
      }
      max_delta = std::max(max_delta, std::fabs(delta));
    }
    iterations_used_ = iter + 1;
    if (max_delta < params_.tolerance) break;
  }

  // Back-transform to original units.
  coef_.assign(p, 0.0);
  intercept_ = y_mean;
  for (std::size_t c = 0; c < p; ++c) {
    coef_[c] = beta[c] / scale[c];
    intercept_ -= coef_[c] * mean[c];
  }
  feature_means_ = std::move(mean);
  return Status::OK();
}

double ElasticNetRegression::Predict(std::span<const double> row) const {
  double value = intercept_;
  const std::size_t p = std::min(coef_.size(), row.size());
  for (std::size_t c = 0; c < p; ++c) value += coef_[c] * row[c];
  return value;
}

std::vector<double> ElasticNetRegression::FeatureImportances() const {
  std::vector<double> importances(coef_.size());
  for (std::size_t c = 0; c < coef_.size(); ++c) {
    importances[c] = std::fabs(coef_[c]);
  }
  return importances;
}

void WriteElasticNetParams(std::ostream& out,
                           const ElasticNetParams& params) {
  out << params.alpha << ' ' << params.l1_ratio << ' '
      << params.max_iterations << ' ' << params.tolerance;
}

Status ReadElasticNetParams(std::istream& in, const std::string& record,
                            ElasticNetParams* params) {
  if (!(in >> params->alpha >> params->l1_ratio >> params->max_iterations >>
        params->tolerance)) {
    return Status::InvalidArgument("bad " + record + " record");
  }
  return Status::OK();
}

void ElasticNetRegression::Save(std::ostream& out) const {
  out << std::setprecision(17);
  out << "elastic_net v1\n";
  out << "params ";
  WriteElasticNetParams(out, params_);
  out << "\nmodel " << intercept_ << ' ' << coef_.size() << "\n";
  for (std::size_t c = 0; c < coef_.size(); ++c) {
    out << coef_[c] << ' ' << feature_means_[c] << "\n";
  }
}

StatusOr<ElasticNetRegression> ElasticNetRegression::Load(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "elastic_net" || version != "v1") {
    return Status::InvalidArgument("bad elastic net header");
  }
  if (!(in >> tag) || tag != "params") {
    return Status::InvalidArgument("bad elastic net params record");
  }
  ElasticNetParams params;
  DOMD_RETURN_IF_ERROR(
      ReadElasticNetParams(in, "elastic net params", &params));
  ElasticNetRegression model(params);
  std::size_t count = 0;
  if (!(in >> tag >> model.intercept_ >> count) || tag != "model") {
    return Status::InvalidArgument("bad elastic net model record");
  }
  if (count > 100'000'000) {
    return Status::OutOfRange("implausible coefficient count");
  }
  // Grow as records parse: the count alone must not size a buffer.
  for (std::size_t c = 0; c < count; ++c) {
    double coef = 0.0, mean = 0.0;
    if (!(in >> coef >> mean)) {
      return Status::InvalidArgument("truncated coefficient list");
    }
    model.coef_.push_back(coef);
    model.feature_means_.push_back(mean);
  }
  return model;
}

std::vector<double> ElasticNetRegression::Contributions(
    std::span<const double> row) const {
  // Center contributions at the training feature means so the bias term is
  // the prediction for an average instance.
  std::vector<double> out(coef_.size() + 1, 0.0);
  double base = intercept_;
  for (std::size_t c = 0; c < coef_.size(); ++c) {
    base += coef_[c] * feature_means_[c];
    out[c] = coef_[c] * (row[c] - feature_means_[c]);
  }
  out.back() = base;
  return out;
}

}  // namespace domd
