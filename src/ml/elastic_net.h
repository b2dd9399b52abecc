#ifndef DOMD_ML_ELASTIC_NET_H_
#define DOMD_ML_ELASTIC_NET_H_

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "ml/model.h"

namespace domd {

/// Elastic-Net linear regression (the paper's tuned "Linear Regression"
/// baseline, §5.2.2): coordinate descent on standardized features against
///   (1/2n) ||y - Xb||^2 + alpha * (l1_ratio ||b||_1
///                                 + (1 - l1_ratio)/2 ||b||^2).
struct ElasticNetParams {
  double alpha = 1.0;      ///< Overall regularization strength.
  double l1_ratio = 0.5;   ///< 1.0 = lasso, 0.0 = ridge.
  int max_iterations = 1000;
  double tolerance = 1e-6; ///< Max coefficient delta to declare convergence.
};

/// Writes the 4 ElasticNetParams fields space-separated, at the stream's
/// precision and without a newline: the record a pipeline config and an
/// elastic-net model file share.
void WriteElasticNetParams(std::ostream& out, const ElasticNetParams& params);

/// Reads a record WriteElasticNetParams wrote; InvalidArgument "bad
/// <record> record" when a field does not parse.
Status ReadElasticNetParams(std::istream& in, const std::string& record,
                            ElasticNetParams* params);

class ElasticNetRegression final : public Regressor {
 public:
  explicit ElasticNetRegression(const ElasticNetParams& params = {})
      : params_(params) {}

  Status Fit(const Matrix& x, const std::vector<double>& y) override;
  double Predict(std::span<const double> row) const override;
  std::vector<double> FeatureImportances() const override;
  std::vector<double> Contributions(
      std::span<const double> row) const override;
  std::size_t num_features() const override { return coef_.size(); }

  /// Coefficients in original (unstandardized) feature units.
  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  /// Number of coordinate-descent sweeps the last Fit used.
  int iterations_used() const { return iterations_used_; }

  /// Serializes the fitted model as text.
  void Save(std::ostream& out) const;

  /// Reads a model written by Save().
  static StatusOr<ElasticNetRegression> Load(std::istream& in);

 private:
  ElasticNetParams params_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  std::vector<double> feature_means_;
  int iterations_used_ = 0;
};

}  // namespace domd

#endif  // DOMD_ML_ELASTIC_NET_H_
