#ifndef DOMD_ML_GBT_H_
#define DOMD_ML_GBT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "ml/loss.h"
#include "ml/model.h"
#include "ml/tree.h"

namespace domd {

/// Gradient-boosted-trees hyperparameters (the pipeline's XGBoost stand-in).
/// These are the knobs AutoHPT searches over (§3.2.4).
struct GbtParams {
  int num_rounds = 150;
  double learning_rate = 0.1;
  TreeParams tree;
  double subsample = 1.0;    ///< Row sampling fraction per round.
  double colsample = 1.0;    ///< Feature sampling fraction per round.
  std::uint64_t seed = 7;    ///< Sampling seed.
};

/// Writes the 11 GbtParams fields space-separated, at the stream's
/// precision and without a newline: the record a pipeline config and a GBT
/// model file share.
void WriteGbtParams(std::ostream& out, const GbtParams& params);

/// Reads a record WriteGbtParams wrote. InvalidArgument "bad <record>
/// record" when a field does not parse, and one naming "<record> split
/// method" when that field names no SplitMethod.
Status ReadGbtParams(std::istream& in, const std::string& record,
                     GbtParams* params);

/// Second-order gradient boosting over regression trees with a pluggable
/// loss (squared / absolute / Pseudo-Huber). Each round fits a tree to the
/// loss's gradients and Hessians at the current predictions and advances by
/// learning_rate — functionally the XGBoost training scheme the paper uses.
class GbtRegressor final : public Regressor {
 public:
  explicit GbtRegressor(const GbtParams& params = {},
                        Loss loss = Loss::Squared())
      : params_(params), loss_(loss) {}

  /// Builds a TrainingFrame from x (every column of x sorted once per fit,
  /// so callers pass only the columns the model reads) and grows each
  /// round's tree over it into the forest, replacing any earlier fit.
  /// Prediction updates and leaf refinement route x's rows through the
  /// forest serving reads.
  Status Fit(const Matrix& x, const std::vector<double>& y) override;

  double Predict(std::span<const double> row) const override;

  /// Breadth-first batch scorer (Forest::AddPredictions): descends all
  /// rows of a block through one tree at a time. It only reads the model,
  /// so one const model may score from many threads. Bit-identical to
  /// calling Predict per row — per-row accumulation stays in tree order.
  std::vector<double> PredictBatch(const Matrix& x) const override;
  /// Total split gain per feature across the ensemble.
  std::vector<double> FeatureImportances() const override;
  /// Saabas path attribution summed over all trees; exact decomposition of
  /// Predict(row) into per-feature terms plus the base score.
  std::vector<double> Contributions(
      std::span<const double> row) const override;
  std::size_t num_features() const override { return num_features_; }

  const GbtParams& params() const { return params_; }
  const Loss& loss() const { return loss_; }
  std::size_t num_trees() const { return forest_.num_trees(); }
  double base_score() const { return base_score_; }
  /// Training-set loss after each round (length = num_trees()).
  const std::vector<double>& training_curve() const {
    return training_curve_;
  }

  /// Serializes the fitted ensemble (params, loss, base score, trees) as
  /// text. The training curve is not persisted.
  void Save(std::ostream& out) const;

  /// Reads an ensemble written by Save().
  static StatusOr<GbtRegressor> Load(std::istream& in);

 private:
  GbtParams params_;
  Loss loss_;
  Forest forest_;
  double base_score_ = 0.0;
  std::size_t num_features_ = 0;
  std::vector<double> training_curve_;
};

}  // namespace domd

#endif  // DOMD_ML_GBT_H_
