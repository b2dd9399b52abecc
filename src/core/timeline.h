#ifndef DOMD_CORE_TIMELINE_H_
#define DOMD_CORE_TIMELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/fusion.h"
#include "data/tables.h"
#include "features/feature_engineer.h"
#include "features/feature_tensor.h"
#include "ml/model.h"

namespace domd {

/// A modeling-ready view of a set of avails: static features, the dynamic
/// feature tensor over the logical-time grid, and delay labels (NaN-free:
/// only closed avails belong in views used for fitting/evaluation). Views
/// are row-major only; a GBT fit columnarizes just the columns its step
/// model reads (TimelineModelSet::Fit), so scoring never pays for it.
struct ModelingView {
  std::vector<std::int64_t> avail_ids;
  Matrix static_x;        ///< avails x |static features|.
  FeatureTensor dynamic;  ///< avails x |catalog| per grid step.
  std::vector<double> labels;

  std::size_t num_steps() const { return dynamic.num_steps(); }
};

/// Builds a ModelingView for the given avails (labels 0 for non-closed).
/// Feature engineering honors `parallelism` (bit-identical at any count).
ModelingView BuildModelingView(const Dataset& data,
                               const FeatureEngineer& engineer,
                               const std::vector<std::int64_t>& avail_ids,
                               const std::vector<double>& grid,
                               const Parallelism& parallelism = {});

/// The trained model set answering DoMD queries: one supervised model per
/// logical-time grid point (1 + ceil(100/x) models), plus — under the
/// stacked architecture — a static base model whose prediction feeds every
/// timeline model (§3.2.2, Fig. 4).
class TimelineModelSet {
 public:
  TimelineModelSet() = default;

  /// Fits per-step models per the config: per-step feature selection over
  /// dynamic features (statics always included), model family, loss, and
  /// architecture. `train` must carry labels.
  Status Fit(const PipelineConfig& config, const ModelingView& train,
             const std::vector<std::string>& dynamic_feature_names);

  /// Raw per-step predictions for every avail in the view:
  /// result[step][row]. Batched: assembles one input matrix per step and
  /// scores it through Regressor::PredictBatch — bit-identical to calling
  /// BuildInputRow + Predict row by row.
  std::vector<std::vector<double>> PredictPerStep(
      const ModelingView& view) const;

  /// Fused prediction for each avail using steps 0..last_step inclusive.
  std::vector<double> PredictFused(const ModelingView& view,
                                   std::size_t last_step,
                                   FusionMethod fusion) const;

  /// Per-step model input row for one view row (statics + selected dynamics
  /// [+ base prediction under stacking]); used for attribution.
  std::vector<double> BuildInputRow(const ModelingView& view,
                                    std::size_t row, std::size_t step) const;

  /// The model at a step (after Fit).
  const Regressor& model(std::size_t step) const { return *models_[step]; }
  /// Names of the model inputs at a step, aligned with BuildInputRow.
  const std::vector<std::string>& input_names(std::size_t step) const {
    return input_names_[step];
  }
  /// Selected dynamic feature columns at a step.
  const std::vector<std::size_t>& selected_features(std::size_t step) const {
    return selected_[step];
  }
  std::size_t num_steps() const { return models_.size(); }
  /// The configuration the set was fitted (or loaded) with.
  const PipelineConfig& config() const { return config_; }
  bool is_stacked() const { return base_model_ != nullptr; }
  const Regressor* base_model() const { return base_model_.get(); }

  /// Serializes the fitted model set (config, selections, input names, and
  /// every model) as text.
  Status Save(std::ostream& out) const;

  /// Reads a model set written by Save() that will score views with
  /// `num_static` static and `num_dynamic` dynamic feature columns.
  /// kInvalidArgument when a selected column is >= num_dynamic, or a model
  /// reads more features than the input row it is fed: num_static for the
  /// stacked base model, else num_static + |selected| (flat) or
  /// |selected| + 1 (stacked).
  static StatusOr<TimelineModelSet> Load(std::istream& in,
                                         std::size_t num_static,
                                         std::size_t num_dynamic);

 private:
  std::unique_ptr<Regressor> MakeModel(const PipelineConfig& config) const;

  /// Row-major input matrix for one step over every view row, laid out
  /// exactly like BuildInputRow. `base_pred` is the precomputed base-model
  /// prediction per row (stacked architecture only; ignored otherwise).
  Matrix BuildInputMatrix(const ModelingView& view, std::size_t step,
                          const std::vector<double>& base_pred) const;

  PipelineConfig config_;
  std::unique_ptr<Regressor> base_model_;  ///< stacked architecture only.
  std::vector<std::unique_ptr<Regressor>> models_;
  std::vector<std::vector<std::size_t>> selected_;
  std::vector<std::vector<std::string>> input_names_;
};

/// Sum over steps and avails of |d_i - prediction| (Problem 2's objective)
/// divided by (#steps * #avails): the mean validation MAE used to compare
/// pipeline parameter settings. When `fusion` is not kNone, predictions at
/// each step are fused over the prefix of steps first.
double TimelineValidationMae(const TimelineModelSet& models,
                             const ModelingView& validation,
                             FusionMethod fusion);

}  // namespace domd

#endif  // DOMD_CORE_TIMELINE_H_
