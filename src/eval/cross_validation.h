#ifndef DOMD_EVAL_CROSS_VALIDATION_H_
#define DOMD_EVAL_CROSS_VALIDATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/timeline.h"
#include "ml/metrics.h"

namespace domd {

class DataSnapshot;

/// Cross-validation options.
struct CvOptions {
  int num_folds = 5;
  std::uint64_t seed = 7;
  /// Logical-time grid width for the timeline models.
  double window_width_pct = 25.0;
};

/// One fold's outcome.
struct FoldResult {
  std::vector<std::int64_t> held_out_ids;
  EvalMetrics metrics;  ///< fused predictions at t* = 100% vs true delays.
};

/// Aggregate cross-validation outcome.
struct CvResult {
  std::vector<FoldResult> folds;
  EvalMetrics mean;      ///< per-metric mean across folds.
  double mae_stddev = 0; ///< dispersion of MAE100 across folds.
};

/// K-fold cross-validation of a pipeline configuration over the dataset's
/// closed avails. The feature tensor is engineered once and sliced per
/// fold; each fold trains a fresh timeline model set on the remaining
/// avails and scores the held-out fold's fused estimates. Complements the
/// paper's single chronological split with a variance estimate — important
/// at n ~ 200. Each call fingerprints the dataset once to key its view.
StatusOr<CvResult> CrossValidate(const Dataset& data,
                                 const PipelineConfig& config,
                                 const CvOptions& options);

/// Snapshot-isolated variant: cross-validates the pinned, epoch-stamped cut
/// of a DataStore, so folds engineered mid-ingestion never see a moving
/// dataset. Its view is keyed on the snapshot's epoch.
StatusOr<CvResult> CrossValidate(
    const std::shared_ptr<const DataSnapshot>& snapshot,
    const PipelineConfig& config, const CvOptions& options);

/// Percentile-bootstrap confidence interval for the MAE of predictions.
struct BootstrapInterval {
  double lower = 0.0;
  double point = 0.0;
  double upper = 0.0;
};

/// Resamples (y_true, y_pred) pairs with replacement `resamples` times and
/// returns the central `confidence` interval of the MAE distribution.
BootstrapInterval BootstrapMaeInterval(const std::vector<double>& y_true,
                                       const std::vector<double>& y_pred,
                                       int resamples = 1000,
                                       double confidence = 0.95,
                                       std::uint64_t seed = 11);

}  // namespace domd

#endif  // DOMD_EVAL_CROSS_VALIDATION_H_
