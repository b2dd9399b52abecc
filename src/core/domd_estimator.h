#ifndef DOMD_CORE_DOMD_ESTIMATOR_H_
#define DOMD_CORE_DOMD_ESTIMATOR_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/pipeline_optimizer.h"
#include "core/timeline.h"
#include "ml/attribution.h"

namespace domd {

class DataSnapshot;

/// One per-step DoMD estimate with its interpretability payload: the top
/// contributing features the paper's SMEs review for each availability.
struct DomdStepEstimate {
  double t_star = 0.0;
  double estimated_delay_days = 0.0;
  std::vector<FeatureContribution> top_features;
};

/// Answer to a DoMD query (Problem 1): estimates at every grid point from
/// 0% up to the query's logical time, plus the fused estimate.
struct DomdQueryResult {
  std::int64_t avail_id = 0;
  double query_t_star = 0.0;
  double fused_estimate_days = 0.0;
  std::vector<DomdStepEstimate> steps;
};

/// The deployed estimator: a trained timeline model set over a dataset,
/// answering DoMD queries for any avail (ongoing or closed) at any time.
class DomdEstimator {
 public:
  /// Trains the model set per `config` on the avails in `train_ids`
  /// (labels required: they must be closed) and prepares features for every
  /// avail in the dataset so any of them can be queried. The dataset must
  /// outlive the estimator. Each call fingerprints the dataset once
  /// (ComputeDatasetFingerprint) to key its view; the snapshot overload
  /// keys on the epoch the snapshot already carries.
  static StatusOr<DomdEstimator> Train(
      const Dataset* data, const PipelineConfig& config,
      const std::vector<std::int64_t>& train_ids);

  /// Snapshot-isolated variant: trains over the pinned, epoch-stamped cut
  /// of a DataStore. The estimator keeps the snapshot alive, so "the
  /// dataset must outlive the estimator" holds by construction and later
  /// ingestion can never shift the data under a trained model.
  static StatusOr<DomdEstimator> Train(
      std::shared_ptr<const DataSnapshot> snapshot,
      const PipelineConfig& config,
      const std::vector<std::int64_t>& train_ids);

  /// DoMD query at a physical date: estimates at 0, x, 2x, ..., t*(as_of).
  /// Dates before the avail's start clamp to logical time 0 (the base
  /// prediction); top_k contributions accompany each step.
  StatusOr<DomdQueryResult> Query(std::int64_t avail_id, Date as_of,
                                  std::size_t top_k = 5) const;

  /// Same, addressed directly by logical time.
  StatusOr<DomdQueryResult> QueryAtLogicalTime(std::int64_t avail_id,
                                               double t_star,
                                               std::size_t top_k = 5) const;

  const PipelineConfig& config() const { return config_; }
  const std::vector<double>& grid() const { return grid_; }
  const TimelineModelSet& models() const { return models_; }
  const FeatureEngineer& engineer() const { return engineer_; }

  /// Persists the trained model set (with its config) to a file, so a
  /// serving process can answer queries without retraining.
  Status SaveModels(const std::string& path) const;

  /// Rebuilds an estimator from a dataset plus a model file written by
  /// SaveModels. Features are recomputed for the given dataset through the
  /// modeling-view cache (honoring `parallelism` and `cache_bytes`, both
  /// runtime knobs and never persisted); the models are loaded as-is. Two
  /// loads over content-identical datasets share one cached view. The
  /// dataset must outlive the estimator.
  static StatusOr<DomdEstimator> LoadModels(
      const Dataset* data, const std::string& path,
      const Parallelism& parallelism = {},
      std::size_t cache_bytes = kDefaultViewCacheBytes);

  /// Snapshot-isolated variant of LoadModels (see the snapshot Train
  /// overload for the lifetime contract), keyed on the snapshot's epoch.
  static StatusOr<DomdEstimator> LoadModels(
      std::shared_ptr<const DataSnapshot> snapshot, const std::string& path,
      const Parallelism& parallelism = {},
      std::size_t cache_bytes = kDefaultViewCacheBytes);

  /// Stream variant of LoadModels: parses the model set from `in` instead
  /// of opening a file. The bundle loader uses this to parse models from
  /// bytes it has already checksum-verified, so a corrupt artifact can
  /// never be half-parsed.
  static StatusOr<DomdEstimator> LoadModelsFromStream(
      const Dataset* data, std::istream& in,
      const Parallelism& parallelism = {},
      std::size_t cache_bytes = kDefaultViewCacheBytes);

  /// Snapshot-isolated variant of LoadModelsFromStream.
  static StatusOr<DomdEstimator> LoadModelsFromStream(
      std::shared_ptr<const DataSnapshot> snapshot, std::istream& in,
      const Parallelism& parallelism = {},
      std::size_t cache_bytes = kDefaultViewCacheBytes);

  /// The immutable all-avails view snapshot (shared with the cache and any
  /// other estimator built over the same dataset/grid/catalog).
  const std::shared_ptr<const ModelingView>& shared_view() const {
    return all_view_;
  }

 private:
  DomdEstimator(const Dataset* data, const PipelineConfig& config)
      : data_(data), config_(config), engineer_(data) {}

  /// The bodies of Train and LoadModelsFromStream. `epoch` is the
  /// dataset's content fingerprint, the dataset's part of the view-cache
  /// key: the snapshot's epoch(), or one ComputeDatasetFingerprint per
  /// call of a Dataset* overload.
  static StatusOr<DomdEstimator> TrainKeyed(
      const Dataset* data, std::uint64_t epoch, const PipelineConfig& config,
      const std::vector<std::int64_t>& train_ids);
  static StatusOr<DomdEstimator> LoadKeyed(const Dataset* data,
                                           std::uint64_t epoch,
                                           std::istream& in,
                                           const Parallelism& parallelism,
                                           std::size_t cache_bytes);

  /// Common body of Query/QueryAtLogicalTime: per-step estimates up to
  /// t_star plus fused estimate and attributions.
  StatusOr<DomdQueryResult> QueryImpl(std::int64_t avail_id, double t_star,
                                      std::size_t top_k) const;

  const Dataset* data_;
  /// Set by the snapshot overloads: pins the DataStore cut whose tables
  /// `data_` points into for the estimator's lifetime.
  std::shared_ptr<const DataSnapshot> snapshot_;
  PipelineConfig config_;
  FeatureEngineer engineer_;
  std::vector<double> grid_;
  /// Features for every avail in the dataset (immutable cache snapshot).
  std::shared_ptr<const ModelingView> all_view_;
  TimelineModelSet models_;
};

}  // namespace domd

#endif  // DOMD_CORE_DOMD_ESTIMATOR_H_
