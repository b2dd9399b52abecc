#include "core/domd_estimator.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "cache/view_cache.h"
#include "data/logical_time.h"
#include "ingest/data_store.h"

namespace domd {

StatusOr<DomdEstimator> DomdEstimator::TrainKeyed(
    const Dataset* data, std::uint64_t epoch, const PipelineConfig& config,
    const std::vector<std::int64_t>& train_ids) {
  if (train_ids.empty()) {
    return Status::InvalidArgument("DomdEstimator: empty training set");
  }
  for (std::int64_t id : train_ids) {
    const auto avail = data->avails.Find(id);
    if (!avail.ok()) return avail.status();
    if (!(*avail)->delay().has_value()) {
      return Status::FailedPrecondition(
          "training avail " + std::to_string(id) +
          " has no measurable delay (not closed)");
    }
  }

  DomdEstimator estimator(data, config);
  estimator.grid_ = LogicalTimeGrid(config.window_width_pct);

  std::vector<std::int64_t> all_ids;
  all_ids.reserve(data->avails.size());
  for (const Avail& avail : data->avails.rows()) all_ids.push_back(avail.id);
  estimator.all_view_ =
      BuildModelingViewShared(*data, epoch, estimator.engineer_, all_ids,
                              estimator.grid_, config.parallelism,
                              config.cache_bytes);

  auto train_view = estimator.all_view_->dynamic.SelectAvails(train_ids);
  if (!train_view.ok()) return train_view.status();
  ModelingView train;
  train.avail_ids = train_ids;
  train.dynamic = std::move(*train_view);
  std::vector<std::size_t> rows;
  rows.reserve(train_ids.size());
  for (std::int64_t id : train_ids) {
    rows.push_back(
        static_cast<std::size_t>(estimator.all_view_->dynamic.RowOf(id)));
  }
  train.static_x = estimator.all_view_->static_x.SelectRows(rows);
  train.labels.reserve(train_ids.size());
  for (std::size_t r : rows) {
    train.labels.push_back(estimator.all_view_->labels[r]);
  }

  std::vector<std::string> dynamic_names;
  dynamic_names.reserve(estimator.engineer_.catalog().size());
  for (const FeatureDef& def : estimator.engineer_.catalog().features()) {
    dynamic_names.push_back(def.name);
  }
  DOMD_RETURN_IF_ERROR(estimator.models_.Fit(config, train, dynamic_names));
  return estimator;
}

StatusOr<DomdEstimator> DomdEstimator::Train(
    const Dataset* data, const PipelineConfig& config,
    const std::vector<std::int64_t>& train_ids) {
  return TrainKeyed(data, ComputeDatasetFingerprint(*data), config,
                    train_ids);
}

StatusOr<DomdEstimator> DomdEstimator::Train(
    std::shared_ptr<const DataSnapshot> snapshot,
    const PipelineConfig& config,
    const std::vector<std::int64_t>& train_ids) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("DomdEstimator::Train: null snapshot");
  }
  auto estimator =
      TrainKeyed(&snapshot->data(), snapshot->epoch(), config, train_ids);
  if (!estimator.ok()) return estimator.status();
  estimator->snapshot_ = std::move(snapshot);
  return estimator;
}

Status DomdEstimator::SaveModels(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  DOMD_RETURN_IF_ERROR(models_.Save(out));
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

StatusOr<DomdEstimator> DomdEstimator::LoadModels(
    const Dataset* data, const std::string& path,
    const Parallelism& parallelism, std::size_t cache_bytes) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return LoadModelsFromStream(data, in, parallelism, cache_bytes);
}

StatusOr<DomdEstimator> DomdEstimator::LoadKeyed(
    const Dataset* data, std::uint64_t epoch, std::istream& in,
    const Parallelism& parallelism, std::size_t cache_bytes) {
  DomdEstimator estimator(data, PipelineConfig{});
  auto models = TimelineModelSet::Load(in, StaticFeatureNames().size(),
                                       estimator.engineer_.catalog().size());
  if (!models.ok()) return models.status();

  estimator.config_ = models->config();
  estimator.config_.parallelism = parallelism;
  estimator.config_.cache_bytes = cache_bytes;
  estimator.grid_ = LogicalTimeGrid(estimator.config_.window_width_pct);
  if (estimator.grid_.size() != models->num_steps()) {
    return Status::FailedPrecondition(
        "model file step count does not match its window width");
  }
  std::vector<std::int64_t> all_ids;
  all_ids.reserve(data->avails.size());
  for (const Avail& avail : data->avails.rows()) all_ids.push_back(avail.id);
  estimator.all_view_ =
      BuildModelingViewShared(*data, epoch, estimator.engineer_, all_ids,
                              estimator.grid_, estimator.config_.parallelism,
                              estimator.config_.cache_bytes);
  estimator.models_ = std::move(*models);
  return estimator;
}

StatusOr<DomdEstimator> DomdEstimator::LoadModelsFromStream(
    const Dataset* data, std::istream& in, const Parallelism& parallelism,
    std::size_t cache_bytes) {
  return LoadKeyed(data, ComputeDatasetFingerprint(*data), in, parallelism,
                   cache_bytes);
}

StatusOr<DomdEstimator> DomdEstimator::LoadModels(
    std::shared_ptr<const DataSnapshot> snapshot, const std::string& path,
    const Parallelism& parallelism, std::size_t cache_bytes) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("DomdEstimator::LoadModels: null snapshot");
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return LoadModelsFromStream(std::move(snapshot), in, parallelism,
                              cache_bytes);
}

StatusOr<DomdEstimator> DomdEstimator::LoadModelsFromStream(
    std::shared_ptr<const DataSnapshot> snapshot, std::istream& in,
    const Parallelism& parallelism, std::size_t cache_bytes) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument(
        "DomdEstimator::LoadModelsFromStream: null snapshot");
  }
  auto estimator = LoadKeyed(&snapshot->data(), snapshot->epoch(), in,
                             parallelism, cache_bytes);
  if (!estimator.ok()) return estimator.status();
  estimator->snapshot_ = std::move(snapshot);
  return estimator;
}

StatusOr<DomdQueryResult> DomdEstimator::Query(std::int64_t avail_id,
                                               Date as_of,
                                               std::size_t top_k) const {
  const auto avail = data_->avails.Find(avail_id);
  if (!avail.ok()) return avail.status();
  const double t_star = std::max(0.0, LogicalTime(**avail, as_of));
  return QueryImpl(avail_id, t_star, top_k);
}

StatusOr<DomdQueryResult> DomdEstimator::QueryAtLogicalTime(
    std::int64_t avail_id, double t_star, std::size_t top_k) const {
  return QueryImpl(avail_id, t_star, top_k);
}

StatusOr<DomdQueryResult> DomdEstimator::QueryImpl(std::int64_t avail_id,
                                                   double t_star,
                                                   std::size_t top_k) const {
  const int row_index = all_view_->dynamic.RowOf(avail_id);
  if (row_index < 0) {
    return Status::NotFound("avail " + std::to_string(avail_id) +
                            " unknown to the estimator");
  }
  const auto row = static_cast<std::size_t>(row_index);

  DomdQueryResult result;
  result.avail_id = avail_id;
  result.query_t_star = t_star;

  int last_step = GridIndexAtOrBefore(grid_, t_star);
  if (last_step < 0) last_step = 0;  // before start: base prediction only

  std::vector<double> predictions;
  for (int step = 0; step <= last_step; ++step) {
    const auto s = static_cast<std::size_t>(step);
    const std::vector<double> input =
        models_.BuildInputRow(*all_view_, row, s);
    DomdStepEstimate estimate;
    estimate.t_star = grid_[s];
    estimate.estimated_delay_days = models_.model(s).Predict(input);
    estimate.top_features = TopContributions(models_.model(s), input,
                                             models_.input_names(s), top_k);
    predictions.push_back(estimate.estimated_delay_days);
    result.steps.push_back(std::move(estimate));
  }
  result.fused_estimate_days = FusePredictions(config_.fusion, predictions);
  return result;
}

}  // namespace domd
