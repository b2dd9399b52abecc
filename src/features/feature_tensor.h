#ifndef DOMD_FEATURES_FEATURE_TENSOR_H_
#define DOMD_FEATURES_FEATURE_TENSOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ml/matrix.h"

namespace domd {

/// The avail x feature x logical-time feature tensor of Task 1. Each time
/// slice is a dense matrix whose rows align with avail_ids and whose columns
/// align with the dynamic feature catalog. Models at grid step j train on
/// slice(j).
class FeatureTensor {
 public:
  FeatureTensor() = default;
  FeatureTensor(std::vector<std::int64_t> avail_ids,
                std::vector<double> time_grid, std::size_t num_features)
      : avail_ids_(std::move(avail_ids)), time_grid_(std::move(time_grid)) {
    slices_.assign(time_grid_.size(),
                   Matrix(avail_ids_.size(), num_features));
  }

  const std::vector<std::int64_t>& avail_ids() const { return avail_ids_; }
  const std::vector<double>& time_grid() const { return time_grid_; }
  std::size_t num_steps() const { return time_grid_.size(); }
  std::size_t num_avails() const { return avail_ids_.size(); }
  std::size_t num_features() const {
    return slices_.empty() ? 0 : slices_[0].cols();
  }

  Matrix& slice(std::size_t step) { return slices_[step]; }
  const Matrix& slice(std::size_t step) const { return slices_[step]; }

  /// Row index of an avail id; -1 if absent.
  int RowOf(std::int64_t avail_id) const {
    for (std::size_t i = 0; i < avail_ids_.size(); ++i) {
      if (avail_ids_[i] == avail_id) return static_cast<int>(i);
    }
    return -1;
  }

  /// Extracts the sub-tensor slice for a subset of avails (rows reordered
  /// to match `ids`). Unknown ids produce an error.
  StatusOr<FeatureTensor> SelectAvails(
      const std::vector<std::int64_t>& ids) const;

 private:
  std::vector<std::int64_t> avail_ids_;
  std::vector<double> time_grid_;
  std::vector<Matrix> slices_;
};

}  // namespace domd

#endif  // DOMD_FEATURES_FEATURE_TENSOR_H_
