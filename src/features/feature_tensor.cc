#include "features/feature_tensor.h"

namespace domd {

StatusOr<FeatureTensor> FeatureTensor::SelectAvails(
    const std::vector<std::int64_t>& ids) const {
  std::vector<std::size_t> rows;
  rows.reserve(ids.size());
  for (std::int64_t id : ids) {
    const int row = RowOf(id);
    if (row < 0) {
      return Status::NotFound("avail " + std::to_string(id) +
                              " not in feature tensor");
    }
    rows.push_back(static_cast<std::size_t>(row));
  }
  FeatureTensor out(ids, time_grid_, num_features());
  for (std::size_t step = 0; step < slices_.size(); ++step) {
    out.slices_[step] = slices_[step].SelectRows(rows);
  }
  return out;
}

}  // namespace domd
