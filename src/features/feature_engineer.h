#ifndef DOMD_FEATURES_FEATURE_ENGINEER_H_
#define DOMD_FEATURES_FEATURE_ENGINEER_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "data/tables.h"
#include "features/feature_catalog.h"
#include "features/feature_tensor.h"
#include "query/status_query.h"

namespace domd {

/// Task 1: materializes the dynamic feature tensor F_{i,t*} for every avail
/// over a logical-time grid.
///
/// The production path sweeps a StatStructure forward over the grid
/// (incremental computation, §4.3), touching every RCC event exactly once.
/// A from-scratch path evaluates features through the StatusQueryEngine,
/// one Status Query per (avail, feature, t*) — used to validate equivalence
/// and to quantify the incremental speedup.
class FeatureEngineer {
 public:
  /// The dataset must outlive the engineer. Construction builds nothing:
  /// the engineer reads the shared catalog (FeatureCatalog::Shared()).
  explicit FeatureEngineer(const Dataset* data);

  const FeatureCatalog& catalog() const { return *catalog_; }

  /// Incremental tensor construction for the given avails over the grid.
  /// With more than one thread, avails are partitioned into contiguous
  /// blocks and each worker drives its own StatStructure sweep over its
  /// block (incremental caching intact); rows are independent, so the
  /// tensor is bit-identical for every thread count.
  FeatureTensor ComputeIncremental(const std::vector<std::int64_t>& avail_ids,
                                   const std::vector<double>& time_grid,
                                   const Parallelism& parallelism = {}) const;

  /// From-scratch evaluation of one feature for one avail at one t* through
  /// Algorithm StatusQ. prev_t_star feeds window features (pass the
  /// previous grid point, or any value below the grid start — e.g. -1 —
  /// at the first step).
  StatusOr<double> ComputeOneFromScratch(const StatusQueryEngine& engine,
                                         std::int64_t avail_id,
                                         const FeatureDef& feature,
                                         double t_star,
                                         double prev_t_star) const;

 private:
  /// Engineers rows [row_begin, row_end) of the tensor with a private
  /// StatStructure sweep restricted to that block's avails.
  void EngineerRows(const std::vector<std::int64_t>& avail_ids,
                    std::size_t row_begin, std::size_t row_end,
                    const std::vector<double>& time_grid,
                    FeatureTensor* tensor) const;

  const Dataset* data_;
  /// A pointer, not a reference, so an engineer (and an estimator holding
  /// one) stays assignable.
  const FeatureCatalog* catalog_;
};

}  // namespace domd

#endif  // DOMD_FEATURES_FEATURE_ENGINEER_H_
