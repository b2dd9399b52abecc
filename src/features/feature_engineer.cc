#include "features/feature_engineer.h"

#include <span>

#include "obs/trace.h"

namespace domd {
namespace {

// Fills a query's GROUP BY fields from a dense group node id.
void SetGroupClause(int group_id, StatusQuery* query) {
  if (group_id < GroupSchema::kNumLevel1Groups) {
    const int type_slot = group_id / GroupSchema::kNumSubsystemSlots;
    const int subsystem_slot = group_id % GroupSchema::kNumSubsystemSlots;
    if (type_slot > 0) {
      query->type_filter = static_cast<RccType>(type_slot - 1);
    } else {
      query->type_filter.reset();
    }
    if (subsystem_slot > 0) {
      query->swlin_level = 1;
      query->swlin_prefix = subsystem_slot;
    } else {
      query->swlin_level = 0;
      query->swlin_prefix = 0;
    }
  } else {
    query->type_filter.reset();
    query->swlin_level = 2;
    query->swlin_prefix = group_id - GroupSchema::kNumLevel1Groups + 10;
  }
}

}  // namespace

FeatureEngineer::FeatureEngineer(const Dataset* data)
    : data_(data), catalog_(&FeatureCatalog::Shared()) {}

FeatureTensor FeatureEngineer::ComputeIncremental(
    const std::vector<std::int64_t>& avail_ids,
    const std::vector<double>& time_grid,
    const Parallelism& parallelism) const {
  DOMD_OBS_SPAN("features.block_sweep");
  FeatureTensor tensor(avail_ids, time_grid, catalog_->size());
  if (avail_ids.empty()) return tensor;

  const int threads =
      std::min(parallelism.EffectiveThreads(),
               static_cast<int>(avail_ids.size()));
  if (threads <= 1) {
    EngineerRows(avail_ids, 0, avail_ids.size(), time_grid, &tensor);
    return tensor;
  }
  // Contiguous row blocks, one per worker; each block owns disjoint tensor
  // rows, so the parallel fill is race-free and bit-identical to serial.
  const std::size_t grain =
      (avail_ids.size() + static_cast<std::size_t>(threads) - 1) /
      static_cast<std::size_t>(threads);
  const Status status = ParallelFor(
      threads, avail_ids.size(), grain,
      [&](std::size_t lo, std::size_t hi) {
        EngineerRows(avail_ids, lo, hi, time_grid, &tensor);
        return Status::OK();
      });
  (void)status;  // the body is infallible
  return tensor;
}

void FeatureEngineer::EngineerRows(const std::vector<std::int64_t>& avail_ids,
                                   std::size_t row_begin, std::size_t row_end,
                                   const std::vector<double>& time_grid,
                                   FeatureTensor* tensor) const {
  const std::vector<std::int64_t> block(
      avail_ids.begin() + static_cast<std::ptrdiff_t>(row_begin),
      avail_ids.begin() + static_cast<std::ptrdiff_t>(row_end));
  StatStructure sweep(*data_, block);

  const std::size_t n_groups = GroupSchema::kNumGroups;
  std::vector<double> prev_created(block.size() * n_groups, 0.0);
  const std::vector<FeatureDef>& features = catalog_->features();

  for (std::size_t step = 0; step < time_grid.size(); ++step) {
    sweep.AdvanceTo(time_grid[step]);
    Matrix& slice = tensor->slice(step);
    for (std::size_t i = 0; i < block.size(); ++i) {
      // One lookup per avail and step: the avail's row of group aggregates.
      const std::span<const GroupAggregates> aggs = sweep.Row(block[i]);
      const std::span<double> prev(&prev_created[i * n_groups], n_groups);
      const std::span<double> out = slice.row(row_begin + i);
      for (std::size_t f = 0; f < features.size(); ++f) {
        const FeatureDef& def = features[f];
        const auto g = static_cast<std::size_t>(def.group_id);
        out[f] = FeatureValue(def.kind, aggs[g], time_grid[step], prev[g]);
      }
      // Snapshot created counts for the next step's window features.
      for (std::size_t g = 0; g < n_groups; ++g) {
        prev[g] = static_cast<double>(aggs[g].created_count);
      }
    }
  }
}

StatusOr<double> FeatureEngineer::ComputeOneFromScratch(
    const StatusQueryEngine& engine, std::int64_t avail_id,
    const FeatureDef& feature, double t_star, double prev_t_star) const {
  StatusQuery query;
  query.avail_filter = avail_id;
  SetGroupClause(feature.group_id, &query);

  auto run = [&](RccStatusCategory category, AggregateFn aggregate,
                 RccAttribute attribute, double at) -> StatusOr<double> {
    query.category = category;
    query.aggregate = aggregate;
    query.attribute = attribute;
    return engine.Execute(query, at);
  };

  switch (feature.kind) {
    case FeatureKind::kCreatedCount:
      return run(RccStatusCategory::kCreated, AggregateFn::kCount,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kCreatedSumAmt:
      return run(RccStatusCategory::kCreated, AggregateFn::kSum,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kCreatedAvgAmt:
      return run(RccStatusCategory::kCreated, AggregateFn::kAvg,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kCreatedMaxAmt:
      return run(RccStatusCategory::kCreated, AggregateFn::kMax,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kCreatedRate: {
      auto count = run(RccStatusCategory::kCreated, AggregateFn::kCount,
                       RccAttribute::kSettledAmount, t_star);
      if (!count.ok()) return count.status();
      return *count / (t_star + 5.0);
    }
    case FeatureKind::kSettledCount:
      return run(RccStatusCategory::kSettled, AggregateFn::kCount,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kSettledSumAmt:
      return run(RccStatusCategory::kSettled, AggregateFn::kSum,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kSettledAvgAmt:
      return run(RccStatusCategory::kSettled, AggregateFn::kAvg,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kSettledMaxAmt:
      return run(RccStatusCategory::kSettled, AggregateFn::kMax,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kSettledSumDur:
      return run(RccStatusCategory::kSettled, AggregateFn::kSum,
                 RccAttribute::kDuration, t_star);
    case FeatureKind::kSettledAvgDur:
      return run(RccStatusCategory::kSettled, AggregateFn::kAvg,
                 RccAttribute::kDuration, t_star);
    case FeatureKind::kSettledMaxDur:
      return run(RccStatusCategory::kSettled, AggregateFn::kMax,
                 RccAttribute::kDuration, t_star);
    case FeatureKind::kActiveCount:
      return run(RccStatusCategory::kActive, AggregateFn::kCount,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kActiveSumAmt:
      return run(RccStatusCategory::kActive, AggregateFn::kSum,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kActiveAvgAmt:
      return run(RccStatusCategory::kActive, AggregateFn::kAvg,
                 RccAttribute::kSettledAmount, t_star);
    case FeatureKind::kActivePctOfCreated: {
      auto active = run(RccStatusCategory::kActive, AggregateFn::kCount,
                        RccAttribute::kSettledAmount, t_star);
      if (!active.ok()) return active.status();
      auto created = run(RccStatusCategory::kCreated, AggregateFn::kCount,
                         RccAttribute::kSettledAmount, t_star);
      if (!created.ok()) return created.status();
      return *created == 0.0 ? 0.0 : *active / *created;
    }
    case FeatureKind::kCreatedCountWindow: {
      auto now = run(RccStatusCategory::kCreated, AggregateFn::kCount,
                     RccAttribute::kSettledAmount, t_star);
      if (!now.ok()) return now.status();
      auto before = run(RccStatusCategory::kCreated, AggregateFn::kCount,
                        RccAttribute::kSettledAmount, prev_t_star);
      if (!before.ok()) return before.status();
      return *now - *before;
    }
  }
  return Status::Internal("unhandled feature kind");
}

}  // namespace domd
