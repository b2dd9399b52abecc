#include "index/logical_time_index.h"

#include "index/avl_tree_index.h"
#include "index/interval_tree_index.h"
#include "index/naive_join_index.h"

namespace domd {

const char* IndexBackendToString(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kIntervalTree:
      return "IntervalTree";
    case IndexBackend::kAvlTree:
      return "AVLTree";
    case IndexBackend::kNaiveJoin:
      return "NaiveJoin";
  }
  return "?";
}

std::size_t LogicalTimeIndex::CountActive(double t_star) const {
  std::vector<std::int64_t> ids;
  Collect(RccStatusCategory::kActive, t_star, &ids);
  return ids.size();
}

std::size_t LogicalTimeIndex::CountSettled(double t_star) const {
  std::vector<std::int64_t> ids;
  Collect(RccStatusCategory::kSettled, t_star, &ids);
  return ids.size();
}

std::size_t LogicalTimeIndex::CountCreated(double t_star) const {
  std::vector<std::int64_t> ids;
  Collect(RccStatusCategory::kCreated, t_star, &ids);
  return ids.size();
}

StatusOr<std::unique_ptr<LogicalTimeIndex>> MakeLogicalTimeIndex(
    IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kIntervalTree:
      return std::unique_ptr<LogicalTimeIndex>(
          std::make_unique<IntervalTreeIndex>());
    case IndexBackend::kAvlTree:
      return std::unique_ptr<LogicalTimeIndex>(
          std::make_unique<AvlTreeIndex>());
    case IndexBackend::kNaiveJoin:
      return std::unique_ptr<LogicalTimeIndex>(
          std::make_unique<NaiveJoinIndex>());
  }
  return Status::InvalidArgument("MakeLogicalTimeIndex: unknown backend");
}

}  // namespace domd
