#ifndef DOMD_INDEX_LOGICAL_TIME_INDEX_H_
#define DOMD_INDEX_LOGICAL_TIME_INDEX_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/rcc.h"

namespace domd {

/// One indexed RCC interval in logical time: (t*_start, t*_end, ID), the
/// triple §4.1 requires every index design to store. An RCC that never
/// settles has end = +infinity.
struct IndexEntry {
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;

  static constexpr double kOpenEnd = std::numeric_limits<double>::infinity();
};

/// Which concrete index structure backs logical-time retrieval.
enum class IndexBackend {
  kIntervalTree,  ///< Augmented balanced interval tree (§4.1).
  kAvlTree,       ///< Dual AVL trees over start/end times (§4.1).
  kNaiveJoin,     ///< Materialized wide-row join + scans (pandas-merge stand-in).
};

const char* IndexBackendToString(IndexBackend backend);

/// Retrieval interface over logical time shared by all three index designs.
/// The retrieval sets follow Eq. 3-6, addressed by RccStatusCategory:
///   Active(t*)     = point query @ t*            (created <= t* < settled)
///   Settled(t*)    = overlap query @ [-inf, t*)  (settled <= t*)
///   Created(t*)    = Active(t*) U Settled(t*)    (created <= t*)
///   NotCreated(t*) = all \ Created(t*)
class LogicalTimeIndex {
 public:
  virtual ~LogicalTimeIndex() = default;

  /// Bulk-builds the index from entries, replacing prior contents.
  virtual void Build(const std::vector<IndexEntry>& entries) = 0;

  /// Inserts one entry (dynamic maintenance).
  virtual void Insert(const IndexEntry& entry) = 0;

  /// Removes the entry with the given interval+id; returns NotFound if
  /// absent.
  virtual Status Erase(const IndexEntry& entry) = 0;

  /// Appends the ids of the given life-cycle category at t* to *out
  /// (cleared first). One entry point for all four Eq. 3-6 retrieval sets;
  /// every backend implements every category.
  virtual void Collect(RccStatusCategory category, double t_star,
                       std::vector<std::int64_t>* out) const = 0;

  /// Count-only variants (no id materialization); default implementations
  /// fall back to Collect.
  virtual std::size_t CountActive(double t_star) const;
  virtual std::size_t CountSettled(double t_star) const;
  virtual std::size_t CountCreated(double t_star) const;

  /// Number of indexed entries.
  virtual std::size_t size() const = 0;

  /// Approximate resident memory of the structure, in bytes.
  virtual std::size_t MemoryUsageBytes() const = 0;

  virtual IndexBackend backend() const = 0;
};

/// The one factory every construction site goes through. No backend has
/// a precondition; an out-of-range enum value is InvalidArgument.
StatusOr<std::unique_ptr<LogicalTimeIndex>> MakeLogicalTimeIndex(
    IndexBackend backend);

}  // namespace domd

#endif  // DOMD_INDEX_LOGICAL_TIME_INDEX_H_
