#ifndef DOMD_FEATURES_FEATURE_CATALOG_H_
#define DOMD_FEATURES_FEATURE_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/stat_structure.h"

namespace domd {

/// The distinct computations a dynamic (RCC-dependent) feature can perform
/// on a (avail x group) bucket's aggregates at logical time t*.
enum class FeatureKind {
  kCreatedCount,
  kCreatedSumAmt,
  kCreatedAvgAmt,
  kCreatedMaxAmt,
  kCreatedRate,  ///< created count per unit of elapsed logical time.
  kSettledCount,
  kSettledSumAmt,
  kSettledAvgAmt,
  kSettledMaxAmt,
  kSettledSumDur,
  kSettledAvgDur,
  kSettledMaxDur,
  kActiveCount,
  kActiveSumAmt,
  kActiveAvgAmt,
  kActivePctOfCreated,
  kCreatedCountWindow,  ///< created count since the previous grid step.
};

const char* FeatureKindToString(FeatureKind kind);

/// One dynamic feature definition: a group node plus a computation kind.
/// Names follow the paper's convention, e.g. "G1-SETTLED_AVG_AMT" = average
/// settled amount of Growth RCCs in SWLIN subsystem 1.
struct FeatureDef {
  std::string name;
  int group_id;
  FeatureKind kind;
};

/// Evaluates a feature kind over a bucket's aggregates.
/// prev_created_count is the bucket's created count at the previous grid
/// step (used by kCreatedCountWindow; pass 0 at the first step).
double FeatureValue(FeatureKind kind, const GroupAggregates& agg,
                    double t_star, double prev_created_count);

/// The catalog of all generated dynamic features (the paper works with 1490
/// RCC-dependent features; the catalog reproduces that count exactly):
///  * 40 level-1 group nodes x 16 aggregates = 640,
///  * 90 level-2 group nodes x 9 aggregates  = 810,
///  * 40 level-1 window-trend features        =  40.
class FeatureCatalog {
 public:
  /// Builds the full 1490-feature catalog.
  FeatureCatalog();

  /// The process's one catalog, built on first use and never modified, so
  /// any thread may read it. Every engineer and FeatureCatalogVersion()
  /// read this instance instead of building their own.
  static const FeatureCatalog& Shared();

  const std::vector<FeatureDef>& features() const { return features_; }
  std::size_t size() const { return features_.size(); }
  const FeatureDef& feature(std::size_t i) const { return features_[i]; }

  /// Index of a feature by name; -1 if absent.
  int FindByName(const std::string& name) const;

 private:
  std::vector<FeatureDef> features_;
};

/// Names of the 8 static (time-invariant) avail features, in column order.
const std::vector<std::string>& StaticFeatureNames();

/// 64-bit FNV-1a digest of the feature schema (static feature names plus
/// the full dynamic catalog, in column order), computed once per process.
/// Any change to the generated feature set changes this value, which keys
/// the modeling-view cache and invalidates snapshots built under an older
/// catalog.
std::uint64_t FeatureCatalogVersion();

}  // namespace domd

#endif  // DOMD_FEATURES_FEATURE_CATALOG_H_
