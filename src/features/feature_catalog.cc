#include "features/feature_catalog.h"

#include <algorithm>

#include "common/fnv1a.h"

namespace domd {

const char* FeatureKindToString(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::kCreatedCount:
      return "CREATED_COUNT";
    case FeatureKind::kCreatedSumAmt:
      return "CREATED_SUM_AMT";
    case FeatureKind::kCreatedAvgAmt:
      return "CREATED_AVG_AMT";
    case FeatureKind::kCreatedMaxAmt:
      return "CREATED_MAX_AMT";
    case FeatureKind::kCreatedRate:
      return "CREATED_RATE";
    case FeatureKind::kSettledCount:
      return "SETTLED_COUNT";
    case FeatureKind::kSettledSumAmt:
      return "SETTLED_SUM_AMT";
    case FeatureKind::kSettledAvgAmt:
      return "SETTLED_AVG_AMT";
    case FeatureKind::kSettledMaxAmt:
      return "SETTLED_MAX_AMT";
    case FeatureKind::kSettledSumDur:
      return "SETTLED_SUM_DUR";
    case FeatureKind::kSettledAvgDur:
      return "SETTLED_AVG_DUR";
    case FeatureKind::kSettledMaxDur:
      return "SETTLED_MAX_DUR";
    case FeatureKind::kActiveCount:
      return "ACTIVE_COUNT";
    case FeatureKind::kActiveSumAmt:
      return "ACTIVE_SUM_AMT";
    case FeatureKind::kActiveAvgAmt:
      return "ACTIVE_AVG_AMT";
    case FeatureKind::kActivePctOfCreated:
      return "ACTIVE_PCT_OF_CREATED";
    case FeatureKind::kCreatedCountWindow:
      return "CREATED_COUNT_WINDOW";
  }
  return "?";
}

double FeatureValue(FeatureKind kind, const GroupAggregates& agg,
                    double t_star, double prev_created_count) {
  switch (kind) {
    case FeatureKind::kCreatedCount:
      return agg.created_count;
    case FeatureKind::kCreatedSumAmt:
      return agg.created_sum_amount;
    case FeatureKind::kCreatedAvgAmt:
      return agg.created_avg_amount();
    case FeatureKind::kCreatedMaxAmt:
      return agg.created_max_amount;
    case FeatureKind::kCreatedRate:
      // Smoothed arrival rate; +5 keeps the t*=0 model finite.
      return static_cast<double>(agg.created_count) / (t_star + 5.0);
    case FeatureKind::kSettledCount:
      return agg.settled_count;
    case FeatureKind::kSettledSumAmt:
      return agg.settled_sum_amount;
    case FeatureKind::kSettledAvgAmt:
      return agg.settled_avg_amount();
    case FeatureKind::kSettledMaxAmt:
      return agg.settled_max_amount;
    case FeatureKind::kSettledSumDur:
      return agg.settled_sum_duration;
    case FeatureKind::kSettledAvgDur:
      return agg.settled_avg_duration();
    case FeatureKind::kSettledMaxDur:
      return agg.settled_max_duration;
    case FeatureKind::kActiveCount:
      return agg.active_count();
    case FeatureKind::kActiveSumAmt:
      return agg.active_sum_amount();
    case FeatureKind::kActiveAvgAmt:
      return agg.active_avg_amount();
    case FeatureKind::kActivePctOfCreated:
      return agg.active_pct_of_created();
    case FeatureKind::kCreatedCountWindow:
      return static_cast<double>(agg.created_count) - prev_created_count;
  }
  return 0.0;
}

FeatureCatalog::FeatureCatalog() {
  static constexpr FeatureKind kLevel1Kinds[] = {
      FeatureKind::kCreatedCount,  FeatureKind::kCreatedSumAmt,
      FeatureKind::kCreatedAvgAmt, FeatureKind::kCreatedMaxAmt,
      FeatureKind::kCreatedRate,   FeatureKind::kSettledCount,
      FeatureKind::kSettledSumAmt, FeatureKind::kSettledAvgAmt,
      FeatureKind::kSettledMaxAmt, FeatureKind::kSettledSumDur,
      FeatureKind::kSettledAvgDur, FeatureKind::kSettledMaxDur,
      FeatureKind::kActiveCount,   FeatureKind::kActiveSumAmt,
      FeatureKind::kActiveAvgAmt,  FeatureKind::kActivePctOfCreated,
  };
  static constexpr FeatureKind kLevel2Kinds[] = {
      FeatureKind::kCreatedCount,        FeatureKind::kCreatedSumAmt,
      FeatureKind::kCreatedAvgAmt,       FeatureKind::kSettledCount,
      FeatureKind::kSettledSumAmt,       FeatureKind::kSettledAvgDur,
      FeatureKind::kActiveCount,         FeatureKind::kActiveSumAmt,
      FeatureKind::kActivePctOfCreated,
  };

  features_.reserve(1490);
  for (int g = 0; g < GroupSchema::kNumLevel1Groups; ++g) {
    const std::string group = GroupSchema::GroupName(g);
    for (FeatureKind kind : kLevel1Kinds) {
      features_.push_back(
          FeatureDef{group + "-" + FeatureKindToString(kind), g, kind});
    }
  }
  for (int g = GroupSchema::kNumLevel1Groups; g < GroupSchema::kNumGroups;
       ++g) {
    const std::string group = GroupSchema::GroupName(g);
    for (FeatureKind kind : kLevel2Kinds) {
      features_.push_back(
          FeatureDef{group + "-" + FeatureKindToString(kind), g, kind});
    }
  }
  for (int g = 0; g < GroupSchema::kNumLevel1Groups; ++g) {
    const std::string group = GroupSchema::GroupName(g);
    features_.push_back(FeatureDef{
        group + "-" + FeatureKindToString(FeatureKind::kCreatedCountWindow),
        g, FeatureKind::kCreatedCountWindow});
  }
}

const FeatureCatalog& FeatureCatalog::Shared() {
  static const FeatureCatalog& catalog = *new FeatureCatalog();
  return catalog;
}

int FeatureCatalog::FindByName(const std::string& name) const {
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (features_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

const std::vector<std::string>& StaticFeatureNames() {
  static const std::vector<std::string>& names = *new std::vector<std::string>{
      "SHIP_CLASS",       "RMC_ID",       "SHIP_AGE_YEARS",
      "AVAIL_TYPE",       "HOMEPORT",     "PRIOR_AVAIL_COUNT",
      "CONTRACT_VALUE_M", "PLANNED_DURATION_DAYS"};
  return names;
}

std::uint64_t FeatureCatalogVersion() {
  static const std::uint64_t version = [] {
    std::uint64_t hash = kFnv1aSeed;
    // Each name ends in a 0xFF byte, so {"ab","c"} != {"a","bc"}.
    const auto add = [&hash](const std::string& name) {
      hash = Fnv1a("\xFF", Fnv1a(name, hash));
    };
    for (const std::string& name : StaticFeatureNames()) add(name);
    for (const FeatureDef& def : FeatureCatalog::Shared().features()) {
      add(def.name);
    }
    return hash;
  }();
  return version;
}

}  // namespace domd
