#ifndef DOMD_CORE_CONFIG_H_
#define DOMD_CORE_CONFIG_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "common/parallel.h"
#include "common/status.h"
#include "ml/elastic_net.h"
#include "ml/gbt.h"
#include "ml/loss.h"
#include "select/selectors.h"

namespace domd {

/// Base model family (Task 3).
enum class ModelFamily {
  kGbt,         ///< Gradient-boosted trees (the XGBoost stand-in).
  kElasticNet,  ///< Elastic-Net linear regression.
};

const char* ModelFamilyToString(ModelFamily family);

/// Modeling architecture (Task 3): whether a separate static "base" model
/// feeds its prediction into the per-timeline models.
enum class Architecture {
  kNonStacked,  ///< statics and dynamics in one model per step.
  kStacked,     ///< static base model + dynamic timeline models.
};

const char* ArchitectureToString(Architecture architecture);

/// Fusion method across the timeline (Task 6). The paper evaluates none /
/// min / average and leaves richer ensembling to future work; kMedian and
/// kWeightedRecent implement that extension (median is robust to one bad
/// step model; recency weighting trusts later, better-informed models
/// more).
enum class FusionMethod {
  kNone,            ///< use the latest step's prediction only.
  kMin,             ///< minimum prediction over steps 0..t*.
  kAverage,         ///< mean prediction over steps 0..t*.
  kMedian,          ///< median prediction over steps 0..t* (extension).
  kWeightedRecent,  ///< exponentially recency-weighted mean (extension).
};

const char* FusionMethodToString(FusionMethod method);

/// Default byte budget of the process-wide modeling-view cache (see
/// cache/view_cache.h), split over 8 shards of 32 MiB. A view is its
/// row-major tensor only: one 200-avail x 1490-feature x 11-step view is
/// ~25 MiB, so it fits a shard.
inline constexpr std::size_t kDefaultViewCacheBytes = 256ull << 20;

/// The full pipeline parameterization x-hat = (s, m, l, p, f) of Problem 2,
/// plus the model-gap interval x. Defaults are the paper's selected
/// configuration: Pearson k=60, GBT, non-stacked, Pseudo-Huber(18), 30 HPT
/// trials, average fusion, 10% windows.
struct PipelineConfig {
  SelectionMethod selection = SelectionMethod::kPearson;
  std::size_t num_features = 60;  ///< k, applied to dynamic features only.
  ModelFamily model_family = ModelFamily::kGbt;
  Architecture architecture = Architecture::kNonStacked;
  LossKind loss = LossKind::kPseudoHuber;
  double huber_delta = 18.0;
  int hpt_trials = 30;  ///< 0 disables tuning (use the params below as-is).
  FusionMethod fusion = FusionMethod::kAverage;
  double window_width_pct = 10.0;  ///< x: the model-gap interval.
  std::uint64_t seed = 42;

  GbtParams gbt;  ///< effective GBT params (overwritten when tuned).
  ElasticNetParams elastic_net;

  /// Execution parallelism (feature engineering, timeline steps, CV
  /// folds). Runtime knob: not serialized, and results are bit-identical
  /// for every thread count — num_threads = 1 reproduces the serial path
  /// exactly.
  Parallelism parallelism;

  /// Byte budget for the modeling-view cache (cache/view_cache.h). Runtime
  /// knob like `parallelism`: not serialized, and 0 disables caching with
  /// bit-identical results — the cache is purely an identity optimization.
  std::size_t cache_bytes = kDefaultViewCacheBytes;

  /// Materializes the configured loss.
  Loss MakeLoss() const;

  /// One-line human-readable summary.
  std::string ToString() const;

  /// Serializes every field as text.
  void Save(std::ostream& out) const;

  /// Reads a config written by Save().
  static StatusOr<PipelineConfig> Load(std::istream& in);
};

}  // namespace domd

#endif  // DOMD_CORE_CONFIG_H_
