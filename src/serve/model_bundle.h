#ifndef DOMD_SERVE_MODEL_BUNDLE_H_
#define DOMD_SERVE_MODEL_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.h"
#include "core/domd_estimator.h"
#include "ingest/data_store.h"
#include "query/status_query.h"

namespace domd {

/// One detached scoring request: the avail row and its RCC stream travel
/// with the request, so the service can score ships that are not part of
/// the bundle's reference fleet. Ids inside a request are caller-local —
/// the scorer remaps them, so concurrent clients can reuse ids freely.
struct ScoreRequest {
  Avail avail;
  std::vector<Rcc> rccs;
  double t_star = 100.0;  ///< logical query time (percent of planned dur.).
  std::size_t top_k = 5;  ///< number of feature-attribution drivers.
};

/// The scoring answer the service returns. The uncertainty band is the
/// spread (min/max) of the per-step timeline estimates entering fusion — a
/// cheap ensemble-dispersion proxy, not a calibrated interval (see
/// examples/uncertainty_bands.cc for the conformal variant).
struct ServePrediction {
  std::int64_t avail_id = 0;
  double t_star = 0.0;
  double estimate_days = 0.0;  ///< fused estimate over steps 0..t*.
  double band_low = 0.0;
  double band_high = 0.0;
  std::size_t num_steps = 0;  ///< timeline steps that contributed.
  std::vector<FeatureContribution> top_features;  ///< at the last step.
  std::string bundle_version;  ///< version tag of the scoring bundle.
};

/// An immutable, versioned serving artifact: the trained `DomdEstimator`
/// stack (per-step models + pipeline config), the reference fleet it was
/// trained over, and the fleet's per-step reference estimates. A bundle
/// is written once by `Write`, loaded whole by `Load`, and never mutated
/// afterwards — every accessor is const and safe to call from any number
/// of threads concurrently (shared-immutable, per DESIGN.md §6).
///
/// On-disk layout (directory):
///   MANIFEST    magic, version tag, schema hash (FeatureCatalogVersion:
///               a bundle written under one feature schema refuses to load
///               under another, whose model columns would misalign),
///               cardinalities, checksums
///   models.txt  TimelineModelSet text serialization (config included)
///   avails.csv  reference fleet avail table
///   rccs.csv    reference fleet RCC table
///
/// Publication is crash-safe: `Write` stages the bundle in `<dir>.tmp`,
/// fsyncs every file, records a per-file FNV-1a checksum in the manifest
/// (format v2), and atomically renames the staging directory into place.
/// `Load` verifies every checksum before parsing a byte, so a torn or
/// bit-flipped artifact is rejected as kDataLoss rather than half-served.
/// Legacy v1 manifests (no checksums) still load, skipping verification.
class ModelBundle {
 public:
  /// Writes `estimator` (trained over `data`) as a bundle directory:
  /// serializes its model set and calls WriteModels.
  static Status Write(const DomdEstimator& estimator, const Dataset& data,
                      const std::string& dir, const std::string& version);

  /// The one bundle writer: publishes `models_text` (a TimelineModelSet
  /// serialization) with `data` as its reference fleet. `version` must be
  /// a non-empty whitespace-free tag (e.g. "v7" or a content hash); it
  /// comes back verbatim in every prediction. A replica adopting a shard
  /// peer's retrain writes the shipped text over its own tables here.
  static Status WriteModels(const std::string& models_text,
                            const Dataset& data, const std::string& dir,
                            const std::string& version);

  /// Loads a bundle directory: manifest + schema-compatibility check,
  /// reference tables, model stack (features for the reference fleet come
  /// from the modeling-view cache, honoring `parallelism` and
  /// `cache_bytes`), and the reference step table. Returns a
  /// shared_ptr because serving hot-swaps bundles behind an atomic
  /// shared_ptr; the pointee is deeply const. Hot-swapping to a bundle
  /// whose reference tables are content-identical to the live one reuses
  /// the live view snapshot instead of re-engineering features.
  static StatusOr<std::shared_ptr<const ModelBundle>> Load(
      const std::string& dir, const Parallelism& parallelism = {},
      std::size_t cache_bytes = kDefaultViewCacheBytes);

  const std::string& version() const { return version_; }
  std::uint64_t schema_hash() const { return schema_hash_; }
  const std::string& directory() const { return directory_; }
  const Dataset& data() const { return snapshot_->data(); }
  /// Epoch of the pinned reference cut: the dataset fingerprint of the
  /// reference fleet, so a freshness probe knows exactly which data
  /// generation this bundle embeds.
  std::uint64_t data_epoch() const { return snapshot_->epoch(); }
  const DomdEstimator& estimator() const { return *estimator_; }
  const PipelineConfig& config() const { return estimator_->config(); }
  const std::vector<double>& grid() const { return estimator_->grid(); }
  /// Status-Query engine over the reference fleet, built on the first
  /// call (thread-safe; concurrent reads only). No scoring path reads it.
  const StatusQueryEngine& query_engine() const;

  /// Scores one avail of the bundle's reference fleet by id: a prefix of
  /// the reference step table plus one attribution at the last step —
  /// bit-identical to `estimator().QueryAtLogicalTime`.
  StatusOr<ServePrediction> ScoreReferenceAvail(std::int64_t avail_id,
                                                double t_star,
                                                std::size_t top_k = 5) const;

  /// Scores a micro-batch of detached requests: validates each request,
  /// assembles the valid ones into one temporary dataset (ids remapped),
  /// engineers a single feature-tensor block over the bundle's grid on the
  /// ParallelFor substrate, and evaluates the per-step models. Failures
  /// are per-request — slot i of the result always answers request i.
  std::vector<StatusOr<ServePrediction>> ScoreBatch(
      const std::vector<ScoreRequest>& requests,
      const Parallelism& parallelism = {}) const;

  ModelBundle(const ModelBundle&) = delete;
  ModelBundle& operator=(const ModelBundle&) = delete;

 private:
  ModelBundle() = default;

  /// The one answer assembly of both scoring paths: fuses and bands
  /// `per_step[0..t*][row]`, then attributes `view`'s `row` at the last
  /// step (t* before the start clamps to step 0).
  ServePrediction AssemblePrediction(
      const ModelingView& view, std::size_t row,
      const std::vector<std::vector<double>>& per_step,
      std::int64_t avail_id, double t_star, std::size_t top_k) const;

  std::string version_;
  std::uint64_t schema_hash_ = 0;
  std::string directory_;
  /// The epoch-stamped cut of the reference fleet every accessor serves
  /// from (address-stable target of the estimator's back-pointer). It owns
  /// its tables, so Load keeps no DataStore (DESIGN.md §14).
  std::shared_ptr<const DataSnapshot> snapshot_;
  std::unique_ptr<DomdEstimator> estimator_;
  mutable std::once_flag query_engine_once_;
  mutable std::unique_ptr<StatusQueryEngine> query_engine_;
  /// Per-step estimates of every reference avail, [step][row of the
  /// estimator's shared view]: one batched PredictPerStep at Load, so a
  /// reference point reads a prefix instead of predicting every step.
  std::vector<std::vector<double>> reference_steps_;
};

/// The per-file checksum a bundle MANIFEST records (FNV-1a 64 over the
/// raw bytes).
std::uint64_t BundleFileChecksum(std::string_view bytes);

/// Crash-safe bundle distribution: copies the published bundle at
/// `src_dir` into `dest_dir` through the same staging protocol as
/// `ModelBundle::Write` — the manifest is parsed by `Load`'s rules (a v2
/// manifest missing a checksum is kDataLoss before anything is staged),
/// every file is read (serve.bundle.read), verified against the manifest
/// checksums, staged durably into `dest_dir.tmp`
/// (serve.bundle.write), and atomically renamed into place
/// (serve.bundle.commit). This is the per-shard "stage" step of a
/// coordinated cluster rollout: a crash or injected fault mid-copy leaves
/// the destination untouched, so the shard keeps serving last-known-good.
Status CopyBundleDurable(const std::string& src_dir,
                         const std::string& dest_dir);

/// `ModelBundle::Load` wrapped in bounded retry-with-backoff: transient
/// failures (kIoError, kUnavailable, kResourceExhausted) are retried per
/// `retry`; permanent ones (kDataLoss, kFailedPrecondition, ...) return
/// immediately. This is the entry point serving uses for initial load and
/// hot-swap, so a flaky filesystem read does not kill an otherwise healthy
/// swap — while a corrupt artifact still fails fast.
StatusOr<std::shared_ptr<const ModelBundle>> LoadBundleWithRetry(
    const std::string& dir, const Parallelism& parallelism = {},
    std::size_t cache_bytes = kDefaultViewCacheBytes,
    const RetryOptions& retry = {});

}  // namespace domd

#endif  // DOMD_SERVE_MODEL_BUNDLE_H_
