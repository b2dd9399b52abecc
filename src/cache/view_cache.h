#ifndef DOMD_CACHE_VIEW_CACHE_H_
#define DOMD_CACHE_VIEW_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.h"
#include "core/timeline.h"

namespace domd {

/// Identity of one memoized modeling view: which dataset content (its
/// epoch), which avail selection (order-sensitive), which logical-time
/// grid, and which feature catalog produced it. Parallelism is deliberately
/// absent — view construction is bit-identical at every thread count
/// (DESIGN.md §5), so a view built at one thread count serves every other.
struct ViewCacheKey {
  std::uint64_t dataset_epoch = 0;
  std::uint64_t ids_digest = 0;
  std::uint64_t grid_digest = 0;
  std::uint64_t catalog_version = 0;

  bool operator==(const ViewCacheKey&) const = default;
};

struct ViewCacheKeyHash {
  std::size_t operator()(const ViewCacheKey& key) const {
    std::uint64_t hash = kFingerprintSeed;
    hash = FingerprintMix(hash, key.dataset_epoch);
    hash = FingerprintMix(hash, key.ids_digest);
    hash = FingerprintMix(hash, key.grid_digest);
    hash = FingerprintMix(hash, key.catalog_version);
    return static_cast<std::size_t>(hash);
  }
};

/// Builds the cache key for a view request: the dataset's epoch (its
/// ComputeDatasetFingerprint, which a DataSnapshot carries as epoch()),
/// the id/grid digests and the process's feature-catalog version.
ViewCacheKey MakeViewCacheKey(std::uint64_t dataset_epoch,
                              const std::vector<std::int64_t>& avail_ids,
                              const std::vector<double>& grid);

/// Heap footprint estimate of a modeling view (ids, statics, every tensor
/// slice, labels) — the unit of the cache's byte budget.
std::size_t ApproxModelingViewBytes(const ModelingView& view);

/// Counters snapshot; hits/misses/evictions are cumulative since process
/// start (or the last ResetCounters), bytes/entries are instantaneous.
struct ViewCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t bytes = 0;
  std::size_t entries = 0;

  double HitRatio() const {
    const double total = static_cast<double>(hits + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A process-wide, sharded, byte-budgeted LRU cache of immutable
/// ModelingView snapshots. Entries are shared_ptr<const ModelingView>:
/// eviction never invalidates a view a caller still holds, and every
/// consumer of the same key shares one physical snapshot (HPT trials, CV,
/// estimator training, and serving bundle loads all converge on it).
///
/// The byte budget is split evenly across shards; each shard evicts its
/// own LRU tail while over budget. A view larger than a whole shard's
/// budget is returned uncached (a miss that evicts nothing), so it never
/// flushes the entries that do fit. A budget of zero bypasses storage
/// entirely: every GetOrBuild builds and counts a miss, and the cache
/// retains nothing — the bit-identity baseline. Tests wanting
/// deterministic eviction order use one shard.
///
/// Mirrors its counters into the obs registry (domd_view_cache_*) when
/// observability is compiled in and enabled; the internal counters below
/// are unconditional so benchmarks can report hit ratios under
/// DOMD_DISABLE_OBS too.
class ViewCache {
 public:
  explicit ViewCache(std::size_t max_bytes, int num_shards = 8);

  /// The process-default cache (256 MB, 8 shards at first use); the
  /// --cache-bytes knob retargets its budget via SetMaxBytes.
  static ViewCache& Default();

  /// Returns the cached view for the key, building (outside any lock) and
  /// inserting on miss. Concurrent misses on one key may build twice; the
  /// first insert wins and both callers observe the same stored snapshot.
  std::shared_ptr<const ModelingView> GetOrBuild(
      const ViewCacheKey& key,
      const std::function<ModelingView()>& build);

  /// Lookup without building; null on miss (counts a hit or a miss).
  std::shared_ptr<const ModelingView> Lookup(const ViewCacheKey& key);

  /// Retargets the byte budget; shrinking evicts immediately.
  void SetMaxBytes(std::size_t max_bytes);
  std::size_t max_bytes() const {
    return max_bytes_.load(std::memory_order_relaxed);
  }

  ViewCacheStats Stats() const;

  /// Drops every entry (outstanding shared_ptrs stay valid).
  void Clear();

  /// Zeroes hit/miss/eviction counters (test + bench isolation).
  void ResetCounters();

 private:
  struct Entry {
    ViewCacheKey key;
    std::shared_ptr<const ModelingView> view;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used.
    std::unordered_map<ViewCacheKey, std::list<Entry>::iterator,
                       ViewCacheKeyHash>
        by_key;
    std::size_t bytes = 0;
  };

  Shard& ShardFor(const ViewCacheKey& key) {
    return shards_[ViewCacheKeyHash{}(key) % num_shards_];
  }
  std::size_t PerShardBudget() const {
    return max_bytes() / static_cast<std::size_t>(num_shards_);
  }
  /// Evicts the shard's LRU tail while it exceeds `budget`. Caller holds
  /// the shard mutex.
  void EvictOverBudget(Shard* shard, std::size_t budget);
  void PublishGauges() const;

  const std::size_t num_shards_;
  std::atomic<std::size_t> max_bytes_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Cache-aware BuildModelingView: keys the request on `epoch`, which must
/// be ComputeDatasetFingerprint(data) (a snapshot's epoch() is), consults
/// `cache` (ViewCache::Default() when null) under a budget of
/// `cache_bytes`, and memoizes the built snapshot. The budget is applied
/// to the target cache via SetMaxBytes — with several concurrent budgets
/// the last writer wins, which is harmless because the budget only bounds
/// retention, never changes any returned bits. cache_bytes == 0 disables
/// retention: every call engineers features from scratch, exactly like
/// BuildModelingView.
std::shared_ptr<const ModelingView> BuildModelingViewShared(
    const Dataset& data, std::uint64_t epoch, const FeatureEngineer& engineer,
    const std::vector<std::int64_t>& avail_ids,
    const std::vector<double>& grid, const Parallelism& parallelism = {},
    std::size_t cache_bytes = kDefaultViewCacheBytes,
    ViewCache* cache = nullptr);

}  // namespace domd

#endif  // DOMD_CACHE_VIEW_CACHE_H_
