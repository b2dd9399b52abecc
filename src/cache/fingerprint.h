#ifndef DOMD_CACHE_FINGERPRINT_H_
#define DOMD_CACHE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/fnv1a.h"
#include "data/tables.h"

namespace domd {

/// Folds one 64-bit word into an FNV-1a style running hash. The seed for a
/// fresh digest is kFingerprintSeed.
inline constexpr std::uint64_t kFingerprintSeed = kFnv1aSeed;
std::uint64_t FingerprintMix(std::uint64_t hash, std::uint64_t word);

/// Content digest of a full dataset: every field of every avail and RCC
/// row, in insertion order. Two datasets with identical table contents
/// fingerprint identically regardless of address — a bundle reloaded from
/// disk shares cache entries with the estimator that wrote it. O(rows) and
/// never remembered: a DataSnapshot carries it as its epoch, and a caller
/// holding only a Dataset computes it once per use.
std::uint64_t ComputeDatasetFingerprint(const Dataset& data);

/// ComputeDatasetFingerprint fed in runs of rows, for callers that can
/// enumerate a dataset's rows without building it (DataStore::epoch()).
/// Construct with the avail count, Add every avail row in table order,
/// BeginRccs with the RCC count, Add every RCC row in table order: value()
/// is then ComputeDatasetFingerprint of the dataset holding those rows.
class DatasetFingerprintStream {
 public:
  explicit DatasetFingerprintStream(std::size_t num_avails);
  void Add(std::span<const Avail> avails);
  void BeginRccs(std::size_t num_rccs);
  void Add(std::span<const Rcc> rccs);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_;
};

/// Order-sensitive digest of an avail-id selection.
std::uint64_t DigestIds(const std::vector<std::int64_t>& ids);

/// Order-sensitive digest of a logical-time grid (bit-exact over doubles).
std::uint64_t DigestGrid(const std::vector<double>& grid);

}  // namespace domd

#endif  // DOMD_CACHE_FINGERPRINT_H_
