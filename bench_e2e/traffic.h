#ifndef DOMD_BENCH_E2E_TRAFFIC_H_
#define DOMD_BENCH_E2E_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_e2e/line_client.h"
#include "common/rng.h"
#include "data/tables.h"
#include "serve/json.h"

namespace domd {
namespace bench_e2e {

/// The four traffic mixes. Why each exists is in README.md.
enum class Workload { kPointRead, kDetachedScore, kIngestRw, kRetrainLoop };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// Request families on the wire.
enum Kind : std::uint8_t {
  kPoint,      ///< {"avail_id", "t_star"} against the reference fleet.
  kScatter,    ///< {"avail_ids": [8 ids], "t_star"}.
  kDetached,   ///< {"avail", "rccs", "top_k", "t_star"}: a full RCC stream.
  kIngest,     ///< {"cmd": "ingest", ...} RCC (and avail) upserts.
  kFreshness,  ///< {"cmd": "freshness"}.
  kRetrain,    ///< {"cmd": "retrain", "version"}.
  kNumKinds,
};

const char* KindName(Kind kind);

/// Fixed offered rates, frozen so that every commit is measured against
/// the same load. Each is at most ~1/3 of the saturated throughput the
/// same workload reached on the 4-core host while it ran slow (README.md):
/// nearer saturation, a slow stretch of the host fills the router's worker
/// queue and points are refused. Ingest is lower still, because each ack
/// and each freshness probe materializes a dirty snapshot on the primary's
/// single worker thread.
inline constexpr double kPointReadRps = 3000.0;
inline constexpr double kScatterShare = 0.05;
inline constexpr double kDetachedRps = 90.0;
inline constexpr double kBackgroundPointRps = 500.0;
inline constexpr double kIngestBatchesPerSecond = 15.0;
inline constexpr double kFreshnessPerSecond = 4.0;
inline constexpr std::size_t kIngestBatchRccs = 8;
inline constexpr std::size_t kRetrainAmendRccs = 64;
inline constexpr std::size_t kDetachedPoolSize = 64;
inline constexpr std::size_t kScatterWidth = 8;
inline constexpr double kZipfExponent = 1.1;

/// The 11-point t* grid (0, 10, ..., 100) every request draws from.
double GridTStar(std::size_t index);

/// Request tags pack (item index, t* index) for point/detached requests.
inline std::uint32_t PackTag(std::size_t item, std::size_t t_index) {
  return static_cast<std::uint32_t>(item << 4 | t_index);
}
inline std::size_t TagItem(std::uint32_t tag) { return tag >> 4; }
inline std::size_t TagTStar(std::uint32_t tag) { return tag & 0xF; }

/// Zipf(s) over ranks 0..n-1 (rank 0 hottest).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);
  std::size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

JsonValue AvailToJson(const Avail& avail);
JsonValue RccToJson(const Rcc& rcc, bool with_avail_id);

/// Produces ingest payloads against an evolving model of the fleet: 80% of
/// RCC upserts amend an existing RCC (settle an open one, or change a
/// settled amount), 20% open a new RCC. Avails are Zipf-skewed, so both
/// shards take writes; their ranking is the same for every seed, which
/// draws only the RCCs and amounts. Deterministic in (fleet, seed) and call
/// order.
class IngestGenerator {
 public:
  IngestGenerator(const Dataset& fleet, std::uint64_t seed);

  /// One `{"cmd":"ingest","rccs":[...]}` line of `rccs` upserts;
  /// `amend_only` suppresses new RCCs.
  std::string NextBatch(std::size_t rccs, bool amend_only);
  /// An avail upsert moving closed avail `avail_id`'s actual_end by
  /// `delta_days` (new labels, hence a new data epoch).
  std::string ShiftAvailEnd(std::int64_t avail_id, int delta_days);

  /// A closed avail the retrain loop may shift (the hottest closed one).
  std::int64_t ShiftableAvail() const;

 private:
  Rcc Amend(Rcc rcc);
  Rcc Fresh(std::int64_t avail_id);

  Rng rng_;
  ZipfSampler zipf_;
  std::vector<Avail> avails_;  ///< in Zipf rank order.
  std::unordered_map<std::int64_t, std::size_t> avail_index_;
  std::vector<Rcc> rccs_;
  std::vector<std::vector<std::size_t>> rccs_by_avail_;  ///< by rank.
  std::int64_t next_rcc_id_ = 1;
};

/// One open-loop send: due `due` ns after the phase origin, on `conn`.
struct Planned {
  Nanos due = 0;
  std::uint8_t conn = 0;
  Kind kind = kPoint;
  std::uint32_t tag = 0;
};

/// Everything one run sends, generated up front from the seed so the same
/// seed always offers the same requests.
class Traffic {
 public:
  Traffic(Workload workload, std::uint64_t seed, const Dataset& fleet,
          const Dataset& held_out);

  /// Merged Poisson schedule of the fixed-rate mix over `seconds`; `stream`
  /// separates warm-up from the measured window.
  std::vector<Planned> Schedule(double seconds, std::uint64_t stream);

  /// Request line for an open-loop or saturation send. Ingest tags index
  /// ingest_lines(), generated on first use.
  void Line(Kind kind, std::uint32_t tag, std::string* out);

  /// Draws the next saturation request of this workload's closed-loop
  /// phase (points, detached or ingest).
  std::pair<Kind, std::uint32_t> NextSaturation();

  /// Fresh ingest batch for the mix; returns its tag.
  std::uint32_t NewIngestBatch(std::size_t rccs, bool amend_only);
  /// Avail-shift ingest for the retrain loop; returns its tag.
  std::uint32_t NewAvailShift(int delta_days);

  const std::vector<std::string>& ingest_lines() const {
    return ingest_lines_;
  }
  const std::vector<std::int64_t>& point_avails() const {
    return point_avails_;
  }
  const std::vector<std::int64_t>& scatter_ids(std::uint32_t tag) const {
    return scatters_[TagItem(tag)];
  }
  /// The detached pool: request line for (pool index, t* index).
  std::string DetachedLine(std::size_t pool_index, std::size_t t_index) const;
  std::size_t detached_pool_size() const { return detached_bodies_.size(); }
  std::int64_t detached_ship(std::size_t pool_index) const {
    return detached_ships_[pool_index];
  }

  /// FNV-1a over every request line of a one-second probe of the window
  /// schedule (generated on a copy, so this traffic is left untouched):
  /// identical for identical seeds, different otherwise.
  std::uint64_t Digest() const;

  /// Draws one request tag of the kind's distribution.
  std::uint32_t PointTag(Rng* rng) const;
  std::uint32_t DetachedTag(Rng* rng) const;
  std::uint32_t NewScatter(Rng* rng);

 private:

  Workload workload_;
  std::uint64_t seed_;
  Rng rng_;
  ZipfSampler avail_zipf_;
  ZipfSampler pool_zipf_;
  std::vector<std::int64_t> point_avails_;  ///< in Zipf rank order.
  std::vector<std::vector<std::int64_t>> scatters_;
  std::vector<std::string> detached_bodies_;  ///< lines minus t_star.
  std::vector<std::int64_t> detached_ships_;
  IngestGenerator ingest_;
  std::vector<std::string> ingest_lines_;
  std::int64_t shift_avail_ = 0;
};

}  // namespace bench_e2e
}  // namespace domd

#endif  // DOMD_BENCH_E2E_TRAFFIC_H_
