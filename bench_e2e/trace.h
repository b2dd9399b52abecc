#ifndef DOMD_BENCH_E2E_TRACE_H_
#define DOMD_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench_e2e/line_client.h"
#include "common/status.h"

namespace domd {
namespace bench_e2e {

/// Every span name the traced run records. Server-side spans come from the
/// wrappers around each Reactor handler (only the inline part of a verb is
/// visible there); client spans come from the sequential wire replay; the
/// rest wrap calls into one layer's public functions.
enum SpanName : std::uint16_t {
  kClientPointRouted,
  kClientPointDirect,
  kClientScatterRouted,
  kClientScatterDirect,
  kClientDetachedRouted,
  kClientDetachedDirect,
  kClientIngestRouted,
  kClientIngestDirect,
  kClientRetrainDirect,
  kRouterPoint,
  kRouterScatter,
  kRouterDetached,
  kRouterIngest,
  kRouterControl,  ///< freshness, retrain, health and every other cmd.
  kShardPoint,
  kShardDetached,
  kShardIngest,
  kShardReplicate,
  kShardControl,   ///< freshness, retrain, catchup, stats.
  kShardHealth,
  kWireParsePoint,
  kWireParseDetached,
  kWireParseIngest,
  kWireScoreRequest,
  kWireIngestMutations,
  kWireSerialize,
  kBundleScoreRef,
  kQueryStatusQ,
  kReplayDetached,
  kFeaturesBuildView,
  kMlPredictPerStep,
  kMlAttribution,
  kCoreFuse,
  kBundleScoreBatchB1,
  kBundleScoreBatchBavg,
  kServicePredict,
  kServiceSwap,
  kCoreTrain,
  kBundleWrite,
  kBundleLoad,
  kIngestAppendBatch,
  kIngestSnapshotDirty,
  kIngestMerge,
  kReplApply,
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

/// One recorded interval.
struct Span {
  SpanName name = kNumSpanNames;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 for none.
  std::uint64_t request = 0;  ///< replay request id (0 = not a replay).
  Nanos start = 0;
  Nanos end = 0;
};

/// Preallocated in-memory span store. Recording never allocates: a slot is
/// claimed with one atomic increment and spans past the capacity are
/// dropped (and counted). Readers must wait until every recording thread
/// has been joined.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity);

  /// Runtime switch; recording calls are no-ops while off.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread, nested under the thread's
  /// innermost open span. Returns its slot, or -1 when off or full.
  std::int32_t Begin(SpanName name, std::uint64_t request = 0);
  void End(std::int32_t slot);
  /// Records a finished span with explicit bounds.
  std::int32_t Record(SpanName name, Nanos start, Nanos end,
                      std::int32_t parent, std::uint64_t request);

  std::size_t size() const;
  std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const Span& at(std::size_t index) const { return spans_[index]; }

  /// Parents each unparented span of `child_names` to the `parent_names`
  /// span whose interval contains it. Only sound while the parents are
  /// issued strictly one at a time (the sequential wire replay).
  void LinkByContainment(const std::vector<SpanName>& parent_names,
                         const std::vector<SpanName>& child_names);

  /// Self time in microseconds of every span named `name`: its duration
  /// minus the part of it covered by its children.
  std::vector<double> SelfTimesUs(SpanName name) const;
  /// Full durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(SpanName name) const;

  /// Writes "name start_ns end_ns parent request" rows, one per span.
  Status WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<bool> enabled_{false};
};

/// RAII span on the calling thread (no-op when `buffer` is null or off).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, SpanName name, std::uint64_t request = 0)
      : buffer_(buffer),
        slot_(buffer != nullptr ? buffer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (slot_ >= 0) buffer_->End(slot_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  std::int32_t slot_;
};

}  // namespace bench_e2e
}  // namespace domd

#endif  // DOMD_BENCH_E2E_TRACE_H_
