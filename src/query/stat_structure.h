#ifndef DOMD_QUERY_STAT_STRUCTURE_H_
#define DOMD_QUERY_STAT_STRUCTURE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/tables.h"
#include "index/group_tree.h"

namespace domd {

/// Running aggregates for one (avail, group) bucket at the sweep's current
/// logical time. Created/settled accumulators are monotone in t*, so a
/// forward sweep only ever adds; the active set's aggregates derive from
/// their difference.
struct GroupAggregates {
  std::uint32_t created_count = 0;
  double created_sum_amount = 0.0;
  double created_max_amount = 0.0;
  std::uint32_t settled_count = 0;
  double settled_sum_amount = 0.0;
  double settled_max_amount = 0.0;
  double settled_sum_duration = 0.0;
  double settled_max_duration = 0.0;

  std::uint32_t active_count() const { return created_count - settled_count; }
  double active_sum_amount() const {
    return created_sum_amount - settled_sum_amount;
  }
  double created_avg_amount() const {
    return created_count == 0
               ? 0.0
               : created_sum_amount / static_cast<double>(created_count);
  }
  double settled_avg_amount() const {
    return settled_count == 0
               ? 0.0
               : settled_sum_amount / static_cast<double>(settled_count);
  }
  double settled_avg_duration() const {
    return settled_count == 0
               ? 0.0
               : settled_sum_duration / static_cast<double>(settled_count);
  }
  double active_avg_amount() const {
    return active_count() == 0
               ? 0.0
               : active_sum_amount() / static_cast<double>(active_count());
  }
  /// Share of created RCCs still unsettled at t*.
  double active_pct_of_created() const {
    return created_count == 0 ? 0.0
                              : static_cast<double>(active_count()) /
                                    static_cast<double>(created_count);
  }
};

/// The incremental-computation cache of §4.3. Holds, per (avail x group
/// node), time-sorted creation and settlement event lists; AdvanceTo(t*)
/// consumes only the events in the last step's (t_prev, t*] window, so a
/// sweep over the whole logical-time grid costs O(total events) instead of
/// O(grid x total events). Reset() rewinds for a fresh sweep.
class StatStructure {
 public:
  /// Builds buckets for every avail in the dataset.
  explicit StatStructure(const Dataset& data);

  /// Builds buckets for the given avails only. RCC events of other avails
  /// are skipped, so a set of sweeps over disjoint subsets costs the same
  /// total event work as one full sweep — this is what lets each parallel
  /// feature-engineering worker drive its own private sweep while keeping
  /// the incremental cache intact. Per-avail aggregates are identical to
  /// the full-dataset structure's.
  StatStructure(const Dataset& data,
                const std::vector<std::int64_t>& avail_ids);

  /// Rewinds the sweep: all aggregates return to empty, current time to
  /// before any event.
  void Reset();

  /// Advances the sweep to t* (must be >= the current time), folding every
  /// event with time <= t* into the running aggregates.
  void AdvanceTo(double t_star);

  /// Current sweep time (-infinity before the first AdvanceTo).
  double current_time() const { return current_time_; }

  /// One avail's aggregates at the current sweep time, kNumGroups of them
  /// indexed by group id: one id lookup for the whole row. Unknown avail
  /// ids return a row of empty aggregates.
  std::span<const GroupAggregates> Row(std::int64_t avail_id) const;

  /// Aggregates for one avail x group bucket at the current sweep time:
  /// Row(avail_id)[group_id].
  const GroupAggregates& Get(std::int64_t avail_id, int group_id) const;

  /// Number of avails tracked.
  std::size_t num_avails() const { return avail_ids_.size(); }

 private:
  struct Event {
    double time;
    std::int32_t group_id;
    float amount;
    float duration_days;  ///< only meaningful for settle events.
  };

  std::unordered_map<std::int64_t, std::size_t> avail_index_;
  std::vector<std::int64_t> avail_ids_;
  /// Per avail: creation events and settle events, each sorted by time.
  std::vector<std::vector<Event>> creation_events_;
  std::vector<std::vector<Event>> settle_events_;
  /// Sweep cursors per avail.
  std::vector<std::size_t> creation_pos_;
  std::vector<std::size_t> settle_pos_;
  /// Dense aggregates: avail-major, kNumGroups per avail.
  std::vector<GroupAggregates> aggregates_;
  double current_time_;
};

}  // namespace domd

#endif  // DOMD_QUERY_STAT_STRUCTURE_H_
