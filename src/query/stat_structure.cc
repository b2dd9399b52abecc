#include "query/stat_structure.h"

#include <algorithm>
#include <limits>

#include "data/logical_time.h"

namespace domd {

namespace {

std::vector<std::int64_t> AllAvailIds(const Dataset& data) {
  std::vector<std::int64_t> ids;
  ids.reserve(data.avails.size());
  for (const Avail& avail : data.avails.rows()) ids.push_back(avail.id);
  return ids;
}

}  // namespace

StatStructure::StatStructure(const Dataset& data)
    : StatStructure(data, AllAvailIds(data)) {}

StatStructure::StatStructure(const Dataset& data,
                             const std::vector<std::int64_t>& avail_ids)
    : current_time_(-std::numeric_limits<double>::infinity()) {
  avail_ids_.reserve(avail_ids.size());
  for (const std::int64_t id : avail_ids) {
    if (!data.avails.Find(id).ok()) continue;  // unknown ids stay untracked
    avail_index_[id] = avail_ids_.size();
    avail_ids_.push_back(id);
  }
  const std::size_t n_avails = avail_ids_.size();
  creation_events_.resize(n_avails);
  settle_events_.resize(n_avails);
  creation_pos_.assign(n_avails, 0);
  settle_pos_.assign(n_avails, 0);
  aggregates_.assign(n_avails * GroupSchema::kNumGroups, GroupAggregates());

  std::vector<int> groups;
  for (const Rcc& rcc : data.rccs.rows()) {
    const auto it = avail_index_.find(rcc.avail_id);
    if (it == avail_index_.end()) continue;
    const std::size_t a = it->second;
    const auto avail_or = data.avails.Find(rcc.avail_id);
    const Avail& avail = **avail_or;

    const double start = LogicalTime(avail, rcc.creation_date);
    const auto amount = static_cast<float>(rcc.settled_amount);
    groups.clear();
    GroupSchema::GroupsForRcc(rcc.type, rcc.swlin, &groups);
    for (int g : groups) {
      creation_events_[a].push_back(
          Event{start, g, amount, 0.0f});
    }
    if (rcc.settled_date.has_value()) {
      const double end = LogicalTime(avail, *rcc.settled_date);
      const auto duration =
          static_cast<float>(*rcc.settled_date - rcc.creation_date);
      for (int g : groups) {
        settle_events_[a].push_back(Event{end, g, amount, duration});
      }
    }
  }
  auto by_time = [](const Event& x, const Event& y) {
    return x.time < y.time;
  };
  for (auto& events : creation_events_) {
    std::sort(events.begin(), events.end(), by_time);
  }
  for (auto& events : settle_events_) {
    std::sort(events.begin(), events.end(), by_time);
  }
}

void StatStructure::Reset() {
  std::fill(creation_pos_.begin(), creation_pos_.end(), 0);
  std::fill(settle_pos_.begin(), settle_pos_.end(), 0);
  std::fill(aggregates_.begin(), aggregates_.end(), GroupAggregates());
  current_time_ = -std::numeric_limits<double>::infinity();
}

void StatStructure::AdvanceTo(double t_star) {
  if (t_star < current_time_) return;  // sweeps only move forward
  const std::size_t n = avail_ids_.size();
  for (std::size_t a = 0; a < n; ++a) {
    GroupAggregates* base =
        &aggregates_[a * static_cast<std::size_t>(GroupSchema::kNumGroups)];
    const auto& created = creation_events_[a];
    std::size_t& cpos = creation_pos_[a];
    while (cpos < created.size() && created[cpos].time <= t_star) {
      const Event& e = created[cpos];
      GroupAggregates& agg = base[e.group_id];
      ++agg.created_count;
      agg.created_sum_amount += e.amount;
      agg.created_max_amount =
          std::max(agg.created_max_amount, static_cast<double>(e.amount));
      ++cpos;
    }
    const auto& settled = settle_events_[a];
    std::size_t& spos = settle_pos_[a];
    while (spos < settled.size() && settled[spos].time <= t_star) {
      const Event& e = settled[spos];
      GroupAggregates& agg = base[e.group_id];
      ++agg.settled_count;
      agg.settled_sum_amount += e.amount;
      agg.settled_max_amount =
          std::max(agg.settled_max_amount, static_cast<double>(e.amount));
      agg.settled_sum_duration += e.duration_days;
      agg.settled_max_duration = std::max(
          agg.settled_max_duration, static_cast<double>(e.duration_days));
      ++spos;
    }
  }
  current_time_ = t_star;
}

std::span<const GroupAggregates> StatStructure::Row(
    std::int64_t avail_id) const {
  static constexpr GroupAggregates kEmptyRow[GroupSchema::kNumGroups] = {};
  constexpr auto kGroups = static_cast<std::size_t>(GroupSchema::kNumGroups);
  const auto it = avail_index_.find(avail_id);
  if (it == avail_index_.end()) return {kEmptyRow, kGroups};
  return {&aggregates_[it->second * kGroups], kGroups};
}

const GroupAggregates& StatStructure::Get(std::int64_t avail_id,
                                          int group_id) const {
  return Row(avail_id)[static_cast<std::size_t>(group_id)];
}

}  // namespace domd
