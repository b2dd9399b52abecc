#include "serve/wire.h"

#include <cmath>

#include "data/integrity.h"

namespace domd {
namespace {

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr double kMaxDeadlineMs = 86'400'000.0;  // one day.

StatusOr<Date> DateMember(const JsonValue& object, std::string_view key,
                          bool required) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr || member->is_null()) {
    if (required) {
      return Status::InvalidArgument("missing date member \"" +
                                     std::string(key) + "\"");
    }
    return Date();
  }
  if (!member->is_string()) {
    return Status::InvalidArgument("member \"" + std::string(key) +
                                   "\" must be an ISO date string");
  }
  return Date::Parse(member->string_value());
}

/// `value` as an integer in [min, max], or nullopt. [-2^63, 2^63) is
/// int64's range exactly in doubles: inside it the cast is defined, and
/// the bounds compare as integers.
std::optional<std::int64_t> ToInteger(const JsonValue& value,
                                      std::int64_t min, std::int64_t max) {
  if (!value.is_number()) return std::nullopt;
  const double v = value.number_value();
  if (std::trunc(v) != v || !(v >= -0x1p63 && v < 0x1p63)) {
    return std::nullopt;
  }
  const auto n = static_cast<std::int64_t>(v);
  if (n < min || n > max) return std::nullopt;
  return n;
}

/// Why ToInteger refused `value`; `name` is built only on this path.
Status NotAnInteger(const JsonValue& value, const std::string& name,
                    std::int64_t min, std::int64_t max) {
  if (!value.is_number()) {
    return Status::InvalidArgument(name + " must be a number");
  }
  return Status::InvalidArgument(name + " must be an integer in [" +
                                 std::to_string(min) + ", " +
                                 std::to_string(max) + "]");
}

}  // namespace

StatusOr<std::int64_t> IntegerFromJson(const JsonValue& value,
                                       const std::string& name,
                                       std::int64_t min, std::int64_t max) {
  if (const auto n = ToInteger(value, min, max)) return *n;
  return NotAnInteger(value, name, min, max);
}

StatusOr<std::int64_t> IntegerMember(const JsonValue& object,
                                     std::string_view key,
                                     std::int64_t fallback, std::int64_t min,
                                     std::int64_t max) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr || member->is_null()) return fallback;
  if (const auto n = ToInteger(*member, min, max)) return *n;
  return NotAnInteger(*member, "member \"" + std::string(key) + "\"", min,
                      max);
}

StatusOr<PointRequest> ParsePointRequest(const JsonValue& request) {
  PointRequest point;
  const JsonValue* avail_id = request.Find("avail_id");
  if (avail_id == nullptr) {
    return Status::InvalidArgument("request has no \"avail_id\" member");
  }
  const auto id = ToInteger(*avail_id, kInt64Min, kInt64Max);
  if (!id.has_value()) {
    return NotAnInteger(*avail_id, "member \"avail_id\"", kInt64Min,
                        kInt64Max);
  }
  point.avail_id = *id;
  point.t_star = request.NumberOr("t_star", 100.0);
  auto top_k = IntegerMember(request, "top_k", 5, 0, kInt64Max);
  if (!top_k.ok()) return top_k.status();
  point.top_k = static_cast<std::size_t>(*top_k);
  return point;
}

StatusOr<Avail> AvailFromJson(const JsonValue& object) {
  if (!object.is_object()) {
    return Status::InvalidArgument("\"avail\" must be an object");
  }
  Avail avail;
  auto id = IntegerMember(object, "id", 0);
  if (!id.ok()) return id.status();
  avail.id = *id;
  auto ship_id = IntegerMember(object, "ship_id", 0);
  if (!ship_id.ok()) return ship_id.status();
  avail.ship_id = *ship_id;
  auto status = AvailStatusFromString(object.StringOr("status", "ongoing"));
  if (!status.ok()) return status.status();
  avail.status = *status;

  auto planned_start = DateMember(object, "planned_start", /*required=*/true);
  if (!planned_start.ok()) return planned_start.status();
  avail.planned_start = *planned_start;
  auto planned_end = DateMember(object, "planned_end", /*required=*/true);
  if (!planned_end.ok()) return planned_end.status();
  avail.planned_end = *planned_end;
  auto actual_start = DateMember(object, "actual_start", /*required=*/true);
  if (!actual_start.ok()) return actual_start.status();
  avail.actual_start = *actual_start;
  const JsonValue* actual_end = object.Find("actual_end");
  if (actual_end != nullptr && !actual_end->is_null()) {
    auto parsed = DateMember(object, "actual_end", /*required=*/true);
    if (!parsed.ok()) return parsed.status();
    avail.actual_end = *parsed;
  }

  for (const auto& [key, field] :
       {std::pair{"ship_class", &avail.ship_class},
        std::pair{"rmc_id", &avail.rmc_id},
        std::pair{"avail_type", &avail.avail_type},
        std::pair{"homeport", &avail.homeport},
        std::pair{"prior_avail_count", &avail.prior_avail_count},
        std::pair{"crew_size", &avail.crew_size}}) {
    auto value = IntegerMember(object, key, 0, kIntMin, kIntMax);
    if (!value.ok()) return value.status();
    *field = static_cast<int>(*value);
  }
  avail.ship_age_years = object.NumberOr("ship_age_years", 0);
  avail.contract_value_musd = object.NumberOr("contract_value_musd", 0);
  return avail;
}

StatusOr<Rcc> RccFromJson(const JsonValue& object) {
  if (!object.is_object()) {
    return Status::InvalidArgument("each rcc must be an object");
  }
  Rcc rcc;
  auto id = IntegerMember(object, "id", 0);
  if (!id.ok()) return id.status();
  rcc.id = *id;
  auto avail_id = IntegerMember(object, "avail_id", 0);
  if (!avail_id.ok()) return avail_id.status();
  rcc.avail_id = *avail_id;
  auto type = RccTypeFromCode(object.StringOr("type", "G"));
  if (!type.ok()) return type.status();
  rcc.type = *type;

  const JsonValue* swlin = object.Find("swlin");
  if (swlin == nullptr) {
    return Status::InvalidArgument("missing rcc member \"swlin\"");
  }
  if (swlin->is_string()) {
    auto parsed = Swlin::Parse(swlin->string_value());
    if (!parsed.ok()) return parsed.status();
    rcc.swlin = *parsed;
  } else if (swlin->is_number()) {
    auto code = IntegerFromJson(*swlin, "member \"swlin\"");
    if (!code.ok()) return code.status();
    auto parsed = Swlin::FromInt(*code);
    if (!parsed.ok()) return parsed.status();
    rcc.swlin = *parsed;
  } else {
    return Status::InvalidArgument("\"swlin\" must be a string or integer");
  }

  auto creation = DateMember(object, "creation_date", /*required=*/true);
  if (!creation.ok()) return creation.status();
  rcc.creation_date = *creation;
  const JsonValue* settled = object.Find("settled_date");
  if (settled != nullptr && !settled->is_null()) {
    auto parsed = DateMember(object, "settled_date", /*required=*/true);
    if (!parsed.ok()) return parsed.status();
    rcc.settled_date = *parsed;
  }
  rcc.settled_amount = object.NumberOr("settled_amount", 0);
  return rcc;
}

StatusOr<std::vector<IngestMutation>> ParseIngestMutations(
    const JsonValue& request) {
  std::vector<IngestMutation> mutations;
  const JsonValue* avails = request.Find("avails");
  if (avails != nullptr) {
    if (!avails->is_array()) {
      return Status::InvalidArgument("\"avails\" must be an array");
    }
    for (const JsonValue& item : avails->items()) {
      auto avail = AvailFromJson(item);
      if (!avail.ok()) return avail.status();
      mutations.push_back(MakeAvailUpsert(std::move(*avail)));
    }
  }
  const JsonValue* rccs = request.Find("rccs");
  if (rccs != nullptr) {
    if (!rccs->is_array()) {
      return Status::InvalidArgument("\"rccs\" must be an array");
    }
    for (const JsonValue& item : rccs->items()) {
      auto rcc = RccFromJson(item);
      if (!rcc.ok()) return rcc.status();
      if (rcc->avail_id == 0) {
        return Status::InvalidArgument(
            "ingest rcc " + std::to_string(rcc->id) +
            " has no \"avail_id\" member");
      }
      mutations.push_back(MakeRccUpsert(std::move(*rcc)));
    }
  }
  if (mutations.empty()) {
    return Status::InvalidArgument(
        "ingest request has no \"avails\" or \"rccs\" to apply");
  }
  return mutations;
}

StatusOr<ScoreRequest> ParseScoreRequest(const JsonValue& request) {
  if (!request.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const JsonValue* avail = request.Find("avail");
  if (avail == nullptr) {
    return Status::InvalidArgument("request has no \"avail\" member");
  }
  ScoreRequest score;
  auto parsed_avail = AvailFromJson(*avail);
  if (!parsed_avail.ok()) return parsed_avail.status();
  score.avail = std::move(*parsed_avail);

  const JsonValue* rccs = request.Find("rccs");
  if (rccs != nullptr) {
    if (!rccs->is_array()) {
      return Status::InvalidArgument("\"rccs\" must be an array");
    }
    score.rccs.reserve(rccs->items().size());
    for (const JsonValue& item : rccs->items()) {
      auto rcc = RccFromJson(item);
      if (!rcc.ok()) return rcc.status();
      score.rccs.push_back(std::move(*rcc));
    }
  }
  score.t_star = request.NumberOr("t_star", 100.0);
  auto top_k = IntegerMember(request, "top_k", 5, 0, kInt64Max);
  if (!top_k.ok()) return top_k.status();
  score.top_k = static_cast<std::size_t>(*top_k);

  // Shared integrity gate: reject at parse time anything the training
  // pipeline's dataset checks would refuse (zero planned duration, RCCs
  // predating the actual start, ...) — such rows would otherwise reach
  // LogicalTime's division by planned_duration() and score NaN features.
  DOMD_RETURN_IF_ERROR(CheckRequestIntegrity(score.avail, score.rccs));
  return score;
}

StatusOr<std::optional<double>> RequestDeadlineMs(const JsonValue& request) {
  const double ms = request.NumberOr("deadline_ms", 0);
  if (ms > kMaxDeadlineMs) {
    return Status::InvalidArgument(
        "member \"deadline_ms\" must be at most 86400000 (one day)");
  }
  if (ms > 0) return std::optional<double>(ms);
  return std::optional<double>();
}

JsonValue PredictionToJson(const ServePrediction& prediction,
                           double latency_ms) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("avail_id",
          JsonValue::Number(static_cast<double>(prediction.avail_id)));
  out.Set("t_star", JsonValue::Number(prediction.t_star));
  out.Set("estimate_days", JsonValue::Number(prediction.estimate_days));
  out.Set("band_low", JsonValue::Number(prediction.band_low));
  out.Set("band_high", JsonValue::Number(prediction.band_high));
  out.Set("num_steps",
          JsonValue::Number(static_cast<double>(prediction.num_steps)));
  out.Set("bundle_version", JsonValue::String(prediction.bundle_version));
  out.Set("latency_ms", JsonValue::Number(latency_ms));
  JsonValue features = JsonValue::Array();
  for (const FeatureContribution& contribution : prediction.top_features) {
    JsonValue feature = JsonValue::Object();
    feature.Set("name", JsonValue::String(contribution.feature_name));
    feature.Set("contribution", JsonValue::Number(contribution.contribution));
    features.Append(std::move(feature));
  }
  out.Set("top_features", std::move(features));
  return out;
}

JsonValue ErrorToJson(const Status& status) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(false));
  out.Set("code", JsonValue::String(StatusCodeToString(status.code())));
  out.Set("error", JsonValue::String(status.message()));
  return out;
}

JsonValue StatsToJson(const ServeStatsSnapshot& stats) {
  JsonValue counters = JsonValue::Object();
  const auto set = [&counters](const char* key, std::uint64_t value) {
    counters.Set(key, JsonValue::Number(static_cast<double>(value)));
  };
  set("submitted", stats.submitted);
  set("accepted", stats.accepted);
  set("rejected_overload", stats.rejected_overload);
  set("rejected_shutdown", stats.rejected_shutdown);
  set("expired_deadline", stats.expired_deadline);
  set("completed_ok", stats.completed_ok);
  set("completed_error", stats.completed_error);
  set("batches", stats.batches);
  set("batched_requests", stats.batched_requests);
  set("swaps", stats.swaps);
  set("swap_failures", stats.swap_failures);
  set("batch_failures", stats.batch_failures);
  set("breaker_opens", stats.breaker_opens);
  set("rejected_breaker", stats.rejected_breaker);
  set("queue_depth_hwm", stats.queue_depth_hwm);
  set("queue_depth", stats.queue_depth);

  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("bundle_version", JsonValue::String(stats.bundle_version));
  out.Set("breaker_state",
          JsonValue::String(BreakerStateToString(stats.breaker)));
  out.Set("stats", std::move(counters));
  return out;
}

}  // namespace domd
