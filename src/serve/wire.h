#ifndef DOMD_SERVE_WIRE_H_
#define DOMD_SERVE_WIRE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/mutation.h"
#include "serve/json.h"
#include "serve/model_bundle.h"
#include "serve/prediction_service.h"

namespace domd {

/// The newline-delimited JSON wire format of `domd_serve` (one request and
/// one response object per line). Shared by the server, the CLI `predict`
/// subcommand, and the serving bench so there is exactly one codec.
///
/// Prediction request (detached scoring; README documents the schema):
///   {"avail": {...}, "rccs": [...], "t_star": 60, "top_k": 5,
///    "deadline_ms": 250}
/// Reference-fleet scoring addresses an avail of the bundle's fleet
/// instead: {"avail_id": 7, "t_star": 60}.
/// Control requests: {"cmd": "stats" | "ping" | "swap" | "shutdown"}.

/// Reads a JSON number that must hold an integer, checked before any cast:
/// kInvalidArgument unless `value` is a number v with std::trunc(v) == v
/// and min <= v <= max. `name` labels the error. Casting the double
/// directly is undefined out of range (1e300) and silently truncates a
/// fraction (7.5).
StatusOr<std::int64_t> IntegerFromJson(
    const JsonValue& value, const std::string& name,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// IntegerFromJson over the optional member `key` of `object`: `fallback`
/// when the member is absent or null.
StatusOr<std::int64_t> IntegerMember(
    const JsonValue& object, std::string_view key, std::int64_t fallback,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// A reference-fleet scoring request: {"avail_id": N, "t_star": T,
/// "top_k": K}.
struct PointRequest {
  std::int64_t avail_id = 0;
  double t_star = 100.0;
  std::size_t top_k = 5;
};

/// Parses a reference-fleet request (the server, the router and the CLI
/// share it): kInvalidArgument unless "avail_id" is an integer and
/// "top_k", when present, a non-negative one.
StatusOr<PointRequest> ParsePointRequest(const JsonValue& request);

/// Parses one JSON avail object (the schema of a prediction request's
/// "avail" member) into an Avail row.
StatusOr<Avail> AvailFromJson(const JsonValue& object);

/// Parses one JSON RCC object (the schema of a prediction request's
/// "rccs" items, plus an "avail_id" member when detached) into an Rcc row.
StatusOr<Rcc> RccFromJson(const JsonValue& object);

/// Parses the payload of an ingest request —
///   {"cmd": "ingest", "avails": [{...}], "rccs": [{...}]}
/// — into upsert mutations, avails before RCCs so one batch can introduce
/// an avail together with its RCC stream. Each RCC object must carry an
/// "avail_id" member.
StatusOr<std::vector<IngestMutation>> ParseIngestMutations(
    const JsonValue& request);

/// Parses the "avail"/"rccs"/"t_star"/"top_k" members of a request object
/// into a detached ScoreRequest. Integer members are range-checked as by
/// IntegerMember; a negative "top_k" is rejected, as on a point request.
StatusOr<ScoreRequest> ParseScoreRequest(const JsonValue& request);

/// The request's "deadline_ms" member, if present and positive;
/// kInvalidArgument above one day (1e300 would overflow the microsecond
/// clock offset it becomes).
StatusOr<std::optional<double>> RequestDeadlineMs(const JsonValue& request);

/// Renders a successful prediction (latency measured by the caller).
JsonValue PredictionToJson(const ServePrediction& prediction,
                           double latency_ms);

/// Renders an error response: {"ok":false,"code":...,"error":...}.
JsonValue ErrorToJson(const Status& status);

/// Renders the /stats-style counter snapshot.
JsonValue StatsToJson(const ServeStatsSnapshot& stats);

}  // namespace domd

#endif  // DOMD_SERVE_WIRE_H_
