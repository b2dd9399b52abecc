#include "bench_e2e/traffic.h"

#include <algorithm>
#include <cmath>

#include "cache/fingerprint.h"

namespace domd {
namespace bench_e2e {
namespace {

/// One Poisson arrival stream of a kind over some connections.
struct Stream {
  Kind kind;
  double rate;
  std::vector<std::uint8_t> conns;
};

std::uint64_t HashLine(std::uint64_t hash, const std::string& line) {
  for (const char c : line) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return FingerprintMix(hash, line.size());
}

/// Seeds the order in which IngestGenerator ranks the avails, the same for
/// every run seed: when the seed chose the hottest avail, that choice set
/// what a window of ingest cost (two seeds of ten used ~20% more server CPU
/// than the rest in every set of runs).
constexpr std::uint64_t kIngestRankSeed = 0;

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPointRead:
      return "point_read";
    case Workload::kDetachedScore:
      return "detached_score";
    case Workload::kIngestRw:
      return "ingest_rw";
    case Workload::kRetrainLoop:
      return "retrain_loop";
  }
  return "unknown";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPointRead, Workload::kDetachedScore,
                     Workload::kIngestRw, Workload::kRetrainLoop}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* KindName(Kind kind) {
  static constexpr const char* kNames[kNumKinds] = {
      "point", "scatter", "detached", "ingest", "freshness", "retrain"};
  return kind < kNumKinds ? kNames[kind] : "unknown";
}

double GridTStar(std::size_t index) { return 10.0 * static_cast<double>(index); }

ZipfSampler::ZipfSampler(std::size_t n, double exponent) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

JsonValue AvailToJson(const Avail& avail) {
  JsonValue out = JsonValue::Object();
  const auto number = [&out](const char* key, double value) {
    out.Set(key, JsonValue::Number(value));
  };
  number("id", static_cast<double>(avail.id));
  number("ship_id", static_cast<double>(avail.ship_id));
  out.Set("status", JsonValue::String(AvailStatusToString(avail.status)));
  out.Set("planned_start", JsonValue::String(avail.planned_start.ToString()));
  out.Set("planned_end", JsonValue::String(avail.planned_end.ToString()));
  out.Set("actual_start", JsonValue::String(avail.actual_start.ToString()));
  if (avail.actual_end.has_value()) {
    out.Set("actual_end", JsonValue::String(avail.actual_end->ToString()));
  }
  number("ship_class", avail.ship_class);
  number("rmc_id", avail.rmc_id);
  number("ship_age_years", avail.ship_age_years);
  number("avail_type", avail.avail_type);
  number("homeport", avail.homeport);
  number("prior_avail_count", avail.prior_avail_count);
  number("contract_value_musd", avail.contract_value_musd);
  number("crew_size", avail.crew_size);
  return out;
}

JsonValue RccToJson(const Rcc& rcc, bool with_avail_id) {
  JsonValue out = JsonValue::Object();
  out.Set("id", JsonValue::Number(static_cast<double>(rcc.id)));
  if (with_avail_id) {
    out.Set("avail_id", JsonValue::Number(static_cast<double>(rcc.avail_id)));
  }
  out.Set("type", JsonValue::String(RccTypeToCode(rcc.type)));
  out.Set("swlin", JsonValue::String(rcc.swlin.ToString()));
  out.Set("creation_date", JsonValue::String(rcc.creation_date.ToString()));
  if (rcc.settled_date.has_value()) {
    out.Set("settled_date", JsonValue::String(rcc.settled_date->ToString()));
  }
  out.Set("settled_amount", JsonValue::Number(rcc.settled_amount));
  return out;
}

IngestGenerator::IngestGenerator(const Dataset& fleet, std::uint64_t seed)
    : rng_(Rng::ForStream(seed, 0x1A6E57)),
      zipf_(fleet.avails.size(), kZipfExponent) {
  avails_ = fleet.avails.rows();
  Rng shuffle = Rng::ForStream(kIngestRankSeed, 0x5A17);
  shuffle.Shuffle(&avails_);
  rccs_by_avail_.resize(avails_.size());
  for (std::size_t i = 0; i < avails_.size(); ++i) {
    avail_index_[avails_[i].id] = i;
  }
  for (const Rcc& rcc : fleet.rccs.rows()) {
    rccs_by_avail_[avail_index_.at(rcc.avail_id)].push_back(rccs_.size());
    rccs_.push_back(rcc);
    next_rcc_id_ = std::max(next_rcc_id_, rcc.id + 1);
  }
}

Rcc IngestGenerator::Amend(Rcc rcc) {
  if (!rcc.settled_date.has_value()) {
    rcc.settled_date = rcc.creation_date + rng_.UniformInt(1, 90);
    rcc.settled_amount = std::round(rng_.Uniform(1e3, 2e5));
  } else {
    rcc.settled_amount =
        std::round(rcc.settled_amount * rng_.Uniform(0.9, 1.1) * 100) / 100;
  }
  return rcc;
}

Rcc IngestGenerator::Fresh(std::int64_t avail_id) {
  const Avail& avail = avails_[avail_index_.at(avail_id)];
  std::int64_t span = avail.planned_duration();
  if (const auto actual = avail.actual_duration(); actual.has_value()) {
    span = std::min(span, *actual);
  }
  Rcc rcc;
  rcc.id = next_rcc_id_++;
  rcc.avail_id = avail_id;
  rcc.type = static_cast<RccType>(rng_.UniformInt(0, kNumRccTypes - 1));
  rcc.swlin = *Swlin::FromInt(rng_.UniformInt(10000000, 99999999));
  rcc.creation_date =
      avail.actual_start + rng_.UniformInt(0, std::max<std::int64_t>(0, span));
  if (rng_.Bernoulli(0.5)) {
    rcc.settled_date = rcc.creation_date + rng_.UniformInt(1, 90);
    rcc.settled_amount = std::round(rng_.Uniform(1e3, 2e5));
  }
  return rcc;
}

std::string IngestGenerator::NextBatch(std::size_t count, bool amend_only) {
  JsonValue rccs = JsonValue::Array();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t rank = zipf_.Sample(&rng_);
    std::vector<std::size_t>& owned = rccs_by_avail_[rank];
    if (!amend_only && (owned.empty() || rng_.Bernoulli(0.2))) {
      owned.push_back(rccs_.size());
      rccs_.push_back(Fresh(avails_[rank].id));
      rccs.Append(RccToJson(rccs_.back(), true));
      continue;
    }
    if (owned.empty()) continue;
    const std::size_t pick = owned[static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(owned.size()) - 1))];
    rccs_[pick] = Amend(rccs_[pick]);
    rccs.Append(RccToJson(rccs_[pick], true));
  }
  JsonValue out = JsonValue::Object();
  out.Set("cmd", JsonValue::String("ingest"));
  out.Set("rccs", std::move(rccs));
  return out.Serialize();
}

std::string IngestGenerator::ShiftAvailEnd(std::int64_t avail_id,
                                           int delta_days) {
  Avail& avail = avails_[avail_index_.at(avail_id)];
  avail.actual_end = *avail.actual_end + delta_days;
  JsonValue avails = JsonValue::Array();
  avails.Append(AvailToJson(avail));
  JsonValue out = JsonValue::Object();
  out.Set("cmd", JsonValue::String("ingest"));
  out.Set("avails", std::move(avails));
  return out.Serialize();
}

std::int64_t IngestGenerator::ShiftableAvail() const {
  for (const Avail& avail : avails_) {
    if (avail.actual_end.has_value()) return avail.id;
  }
  return avails_.front().id;
}

Traffic::Traffic(Workload workload, std::uint64_t seed, const Dataset& fleet,
                 const Dataset& held_out)
    : workload_(workload),
      seed_(seed),
      rng_(Rng::ForStream(seed, 0x5A7)),
      avail_zipf_(fleet.avails.size(), kZipfExponent),
      pool_zipf_(std::min(kDetachedPoolSize, held_out.avails.size()),
                 kZipfExponent),
      ingest_(fleet, seed) {
  for (const Avail& avail : fleet.avails.rows()) {
    point_avails_.push_back(avail.id);
  }
  Rng shuffle = Rng::ForStream(seed, 0x9017);
  shuffle.Shuffle(&point_avails_);
  shift_avail_ = ingest_.ShiftableAvail();

  // Detached pool: whole avails of the held-out fleet, RCC stream included,
  // taking the avails whose stream length is nearest the fleet's median so
  // every seed offers about the same work per request (the Zipf skew would
  // otherwise let one outsized avail set a seed's load).
  std::vector<std::pair<std::size_t, std::int64_t>> by_size;
  for (const Avail& avail : held_out.avails.rows()) {
    by_size.emplace_back(held_out.rccs.RowsForAvail(avail.id).size(),
                         avail.id);
  }
  std::sort(by_size.begin(), by_size.end());
  const std::size_t median = by_size.empty() ? 0 : by_size[by_size.size() / 2].first;
  std::stable_sort(by_size.begin(), by_size.end(),
                   [median](const auto& a, const auto& b) {
                     const auto distance = [median](std::size_t n) {
                       return n > median ? n - median : median - n;
                     };
                     return distance(a.first) < distance(b.first);
                   });
  std::vector<std::int64_t> pool_ids;
  for (std::size_t i = 0; i < std::min(kDetachedPoolSize, by_size.size());
       ++i) {
    pool_ids.push_back(by_size[i].second);
  }
  Rng pool_shuffle = Rng::ForStream(seed, 0xDE7);
  pool_shuffle.Shuffle(&pool_ids);
  for (const std::int64_t id : pool_ids) {
    const Avail& avail = **held_out.avails.Find(id);
    JsonValue rccs = JsonValue::Array();
    for (const std::size_t row : held_out.rccs.RowsForAvail(id)) {
      rccs.Append(RccToJson(held_out.rccs.rows()[row], false));
    }
    std::string body = "{\"avail\":" + AvailToJson(avail).Serialize() +
                       ",\"rccs\":" + rccs.Serialize() +
                       ",\"top_k\":5,\"t_star\":";
    detached_bodies_.push_back(std::move(body));
    detached_ships_.push_back(avail.ship_id);
  }
}

std::uint32_t Traffic::PointTag(Rng* rng) const {
  const std::size_t rank = avail_zipf_.Sample(rng);
  return PackTag(rank, static_cast<std::size_t>(rng->UniformInt(0, 10)));
}

std::uint32_t Traffic::DetachedTag(Rng* rng) const {
  const std::size_t rank = pool_zipf_.Sample(rng);
  return PackTag(rank, static_cast<std::size_t>(rng->UniformInt(0, 10)));
}

std::uint32_t Traffic::NewScatter(Rng* rng) {
  std::vector<std::int64_t> ids;
  while (ids.size() < kScatterWidth) {
    const std::int64_t id = point_avails_[avail_zipf_.Sample(rng)];
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  scatters_.push_back(std::move(ids));
  return PackTag(scatters_.size() - 1,
                 static_cast<std::size_t>(rng->UniformInt(0, 10)));
}

std::uint32_t Traffic::NewIngestBatch(std::size_t rccs, bool amend_only) {
  ingest_lines_.push_back(ingest_.NextBatch(rccs, amend_only));
  return static_cast<std::uint32_t>(ingest_lines_.size() - 1);
}

std::uint32_t Traffic::NewAvailShift(int delta_days) {
  ingest_lines_.push_back(ingest_.ShiftAvailEnd(shift_avail_, delta_days));
  return static_cast<std::uint32_t>(ingest_lines_.size() - 1);
}

std::vector<Planned> Traffic::Schedule(double seconds, std::uint64_t stream) {
  std::vector<Stream> streams;
  switch (workload_) {
    case Workload::kPointRead:
      streams = {{kPoint, kPointReadRps * (1.0 - kScatterShare), {0, 1, 2}},
                 {kScatter, kPointReadRps * kScatterShare, {3}}};
      break;
    case Workload::kDetachedScore:
      streams = {{kDetached, kDetachedRps, {0, 1, 2}},
                 {kPoint, kBackgroundPointRps, {3}}};
      break;
    case Workload::kIngestRw:
      streams = {{kIngest, kIngestBatchesPerSecond, {0}},
                 {kFreshness, kFreshnessPerSecond, {1}},
                 {kPoint, kBackgroundPointRps, {2, 3}}};
      break;
    case Workload::kRetrainLoop:
      // Connection 0 carries the closed-loop control cycle.
      streams = {{kPoint, kBackgroundPointRps, {1, 2, 3}}};
      break;
  }
  Rng rng = Rng::ForStream(seed_, 0x5C4ED + stream);
  std::vector<Planned> plan;
  for (const Stream& s : streams) {
    // A Poisson process conditioned on its count: rate x seconds arrivals
    // at independent uniform times. Bursts are as in any Poisson stream,
    // but every seed offers the same number of requests.
    const auto count = static_cast<std::size_t>(std::lround(s.rate * seconds));
    for (std::size_t i = 0; i < count; ++i) {
      Planned p;
      p.due = static_cast<Nanos>(rng.Uniform() * seconds * 1e9);
      p.kind = s.kind;
      p.conn = s.conns[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(s.conns.size()) - 1))];
      plan.push_back(p);
    }
  }
  std::sort(plan.begin(), plan.end(),
            [](const Planned& a, const Planned& b) { return a.due < b.due; });
  // Tags are drawn in send order so the content follows the schedule.
  for (Planned& p : plan) {
    switch (p.kind) {
      case kPoint:
        p.tag = PointTag(&rng);
        break;
      case kScatter:
        p.tag = NewScatter(&rng);
        break;
      case kDetached:
        p.tag = DetachedTag(&rng);
        break;
      case kIngest:
        p.tag = NewIngestBatch(kIngestBatchRccs, false);
        break;
      default:
        p.tag = 0;
    }
  }
  return plan;
}

std::pair<Kind, std::uint32_t> Traffic::NextSaturation() {
  switch (workload_) {
    case Workload::kPointRead:
      return {kPoint, PointTag(&rng_)};
    case Workload::kDetachedScore:
      return {kDetached, DetachedTag(&rng_)};
    case Workload::kIngestRw:
      return {kIngest, NewIngestBatch(kIngestBatchRccs, false)};
    case Workload::kRetrainLoop:
      break;
  }
  return {kPoint, PointTag(&rng_)};
}

std::string Traffic::DetachedLine(std::size_t pool_index,
                                  std::size_t t_index) const {
  return detached_bodies_[pool_index] +
         std::to_string(static_cast<int>(GridTStar(t_index))) + "}";
}

void Traffic::Line(Kind kind, std::uint32_t tag, std::string* out) {
  out->clear();
  switch (kind) {
    case kPoint:
      *out = "{\"avail_id\":" + std::to_string(point_avails_[TagItem(tag)]) +
             ",\"t_star\":" +
             std::to_string(static_cast<int>(GridTStar(TagTStar(tag)))) + "}";
      return;
    case kScatter: {
      *out = "{\"avail_ids\":[";
      const auto& ids = scatter_ids(tag);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i > 0) out->push_back(',');
        *out += std::to_string(ids[i]);
      }
      *out += "],\"t_star\":" +
              std::to_string(static_cast<int>(GridTStar(TagTStar(tag)))) + "}";
      return;
    }
    case kDetached:
      *out = DetachedLine(TagItem(tag), TagTStar(tag));
      return;
    case kIngest:
      *out = ingest_lines_[tag];
      return;
    case kFreshness:
      *out = "{\"cmd\":\"freshness\"}";
      return;
    case kRetrain:
      *out = "{\"cmd\":\"retrain\",\"version\":\"r" + std::to_string(tag) +
             "\"}";
      return;
    case kNumKinds:
      return;
  }
}

std::uint64_t Traffic::Digest() const {
  Traffic copy = *this;
  std::uint64_t hash = kFingerprintSeed;
  std::string line;
  for (const Planned& p : copy.Schedule(1.0, 1)) {
    copy.Line(p.kind, p.tag, &line);
    hash = FingerprintMix(HashLine(hash, line),
                          static_cast<std::uint64_t>(p.due) ^ p.conn);
  }
  for (std::size_t i = 0; i < copy.detached_pool_size(); ++i) {
    hash = HashLine(hash, copy.DetachedLine(i, 5));
  }
  for (int i = 0; i < 4; ++i) {
    hash = HashLine(hash, copy.ingest_lines_[copy.NewIngestBatch(
                              kRetrainAmendRccs, true)]);
  }
  return hash;
}

}  // namespace bench_e2e
}  // namespace domd
