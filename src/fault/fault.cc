#include "fault/fault.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/fnv1a.h"
#include "common/strings.h"

namespace domd {
namespace fault {
namespace {

std::atomic<bool> g_enabled{false};

StatusOr<std::uint64_t> ParseCount(const std::string& text,
                                   const std::string& spec) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || text.empty()) {
    return Status::InvalidArgument("bad count \"" + text + "\" in fault policy " +
                                   spec);
  }
  return static_cast<std::uint64_t>(value);
}

StatusOr<double> ParseNumber(const std::string& text,
                             const std::string& spec) {
  const auto value = ParseDouble(text);
  if (!value.ok()) {
    return Status::InvalidArgument("bad number \"" + text +
                                   "\" in fault policy " + spec);
  }
  return *value;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

StatusOr<FaultPolicy> FaultPolicy::Parse(const std::string& text) {
  const std::vector<std::string> parts = StrSplit(text, ':');
  if (parts.empty() || parts[0].empty()) {
    return Status::InvalidArgument("empty fault policy");
  }
  FaultPolicy policy;
  const std::string& kind = parts[0];
  if (kind == "fail-nth" || kind == "fail-first" || kind == "corrupt") {
    policy.kind = kind == "fail-nth"     ? Kind::kFailNth
                  : kind == "fail-first" ? Kind::kFailFirst
                                         : Kind::kCorrupt;
    policy.n = 1;
    if (parts.size() >= 2) {
      auto n = ParseCount(parts[1], text);
      if (!n.ok()) return n.status();
      policy.n = *n;
    }
    if (policy.n == 0 && policy.kind != Kind::kCorrupt) {
      return Status::InvalidArgument("fault policy " + text +
                                     " needs a count >= 1");
    }
    if (policy.kind == Kind::kCorrupt && parts.size() >= 3) {
      auto seed = ParseCount(parts[2], text);
      if (!seed.ok()) return seed.status();
      policy.seed = *seed;
    }
    if (policy.kind != Kind::kCorrupt && parts.size() > 2) {
      return Status::InvalidArgument("trailing fields in fault policy " + text);
    }
    return policy;
  }
  if (kind == "fail-prob") {
    if (parts.size() < 2) {
      return Status::InvalidArgument("fail-prob needs a probability: " + text);
    }
    policy.kind = Kind::kFailProb;
    auto p = ParseNumber(parts[1], text);
    if (!p.ok()) return p.status();
    if (*p < 0.0 || *p > 1.0) {
      return Status::InvalidArgument("fail-prob probability must be in [0,1]: " +
                                     text);
    }
    policy.probability = *p;
    if (parts.size() >= 3) {
      auto seed = ParseCount(parts[2], text);
      if (!seed.ok()) return seed.status();
      policy.seed = *seed;
    }
    return policy;
  }
  if (kind == "latency-ms") {
    if (parts.size() < 2) {
      return Status::InvalidArgument("latency-ms needs a duration: " + text);
    }
    policy.kind = Kind::kLatencyMs;
    auto ms = ParseNumber(parts[1], text);
    if (!ms.ok()) return ms.status();
    if (*ms < 0.0) {
      return Status::InvalidArgument("latency-ms must be >= 0: " + text);
    }
    policy.latency_ms = *ms;
    return policy;
  }
  return Status::InvalidArgument(
      "unknown fault policy \"" + kind +
      "\" (want fail-nth | fail-first | fail-prob | latency-ms | corrupt)");
}

std::string FaultPolicy::ToString() const {
  switch (kind) {
    case Kind::kFailNth:
      return "fail-nth:" + std::to_string(n);
    case Kind::kFailFirst:
      return "fail-first:" + std::to_string(n);
    case Kind::kFailProb:
      return "fail-prob:" + std::to_string(probability) + ":" +
             std::to_string(seed);
    case Kind::kLatencyMs:
      return "latency-ms:" + std::to_string(latency_ms);
    case Kind::kCorrupt:
      return "corrupt:" + std::to_string(n) + ":" + std::to_string(seed);
  }
  return "?";
}

FaultPoint::FaultPoint(std::string name) : name_(std::move(name)) {}

void FaultPoint::Arm(const FaultPolicy& policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  policy_ = policy;
  // Fresh deterministic stream per Arm: the same (seed, point) schedule
  // replays identically however many times it is re-armed. The stream
  // index is the point name's FNV-1a, so two points armed with the same
  // seed still draw decorrelated sequences.
  rng_ = Rng::ForStream(policy.seed, Fnv1a(name_));
  hit_count_ = 0;
  injected_count_ = 0;
}

void FaultPoint::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  policy_.reset();
}

std::optional<FaultPolicy> FaultPoint::policy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return policy_;
}

std::uint64_t FaultPoint::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hit_count_;
}

std::uint64_t FaultPoint::injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_count_;
}

void FaultPoint::ResetCounters() {
  std::lock_guard<std::mutex> lock(mutex_);
  hit_count_ = 0;
  injected_count_ = 0;
}

Status FaultPoint::Check() {
  if (!Enabled()) return Status::OK();
  double sleep_ms = 0.0;
  Status injected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!policy_.has_value()) return Status::OK();
    ++hit_count_;
    switch (policy_->kind) {
      case FaultPolicy::Kind::kFailNth:
        if (hit_count_ == policy_->n) {
          ++injected_count_;
          injected = Status::IoError("injected fault at " + name_ + " (hit #" +
                                     std::to_string(hit_count_) + ")");
        }
        break;
      case FaultPolicy::Kind::kFailFirst:
        if (hit_count_ <= policy_->n) {
          ++injected_count_;
          injected = Status::IoError("injected fault at " + name_ + " (hit #" +
                                     std::to_string(hit_count_) + ")");
        }
        break;
      case FaultPolicy::Kind::kFailProb:
        if (rng_.Bernoulli(policy_->probability)) {
          ++injected_count_;
          injected = Status::IoError("injected fault at " + name_ + " (hit #" +
                                     std::to_string(hit_count_) + ")");
        }
        break;
      case FaultPolicy::Kind::kLatencyMs:
        if (policy_->latency_ms > 0.0) {
          ++injected_count_;
          sleep_ms = policy_->latency_ms;
        }
        break;
      case FaultPolicy::Kind::kCorrupt:
        break;  // corrupt policies only fire through MaybeCorrupt.
    }
  }
  if (sleep_ms > 0.0) {
    // Sleep outside the lock so a latency point never serializes
    // concurrent hitters more than the real slow resource would.
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
  return injected;
}

bool FaultPoint::MaybeCorrupt(std::string* bytes) {
  if (!Enabled() || bytes == nullptr || bytes->empty()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!policy_.has_value() ||
      policy_->kind != FaultPolicy::Kind::kCorrupt) {
    return false;
  }
  ++hit_count_;
  const std::uint64_t flips = policy_->n == 0 ? 1 : policy_->n;
  for (std::uint64_t i = 0; i < flips; ++i) {
    const auto pos = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(bytes->size()) - 1));
    // xor with a non-zero mask: the byte always actually changes.
    const auto mask = static_cast<unsigned char>(rng_.UniformInt(1, 255));
    (*bytes)[pos] = static_cast<char>(
        static_cast<unsigned char>((*bytes)[pos]) ^ mask);
  }
  ++injected_count_;
  return true;
}

FaultRegistry& FaultRegistry::Default() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

FaultPoint& FaultRegistry::GetPoint(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = points_[name];
  if (slot == nullptr) slot = std::make_unique<FaultPoint>(name);
  return *slot;
}

Status FaultRegistry::ApplySpec(const std::string& spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("empty fault spec");
  }
  for (const std::string& clause : StrSplit(spec, ',')) {
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size()) {
      return Status::InvalidArgument("fault spec clause \"" + clause +
                                     "\" is not point=policy");
    }
    auto policy = FaultPolicy::Parse(clause.substr(eq + 1));
    if (!policy.ok()) return policy.status();
    GetPoint(clause.substr(0, eq)).Arm(*policy);
  }
  return Status::OK();
}

void FaultRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, point] : points_) {
    point->Disarm();
    point->ResetCounters();
  }
}

std::vector<std::string> FaultRegistry::PointNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, point] : points_) names.push_back(name);
  return names;
}

std::uint64_t FaultRegistry::TotalInjected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, point] : points_) total += point->injected();
  return total;
}

std::uint64_t FaultRegistry::TotalHits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, point] : points_) total += point->hits();
  return total;
}

ScopedFaultInjection::ScopedFaultInjection(const std::string& spec)
    : previous_(Enabled()) {
  const Status status = FaultRegistry::Default().ApplySpec(spec);
  if (!status.ok()) std::abort();  // malformed spec is a test bug.
  SetEnabled(true);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultRegistry::Default().Clear();
  SetEnabled(previous_);
}

}  // namespace fault
}  // namespace domd
