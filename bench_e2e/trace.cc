#include "bench_e2e/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace domd {
namespace bench_e2e {
namespace {

constexpr const char* kSpanNames[kNumSpanNames] = {
    "client.point.routed",  "client.point.direct",
    "client.scatter.routed", "client.scatter.direct",
    "client.detached.routed", "client.detached.direct",
    "client.ingest.routed", "client.ingest.direct",
    "client.retrain.direct", "router.point",
    "router.scatter",       "router.detached",
    "router.ingest",        "router.control",
    "shard.point",          "shard.detached",
    "shard.ingest",         "shard.replicate",
    "shard.control",        "shard.health",
    "wire.parse.point",     "wire.parse.detached",
    "wire.parse.ingest",    "wire.score_request",
    "wire.ingest_mutations", "wire.serialize",
    "bundle.score_ref",     "query.statusq",
    "replay.detached",      "features.build_view",
    "ml.predict_per_step",  "ml.attribution",
    "core.fuse",            "bundle.score_batch.b1",
    "bundle.score_batch.bavg", "service.predict",
    "service.swap",         "core.train",
    "bundle.write",         "bundle.load",
    "ingest.append_batch",  "ingest.snapshot_dirty",
    "ingest.merge",         "repl.apply",
};

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int32_t> open_spans;

}  // namespace

const char* SpanNameString(SpanName name) {
  return name < kNumSpanNames ? kSpanNames[name] : "unknown";
}

SpanBuffer::SpanBuffer(std::size_t capacity) : spans_(capacity) {}

std::int32_t SpanBuffer::Begin(SpanName name, std::uint64_t request) {
  if (!enabled()) return -1;
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& span = spans_[slot];
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  span.start = NowNs();
  open_spans.push_back(static_cast<std::int32_t>(slot));
  return static_cast<std::int32_t>(slot);
}

void SpanBuffer::End(std::int32_t slot) {
  if (slot < 0) return;
  spans_[static_cast<std::size_t>(slot)].end = NowNs();
  if (!open_spans.empty() && open_spans.back() == slot) open_spans.pop_back();
}

std::int32_t SpanBuffer::Record(SpanName name, Nanos start, Nanos end,
                                std::int32_t parent, std::uint64_t request) {
  if (!enabled()) return -1;
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  spans_[slot] = Span{name, parent, request, start, end};
  return static_cast<std::int32_t>(slot);
}

std::size_t SpanBuffer::size() const {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

void SpanBuffer::LinkByContainment(const std::vector<SpanName>& parent_names,
                                   const std::vector<SpanName>& child_names) {
  const auto named = [](const std::vector<SpanName>& names, SpanName name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  std::vector<std::size_t> parents;
  for (std::size_t i = 0; i < size(); ++i) {
    if (named(parent_names, spans_[i].name)) parents.push_back(i);
  }
  std::sort(parents.begin(), parents.end(), [&](std::size_t a, std::size_t b) {
    return spans_[a].start < spans_[b].start;
  });
  for (std::size_t i = 0; i < size(); ++i) {
    Span& child = spans_[i];
    if (child.parent >= 0 || !named(child_names, child.name)) continue;
    auto it = std::upper_bound(
        parents.begin(), parents.end(), child.start,
        [&](Nanos start, std::size_t p) { return start < spans_[p].start; });
    if (it == parents.begin()) continue;
    const std::size_t p = *(it - 1);
    if (child.end <= spans_[p].end) {
      child.parent = static_cast<std::int32_t>(p);
      child.request = spans_[p].request;
    }
  }
}

std::vector<double> SpanBuffer::DurationsUs(SpanName name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < size(); ++i) {
    const Span& span = spans_[i];
    if (span.name == name && span.end >= span.start) {
      out.push_back(static_cast<double>(span.end - span.start) / 1e3);
    }
  }
  return out;
}

std::vector<double> SpanBuffer::SelfTimesUs(SpanName name) const {
  std::vector<std::vector<std::size_t>> children(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const std::int32_t parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < size(); ++i) {
    const Span& span = spans_[i];
    if (span.name != name || span.end < span.start) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<Nanos, Nanos>> covered;
    for (std::size_t c : children[i]) {
      covered.emplace_back(std::max(span.start, spans_[c].start),
                           std::min(span.end, spans_[c].end));
    }
    std::sort(covered.begin(), covered.end());
    Nanos busy = 0;
    Nanos cursor = span.start;
    for (const auto& [from, to] : covered) {
      const Nanos begin = std::max(from, cursor);
      if (to > begin) {
        busy += to - begin;
        cursor = to;
      }
    }
    out.push_back(static_cast<double>(span.end - span.start - busy) / 1e3);
  }
  return out;
}

Status SpanBuffer::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(file, "name\tstart_ns\tend_ns\tparent\trequest\n");
  for (std::size_t i = 0; i < size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%s\t%lld\t%lld\t%d\t%llu\n", SpanNameString(span.name),
                 static_cast<long long>(span.start),
                 static_cast<long long>(span.end), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  const bool ok = std::fclose(file) == 0;
  return ok ? Status::OK() : Status::IoError("cannot write " + path);
}

}  // namespace bench_e2e
}  // namespace domd
