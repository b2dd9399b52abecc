#include "cluster/hash_ring.h"

#include <algorithm>
#include <set>
#include <string>

#include "common/fnv1a.h"

namespace domd {
namespace cluster {
namespace {

/// The ring's FNV-1a seed: FNV's offset basis short of its last decimal
/// digit. Every placement ever computed used it, so it stays.
constexpr std::uint64_t kRingSeed = 1469598103934665603ull;

}  // namespace

std::uint64_t HashKey(std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return Fnv1a(std::string_view(bytes, sizeof(bytes)), kRingSeed);
}

StatusOr<HashRing> HashRing::Create(const std::vector<int>& shard_ids,
                                    std::size_t vnodes_per_shard) {
  if (shard_ids.empty()) {
    return Status::InvalidArgument("hash ring needs at least one shard");
  }
  if (vnodes_per_shard == 0) {
    return Status::InvalidArgument("vnodes_per_shard must be >= 1");
  }
  std::set<int> seen;
  for (const int id : shard_ids) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("duplicate shard id " +
                                     std::to_string(id) + " in hash ring");
    }
  }

  HashRing ring;
  ring.num_shards_ = shard_ids.size();
  ring.vnodes_per_shard_ = vnodes_per_shard;
  ring.points_.reserve(shard_ids.size() * vnodes_per_shard);
  for (const int id : shard_ids) {
    for (std::size_t v = 0; v < vnodes_per_shard; ++v) {
      const std::string label =
          "shard/" + std::to_string(id) + "/" + std::to_string(v);
      ring.points_.push_back(
          Point{Fnv1a(label, kRingSeed), id});
    }
  }
  // Hash collisions between virtual points are astronomically unlikely but
  // the tie-break keeps placement deterministic even then.
  std::sort(ring.points_.begin(), ring.points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
  return ring;
}

int HashRing::OwnerOf(std::uint64_t key_hash) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key_hash,
      [](const Point& point, std::uint64_t hash) { return point.hash < hash; });
  if (it == points_.end()) it = points_.begin();  // wrap around.
  return it->shard;
}

std::vector<int> HashRing::ReplicasFor(std::uint64_t key_hash,
                                       std::size_t count) const {
  std::vector<int> replicas;
  if (count == 0) return replicas;
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key_hash,
      [](const Point& point, std::uint64_t hash) { return point.hash < hash; });
  std::set<int> seen;
  for (std::size_t step = 0; step < points_.size(); ++step) {
    if (it == points_.end()) it = points_.begin();
    if (seen.insert(it->shard).second) {
      replicas.push_back(it->shard);
      if (replicas.size() == count || replicas.size() == num_shards_) break;
    }
    ++it;
  }
  return replicas;
}

}  // namespace cluster
}  // namespace domd
