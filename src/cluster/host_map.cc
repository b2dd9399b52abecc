#include "cluster/host_map.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "serve/json.h"
#include "serve/reactor.h"
#include "serve/wire.h"

namespace domd {
namespace cluster {

StatusOr<Endpoint> Endpoint::Parse(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return Status::InvalidArgument("endpoint \"" + text +
                                   "\" is not host:port");
  }
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  if (const Status host = CheckDialHost(endpoint.host); !host.ok()) {
    return Status::InvalidArgument("endpoint \"" + text + "\": " +
                                   host.message());
  }
  const std::string port_text = text.substr(colon + 1);
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("endpoint \"" + text +
                                     "\" has a non-numeric port");
    }
  }
  const long port = std::strtol(port_text.c_str(), nullptr, 10);
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("endpoint \"" + text +
                                   "\" port out of range");
  }
  endpoint.port = static_cast<int>(port);
  return endpoint;
}

StatusOr<HostMap> HostMap::Create(std::vector<ShardSpec> shards,
                                  std::size_t vnodes) {
  if (shards.empty()) {
    return Status::InvalidArgument("cluster spec names no shards");
  }
  std::set<int> ids;
  std::vector<int> shard_ids;
  for (const ShardSpec& shard : shards) {
    if (!ids.insert(shard.id).second) {
      return Status::InvalidArgument("duplicate shard id " +
                                     std::to_string(shard.id));
    }
    if (shard.replicas.empty()) {
      return Status::InvalidArgument("shard " + std::to_string(shard.id) +
                                     " has no replicas");
    }
    shard_ids.push_back(shard.id);
  }
  auto ring = HashRing::Create(shard_ids, vnodes);
  if (!ring.ok()) return ring.status();

  HostMap map;
  map.shards_ = std::move(shards);
  std::sort(map.shards_.begin(), map.shards_.end(),
            [](const ShardSpec& a, const ShardSpec& b) { return a.id < b.id; });
  map.ring_ = std::move(*ring);
  return map;
}

StatusOr<HostMap> HostMap::Parse(const std::string& json_text) {
  auto doc = JsonValue::Parse(json_text);
  if (!doc.ok()) {
    return Status::InvalidArgument("cluster spec is not valid JSON: " +
                                   doc.status().message());
  }
  if (!doc->is_object()) {
    return Status::InvalidArgument("cluster spec must be a JSON object");
  }
  // Integers are range-checked before any cast: a fractional or
  // out-of-range "vnodes" or shard "id" (1.5, 1e12, 1e300) is rejected,
  // not truncated or wrapped.
  const auto vnodes = IntegerMember(*doc, "vnodes", 64, 1,
                                    std::numeric_limits<int>::max());
  if (!vnodes.ok()) {
    return Status::InvalidArgument("cluster spec: " +
                                   vnodes.status().message());
  }
  const JsonValue* shards_member = doc->Find("shards");
  if (shards_member == nullptr || !shards_member->is_array()) {
    return Status::InvalidArgument(
        "cluster spec needs a \"shards\" array");
  }
  std::vector<ShardSpec> shards;
  for (const JsonValue& entry : shards_member->items()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("each shard must be a JSON object");
    }
    ShardSpec shard;
    const JsonValue* id = entry.Find("id");
    if (id == nullptr || !id->is_number()) {
      return Status::InvalidArgument("each shard needs a numeric \"id\"");
    }
    const auto shard_id =
        IntegerFromJson(*id, "shard \"id\"", std::numeric_limits<int>::min(),
                        std::numeric_limits<int>::max());
    if (!shard_id.ok()) return shard_id.status();
    shard.id = static_cast<int>(*shard_id);
    const JsonValue* replicas = entry.Find("replicas");
    if (replicas == nullptr || !replicas->is_array()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard.id) +
          " needs a \"replicas\" array of \"host:port\" strings");
    }
    for (const JsonValue& replica : replicas->items()) {
      if (!replica.is_string()) {
        return Status::InvalidArgument("shard " + std::to_string(shard.id) +
                                       " replica entries must be strings");
      }
      auto endpoint = Endpoint::Parse(replica.string_value());
      if (!endpoint.ok()) return endpoint.status();
      shard.replicas.push_back(std::move(*endpoint));
    }
    shards.push_back(std::move(shard));
  }
  return Create(std::move(shards), static_cast<std::size_t>(*vnodes));
}

StatusOr<HostMap> HostMap::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open cluster spec \"" + path + "\"");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return Parse(text.str());
}

std::size_t HostMap::OwnerIndexOf(std::uint64_t key_hash) const {
  const int id = ring_.OwnerOf(key_hash);
  const auto it = std::lower_bound(
      shards_.begin(), shards_.end(), id,
      [](const ShardSpec& shard, int target) { return shard.id < target; });
  return static_cast<std::size_t>(it - shards_.begin());
}

const ShardSpec* HostMap::FindShard(int shard_id) const {
  const auto it = std::lower_bound(
      shards_.begin(), shards_.end(), shard_id,
      [](const ShardSpec& shard, int target) { return shard.id < target; });
  if (it == shards_.end() || it->id != shard_id) return nullptr;
  return &*it;
}

}  // namespace cluster
}  // namespace domd
