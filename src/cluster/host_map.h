#ifndef DOMD_CLUSTER_HOST_MAP_H_
#define DOMD_CLUSTER_HOST_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "common/status.h"

namespace domd {
namespace cluster {

/// One addressable shard process.
struct Endpoint {
  std::string host;
  int port = 0;

  /// "host:port" — the wire spelling used in cluster specs, logs, and
  /// metric labels.
  std::string ToString() const { return host + ":" + std::to_string(port); }
  /// Parses "host:port"; the host must be an IPv4 literal (CheckDialHost)
  /// and the port 1..65535.
  static StatusOr<Endpoint> Parse(const std::string& text);

  bool operator==(const Endpoint& other) const {
    return port == other.port && host == other.host;
  }
};

/// One shard: an id (the hash-ring token) plus its replica set. Replicas
/// serve the same partition from the same bundle; replicas[0] is the
/// primary, later entries are the hedge targets in preference order.
struct ShardSpec {
  int id = 0;
  std::vector<Endpoint> replicas;
};

/// The static host map of a cluster, loaded once at router start from a
/// JSON cluster-spec file:
///
///   {"vnodes": 64,
///    "shards": [{"id": 0, "replicas": ["127.0.0.1:7501",
///                                      "127.0.0.1:7601"]},
///               {"id": 1, "replicas": ["127.0.0.1:7502"]}]}
///
/// `vnodes` is optional (default 64) and sets the ring's virtual points
/// per shard. Shard ids must be unique, every shard needs >= 1 replica,
/// and the parsed spec carries its HashRing so every consumer partitions
/// identically.
class HostMap {
 public:
  /// An empty map (no shards) — only a placeholder for containers; real
  /// maps come from Parse/LoadFile/Create.
  HostMap() = default;

  /// Parses a cluster-spec JSON document.
  static StatusOr<HostMap> Parse(const std::string& json_text);
  /// Reads and parses a cluster-spec file.
  static StatusOr<HostMap> LoadFile(const std::string& path);
  /// Builds a host map programmatically (tests, in-process clusters).
  static StatusOr<HostMap> Create(std::vector<ShardSpec> shards,
                                  std::size_t vnodes = 64);

  const std::vector<ShardSpec>& shards() const { return shards_; }
  const HashRing& ring() const { return ring_; }
  std::size_t num_shards() const { return shards_.size(); }

  /// The shard owning `key_hash`, as an index into shards() (not the
  /// shard id — ids need not be dense).
  std::size_t OwnerIndexOf(std::uint64_t key_hash) const;
  /// The spec of the shard whose id is `shard_id`; nullptr when unknown.
  const ShardSpec* FindShard(int shard_id) const;

 private:
  std::vector<ShardSpec> shards_;  ///< sorted by shard id.
  HashRing ring_;
};

}  // namespace cluster
}  // namespace domd

#endif  // DOMD_CLUSTER_HOST_MAP_H_
