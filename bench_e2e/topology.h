#ifndef DOMD_BENCH_E2E_TOPOLOGY_H_
#define DOMD_BENCH_E2E_TOPOLOGY_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench_e2e/trace.h"
#include "cluster/router.h"
#include "ingest/data_store.h"
#include "serve/frontend.h"
#include "serve/prediction_service.h"
#include "serve/reactor.h"
#include "serve/replication.h"

namespace domd {
namespace bench_e2e {

/// The benchmark's fixed topology: K shards x R replicas, each replica
/// wired exactly like `domd_serve --bundle B --persist-dir D
/// --merge-threshold 2048 --retrain-root T --repl-peers ... --repl-quorum 2`
/// (every other flag at its default), behind one ClusterRouter on its own
/// Reactor with `domd_router`'s defaults. Everything runs in this process
/// and talks over real loopback TCP.
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kReplicasPerShard = 2;

struct TopologyOptions {
  std::string bundle_dir;
  /// Persist dirs and retrain roots are created under here.
  std::string work_dir;
  /// When set, every Reactor handler is wrapped in a span.
  SpanBuffer* tracer = nullptr;
};

class Cluster {
 public:
  /// One domd_serve replica.
  struct Replica {
    std::unique_ptr<Reactor> reactor;
    std::unique_ptr<PredictionService> service;
    std::unique_ptr<DataStore> store;
    std::unique_ptr<ReplicationManager> repl;
    std::unique_ptr<ServeFrontend> frontend;
    /// What the reactor handler dispatches to; null until fully wired.
    std::atomic<ServeFrontend*> live{nullptr};
    std::string retrain_root;
    int port = 0;
  };

  /// Starts every replica (in parallel, as separate processes would), then
  /// the router, and returns once the router's health verb reports every
  /// replica up and ready. `*setup_seconds` receives that wall time.
  static StatusOr<std::unique_ptr<Cluster>> Start(
      const TopologyOptions& options, double* setup_seconds);

  /// Stops the router, then every replica, joining all threads.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int router_port() const { return router_port_; }
  cluster::ClusterRouter& router() { return *router_; }
  const cluster::HostMap& host_map() const { return router_->host_map(); }
  std::size_t num_shards() const { return replicas_.size(); }
  std::size_t num_replicas() const { return replicas_.front().size(); }
  Replica& replica(std::size_t shard, std::size_t index) {
    return *replicas_[shard][index];
  }
  /// Index (into host_map().shards()) of the shard owning `avail_id`.
  std::size_t OwnerOf(std::int64_t avail_id) const;

 private:
  Cluster() = default;

  std::string root_;
  std::vector<std::vector<std::unique_ptr<Replica>>> replicas_;
  std::unique_ptr<cluster::ClusterRouter> router_;
  std::unique_ptr<Reactor> router_reactor_;
  int router_port_ = 0;
};

}  // namespace bench_e2e
}  // namespace domd

#endif  // DOMD_BENCH_E2E_TOPOLOGY_H_
