// Serving load harness: replays a seeded synthetic workload against the
// PredictionService from concurrent client threads, performs one mid-run
// bundle hot-swap, and checks the zero-downtime contract — every request
// gets a valid response tagged with a bundle version, every estimate is
// bit-identical to the tagged bundle's reference answer (zero torn
// models), and overload answers an explicit RESOURCE_EXHAUSTED reject.
// It also times the reference (point) scoring call, which must equal the
// estimator's own query bit for bit. Throughput and latency percentiles
// land in BENCH_serving.json.

#include <sys/epoll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/hash_ring.h"
#include "cluster/router.h"
#include "cluster/upstream.h"
#include "common/stats.h"
#include "core/domd_estimator.h"
#include "obs/stage.h"
#include "serve/frontend.h"
#include "serve/prediction_service.h"
#include "serve/reactor.h"

namespace domd {
namespace {

constexpr std::size_t kClientThreads = 4;
constexpr std::size_t kRequestsPerThread = 40;
constexpr std::size_t kRequestPool = 12;
/// Interleaved solo/batched repetitions of the batch-scoring stage; each
/// side reads the median of its repetitions.
constexpr int kBatchScoringReps = 21;

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double Percentile(std::vector<double> sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// A detached request carrying a copy of a reference avail + RCC stream.
ScoreRequest MakeDetachedRequest(const Dataset& data, std::int64_t avail_id) {
  ScoreRequest request;
  for (const Avail& avail : data.avails.rows()) {
    if (avail.id == avail_id) request.avail = avail;
  }
  std::int64_t next_id = 1;
  for (const Rcc& rcc : data.rccs.rows()) {
    if (rcc.avail_id != avail_id) continue;
    request.rccs.push_back(rcc);
    request.rccs.back().id = next_id++;
  }
  return request;
}

struct LoadPhaseResult {
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
  std::size_t torn = 0;
  std::size_t failed = 0;
  std::map<std::string, std::size_t> per_version;
};

// ---- Open-loop many-connection phase ------------------------------------

constexpr std::size_t kOpenLoopConnections = 1024;
constexpr double kOpenLoopTargetRps = 1500.0;
constexpr std::size_t kOpenLoopRequests = 3000;

struct OpenLoopResult {
  bool ran = false;          ///< false = could not set up (fd limit etc.).
  std::size_t connections = 0;
  std::size_t requests = 0;
  std::size_t responses = 0;
  std::size_t invalid = 0;   ///< malformed or error responses.
  double wall_seconds = 0.0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Lifts the soft RLIMIT_NOFILE toward the hard limit so the bench can
/// hold >2k sockets (client + server side) at once.
void RaiseFdLimit(rlim_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= want) return;
  lim.rlim_cur = std::min<rlim_t>(lim.rlim_max, want);
  ::setrlimit(RLIMIT_NOFILE, &lim);
}

using TimePoint = std::chrono::steady_clock::time_point;

/// Dials a bench server's loopback port; an invalid connection on failure.
cluster::UpstreamConn DialLoopback(int port) {
  auto conn = cluster::UpstreamConn::Dial(
      {"127.0.0.1", port},
      std::chrono::steady_clock::now() + std::chrono::seconds(5));
  return conn.ok() ? std::move(*conn) : cluster::UpstreamConn();
}

/// One request/response round trip on `conn`, bounded by 10 s.
StatusOr<std::string> Exchange(cluster::UpstreamConn& conn,
                               const std::string& line) {
  const TimePoint deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  DOMD_RETURN_IF_ERROR(conn.SendLine(line, deadline));
  return conn.ReadLine(deadline);
}

/// Drives the epoll reactor front-end with kOpenLoopConnections sockets in
/// open-loop mode: requests go out on the target-rps schedule regardless
/// of response progress, so a slow server shows up as latency, not as a
/// reduced offered load. Requests are cheap reference-fleet scores
/// (`avail_id` verb), every response line is validated, and responses on
/// one connection are matched to its sends in order (NDJSON pipelining
/// guarantees in-order responses per connection).
OpenLoopResult RunOpenLoop(std::shared_ptr<const ModelBundle> bundle,
                           const Dataset& data) {
  OpenLoopResult out;
  RaiseFdLimit(3 * kOpenLoopConnections + 64);

  ServeOptions serve_options;
  serve_options.max_queue_depth = 512;
  PredictionService service(std::move(bundle), serve_options);
  ServeFrontend frontend(&service, FrontendOptions{});
  ReactorOptions reactor_options;
  reactor_options.num_shards = 2;
  reactor_options.max_connections = kOpenLoopConnections + 64;
  auto reactor = Reactor::Create(
      reactor_options, [&frontend](std::string line, Responder responder) {
        frontend.Handle(std::move(line), std::move(responder));
      });
  if (!reactor.ok()) {
    std::fprintf(stderr, "open-loop: reactor create failed: %s\n",
                 reactor.status().ToString().c_str());
    return out;
  }
  const int port = (*reactor)->port();

  // One request line per reference avail, reused round-robin.
  std::vector<std::string> requests;
  for (const Avail& avail : data.avails.rows()) {
    requests.push_back("{\"avail_id\": " + std::to_string(avail.id) +
                       ", \"t_star\": 60}");
  }

  std::vector<cluster::UpstreamConn> conns;
  std::vector<std::deque<TimePoint>> in_flight(kOpenLoopConnections);
  const int client_epoll = ::epoll_create1(0);
  if (client_epoll < 0) return out;
  for (std::size_t i = 0; i < kOpenLoopConnections; ++i) {
    cluster::UpstreamConn conn = DialLoopback(port);
    if (!conn.valid()) break;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(client_epoll, EPOLL_CTL_ADD, conn.fd(), &ev);
    conns.push_back(std::move(conn));
  }
  out.connections = conns.size();
  if (out.connections < kOpenLoopConnections) {
    std::fprintf(stderr, "open-loop: only %zu/%zu connections\n",
                 out.connections, kOpenLoopConnections);
  }
  out.ran = !conns.empty();
  if (!out.ran) {
    ::close(client_epoll);
    return out;
  }

  std::vector<double> latencies;
  latencies.reserve(kOpenLoopRequests);
  std::size_t sent = 0;
  const auto start = std::chrono::steady_clock::now();

  const auto drain = [&](int wait_ms) {
    epoll_event events[128];
    const int n = ::epoll_wait(client_epoll, events, 128, wait_ms);
    for (int e = 0; e < n; ++e) {
      const std::size_t index = static_cast<std::size_t>(events[e].data.u64);
      // A deadline already past reads only the lines that have arrived.
      for (auto line = conns[index].ReadLine(TimePoint{}); line.ok();
           line = conns[index].ReadLine(TimePoint{})) {
        ++out.responses;
        if (in_flight[index].empty()) {
          ++out.invalid;  // response with no matching request.
          continue;
        }
        const TimePoint sent_at = in_flight[index].front();
        in_flight[index].pop_front();
        latencies.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - sent_at)
                                .count());
        // A valid answer is a JSON object with "ok": true and a tagged
        // bundle version; anything else (error, truncation) is invalid.
        if (line->find("\"ok\":true") == std::string::npos ||
            line->find("\"bundle_version\"") == std::string::npos) {
          ++out.invalid;
        }
      }
    }
  };

  while (sent < kOpenLoopRequests) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const auto due = std::min<std::size_t>(
        kOpenLoopRequests,
        static_cast<std::size_t>(elapsed * kOpenLoopTargetRps));
    while (sent < due) {
      const std::size_t index = sent % conns.size();
      // Request lines are tiny; a send that fails here would mean the
      // server stopped reading entirely, which the final accounting
      // (responses < requests) surfaces anyway.
      conns[index].SendLine(
          requests[sent % requests.size()],
          std::chrono::steady_clock::now() + std::chrono::seconds(1));
      in_flight[index].push_back(std::chrono::steady_clock::now());
      ++sent;
    }
    drain(1);
  }
  out.requests = sent;

  // Drain the tail: everything in flight should answer promptly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (out.responses < out.requests &&
         std::chrono::steady_clock::now() < deadline) {
    drain(10);
  }
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  out.achieved_rps = out.wall_seconds > 0
                         ? static_cast<double>(out.responses) /
                               out.wall_seconds
                         : 0.0;
  std::sort(latencies.begin(), latencies.end());
  out.p50_ms = Percentile(latencies, 50);
  out.p99_ms = Percentile(latencies, 99);

  conns.clear();
  ::close(client_epoll);
  (*reactor)->Stop();
  (*reactor)->Wait();
  return out;
}

// ---- Cluster phase ------------------------------------------------------
//
// The sharded serving tier (DESIGN.md §12): K in-process serve stacks
// behind a real ClusterRouter on its own reactor, driven over TCP. The
// scale sweep reports routed throughput at K = 1, 2, 4 with every
// response validated; the chaos sample kills a primary replica mid-load
// and checks that hedged retries keep the error count bounded.

constexpr std::size_t kClusterClientThreads = 4;
constexpr std::size_t kClusterRequestsPerThread = 150;
constexpr std::size_t kChaosRequests = 300;

/// One in-process serve stack (the objects domd_serve wires up) on an
/// ephemeral loopback port.
struct BenchShard {
  std::unique_ptr<PredictionService> service;
  std::unique_ptr<ServeFrontend> frontend;
  std::unique_ptr<Reactor> reactor;
  int port = 0;

  static std::unique_ptr<BenchShard> Start(
      std::shared_ptr<const ModelBundle> bundle) {
    auto shard = std::make_unique<BenchShard>();
    shard->service = std::make_unique<PredictionService>(std::move(bundle));
    shard->frontend = std::make_unique<ServeFrontend>(shard->service.get(),
                                                      FrontendOptions{});
    ReactorOptions options;
    options.port = 0;
    options.num_shards = 1;
    ServeFrontend* frontend = shard->frontend.get();
    auto reactor = Reactor::Create(
        options, [frontend](std::string line, Responder responder) {
          frontend->Handle(std::move(line), std::move(responder));
        });
    if (!reactor.ok()) return nullptr;
    shard->reactor = std::move(*reactor);
    shard->port = shard->reactor->port();
    return shard;
  }

  void Kill() { reactor.reset(); }  // connections die; service stays up.
};

/// K shards (each `replicas_per_shard` stacks over the same bundle)
/// fronted by the cluster router on its own reactor.
struct BenchCluster {
  std::vector<std::vector<std::unique_ptr<BenchShard>>> shards;
  std::unique_ptr<cluster::ClusterRouter> router;
  std::unique_ptr<Reactor> router_reactor;
  int router_port = 0;

  static std::unique_ptr<BenchCluster> Start(
      std::size_t num_shards, std::size_t replicas_per_shard,
      std::shared_ptr<const ModelBundle> bundle,
      cluster::RouterOptions options) {
    auto out = std::make_unique<BenchCluster>();
    std::vector<cluster::ShardSpec> specs;
    for (std::size_t s = 0; s < num_shards; ++s) {
      out->shards.emplace_back();
      cluster::ShardSpec spec;
      spec.id = static_cast<int>(s);
      for (std::size_t r = 0; r < replicas_per_shard; ++r) {
        auto shard = BenchShard::Start(bundle);
        if (shard == nullptr) return nullptr;
        spec.replicas.push_back({"127.0.0.1", shard->port});
        out->shards.back().push_back(std::move(shard));
      }
      specs.push_back(std::move(spec));
    }
    auto host_map = cluster::HostMap::Create(std::move(specs));
    if (!host_map.ok()) return nullptr;
    out->router = std::make_unique<cluster::ClusterRouter>(
        std::move(*host_map), options);
    ReactorOptions reactor_options;
    reactor_options.port = 0;
    reactor_options.num_shards = 1;
    cluster::ClusterRouter* router = out->router.get();
    auto reactor = Reactor::Create(
        reactor_options, [router](std::string line, Responder responder) {
          router->Handle(std::move(line), std::move(responder));
        });
    if (!reactor.ok()) return nullptr;
    out->router_reactor = std::move(*reactor);
    out->router_port = out->router_reactor->port();
    return out;
  }
};

struct ClusterScalePoint {
  std::size_t shards = 0;
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t invalid = 0;
  double wall_seconds = 0.0;
  double rps = 0.0;
};

struct ClusterChaosResult {
  bool ran = false;
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::uint64_t hedged = 0;
};

struct ClusterResult {
  bool ran = false;
  std::vector<ClusterScalePoint> scale;
  ClusterChaosResult chaos;
};

cluster::RouterOptions BenchRouterOptions() {
  cluster::RouterOptions options;
  options.workers = 4;
  options.hedge_deadline = std::chrono::milliseconds(300);
  options.probe_interval = std::chrono::milliseconds(200);
  return options;
}

/// A routed answer is valid when it carries the serve success contract —
/// the router forwards shard responses verbatim, so the check matches the
/// open-loop phase exactly.
bool ValidRoutedResponse(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos &&
         line.find("\"bundle_version\"") != std::string::npos;
}

ClusterResult RunCluster(std::shared_ptr<const ModelBundle> bundle,
                         const Dataset& data) {
  ClusterResult out;

  std::vector<std::string> requests;
  for (const Avail& avail : data.avails.rows()) {
    requests.push_back("{\"avail_id\": " + std::to_string(avail.id) +
                       ", \"t_star\": 60}");
  }

  // ---- Scale sweep: closed-loop clients, single replica per shard.
  for (const std::size_t num_shards : {std::size_t{1}, std::size_t{2},
                                       std::size_t{4}}) {
    auto cluster = BenchCluster::Start(num_shards, 1, bundle,
                                       BenchRouterOptions());
    if (cluster == nullptr) {
      std::fprintf(stderr, "cluster: start failed at K=%zu\n", num_shards);
      return out;
    }
    ClusterScalePoint point;
    point.shards = num_shards;
    std::atomic<std::size_t> ok{0}, invalid{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kClusterClientThreads; ++t) {
      clients.emplace_back([&, t] {
        cluster::UpstreamConn client = DialLoopback(cluster->router_port);
        if (!client.valid()) {
          invalid.fetch_add(kClusterRequestsPerThread);
          return;
        }
        for (std::size_t i = 0; i < kClusterRequestsPerThread; ++i) {
          const std::size_t slot =
              (t * kClusterRequestsPerThread + i) % requests.size();
          const auto response = Exchange(client, requests[slot]);
          if (response.ok() && ValidRoutedResponse(*response)) {
            ok.fetch_add(1);
          } else {
            invalid.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    point.requests = kClusterClientThreads * kClusterRequestsPerThread;
    point.ok = ok.load();
    point.invalid = invalid.load();
    point.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    point.rps = point.wall_seconds > 0
                    ? static_cast<double>(point.ok) / point.wall_seconds
                    : 0.0;
    out.scale.push_back(point);
  }

  // ---- Chaos sample: two shards x two replicas; the primary of shard 0
  // dies mid-load and hedged retries absorb the failure.
  auto cluster = BenchCluster::Start(2, 2, bundle, BenchRouterOptions());
  if (cluster == nullptr) {
    std::fprintf(stderr, "cluster: chaos start failed\n");
    return out;
  }
  cluster::UpstreamConn client = DialLoopback(cluster->router_port);
  if (!client.valid()) return out;
  out.chaos.requests = kChaosRequests;
  for (std::size_t i = 0; i < kChaosRequests; ++i) {
    if (i == kChaosRequests / 2) cluster->shards[0][0]->Kill();
    const auto response = Exchange(client, requests[i % requests.size()]);
    if (response.ok() && ValidRoutedResponse(*response)) {
      ++out.chaos.ok;
    } else {
      ++out.chaos.failed;
    }
  }
  out.chaos.hedged = cluster->router->stats().hedged;
  out.chaos.ran = true;
  out.ran = true;
  return out;
}

/// Cluster pass contract: every scale point answers every request
/// validly, and the chaos run keeps failures within 2% with at least one
/// hedge observed (proof the failover path actually ran).
bool ClusterPass(const ClusterResult& cluster) {
  if (!cluster.ran || cluster.scale.size() != 3) return false;
  for (const ClusterScalePoint& point : cluster.scale) {
    if (point.ok != point.requests || point.invalid != 0) return false;
  }
  return cluster.chaos.ran &&
         cluster.chaos.failed <= cluster.chaos.requests / 50 &&
         cluster.chaos.hedged >= 1;
}

// ---- Reference-scoring phase ----------------------------------------------

constexpr std::size_t kReferenceSweeps = 5;

struct ReferenceScoringResult {
  std::size_t calls = 0;
  double score_ref_us_p50 = 0.0;
  bool bit_identical = true;
};

/// True when a reference answer equals the bundle estimator's own query
/// bit for bit: fused estimate, step count, band over the steps, and the
/// last step's drivers (names and contributions).
bool SameAnswer(const ServePrediction& scored, const DomdQueryResult& query) {
  double low = query.steps.front().estimated_delay_days;
  double high = low;
  for (const DomdStepEstimate& step : query.steps) {
    low = std::min(low, step.estimated_delay_days);
    high = std::max(high, step.estimated_delay_days);
  }
  const auto& drivers = query.steps.back().top_features;
  bool same = BitIdentical(scored.estimate_days, query.fused_estimate_days) &&
              scored.num_steps == query.steps.size() &&
              BitIdentical(scored.band_low, low) &&
              BitIdentical(scored.band_high, high) &&
              scored.top_features.size() == drivers.size();
  for (std::size_t i = 0; same && i < drivers.size(); ++i) {
    same = scored.top_features[i].feature_name == drivers[i].feature_name &&
           BitIdentical(scored.top_features[i].contribution,
                        drivers[i].contribution);
  }
  return same;
}

/// Checks ScoreReferenceAvail against QueryAtLogicalTime on every
/// reference avail at every grid t*, then times it over kReferenceSweeps
/// sweeps of the same calls.
ReferenceScoringResult RunReferenceScoring(const ModelBundle& bundle) {
  ReferenceScoringResult out;
  for (const Avail& avail : bundle.data().avails.rows()) {
    for (const double t_star : bundle.grid()) {
      const auto scored = bundle.ScoreReferenceAvail(avail.id, t_star);
      const auto query =
          bundle.estimator().QueryAtLogicalTime(avail.id, t_star);
      out.bit_identical = out.bit_identical && scored.ok() && query.ok() &&
                          SameAnswer(*scored, *query);
    }
  }
  std::vector<double> micros;
  for (std::size_t sweep = 0; sweep < kReferenceSweeps; ++sweep) {
    for (const Avail& avail : bundle.data().avails.rows()) {
      for (const double t_star : bundle.grid()) {
        const auto start = std::chrono::steady_clock::now();
        const auto scored = bundle.ScoreReferenceAvail(avail.id, t_star);
        micros.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
        if (!scored.ok()) out.bit_identical = false;
      }
    }
  }
  out.calls = micros.size();
  std::sort(micros.begin(), micros.end());
  out.score_ref_us_p50 = Percentile(micros, 50);
  return out;
}

int Run() {
  bench::Banner("Serving: micro-batched scoring with mid-run hot-swap");
  obs::StageRecorder recorder;
  const auto stage_clock = [] { return std::chrono::steady_clock::now(); };
  const auto stage_seconds = [](std::chrono::steady_clock::time_point from,
                                std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  auto stage_start = stage_clock();

  // Two bundles from two deliberately different stacks, so a torn model
  // (estimate from one stack tagged with the other's version) is
  // detectable bit-exactly.
  SynthConfig synth;
  synth.seed = 91;
  synth.num_avails = 40;
  synth.mean_rccs_per_avail = 60.0;
  const Dataset data = GenerateDataset(synth);
  Rng rng(92);
  const DataSplit split = *MakeSplit(data.avails, SplitOptions{}, &rng);

  PipelineConfig config;
  config.num_features = 20;
  config.gbt.num_rounds = 30;
  config.gbt.tree.max_depth = 3;
  config.window_width_pct = 25.0;
  auto estimator_v1 = DomdEstimator::Train(&data, config, split.train);
  PipelineConfig config2 = config;
  config2.gbt.num_rounds = 12;
  auto estimator_v2 = DomdEstimator::Train(&data, config2, split.train);
  if (!estimator_v1.ok() || !estimator_v2.ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }
  recorder.Record("train_two_bundles", stage_seconds(stage_start,
                                                     stage_clock()));
  stage_start = stage_clock();

  const std::string root =
      (std::filesystem::temp_directory_path() / "domd_bench_serving")
          .string();
  if (!ModelBundle::Write(*estimator_v1, data, root + "/v1", "v1").ok() ||
      !ModelBundle::Write(*estimator_v2, data, root + "/v2", "v2").ok()) {
    std::fprintf(stderr, "bundle write failed\n");
    return 1;
  }
  auto v1 = ModelBundle::Load(root + "/v1");
  auto v2 = ModelBundle::Load(root + "/v2");
  if (!v1.ok() || !v2.ok()) {
    std::fprintf(stderr, "bundle load failed\n");
    return 1;
  }
  recorder.Record("bundle_io", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // Seeded workload: a pool of detached requests over the reference fleet,
  // with per-bundle expected estimates precomputed by solo scoring. The
  // load phase then asserts batch-composition invariance for free.
  std::vector<ScoreRequest> pool;
  for (std::size_t i = 0; i < kRequestPool; ++i) {
    pool.push_back(MakeDetachedRequest(
        data, data.avails.rows()[i % data.avails.size()].id));
  }
  std::map<std::string, std::vector<double>> expected;
  for (const auto& [bundle, tag] :
       {std::pair{*v1, "v1"}, std::pair{*v2, "v2"}}) {
    for (const ScoreRequest& request : pool) {
      const auto solo = bundle->ScoreBatch({request});
      if (!solo[0].ok()) {
        std::fprintf(stderr, "precompute failed: %s\n",
                     solo[0].status().ToString().c_str());
        return 1;
      }
      expected[tag].push_back(solo[0]->estimate_days);
    }
  }

  recorder.Record("precompute_expected",
                  stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Batch-scoring phase: the whole request pool in one ScoreBatch
  // (one dataset, one feature sweep, the breadth-first batch scorer over
  // row blocks per step) against the same requests scored one at a time.
  // The batched path must be bit-identical to solo scoring and at least as
  // fast per row. One run of a side is too short to time once, so each
  // side reads the median of kBatchScoringReps repetitions, interleaved
  // with the other side's and alternating which goes first.
  struct BatchScoringResult {
    std::size_t rows = 0;
    double solo_seconds = 0.0;
    double batch_seconds = 0.0;
    bool bit_identical = false;
    double solo_rows_per_s() const {
      return solo_seconds > 0 ? static_cast<double>(rows) / solo_seconds : 0;
    }
    double batch_rows_per_s() const {
      return batch_seconds > 0 ? static_cast<double>(rows) / batch_seconds
                               : 0;
    }
    bool pass() const {
      return bit_identical && batch_rows_per_s() >= solo_rows_per_s();
    }
  };
  BatchScoringResult batch_scoring;
  batch_scoring.rows = pool.size();
  batch_scoring.bit_identical = true;
  const auto time_solo = [&] {
    return bench::TimeSeconds(
        [&] {
          for (const ScoreRequest& request : pool) {
            if (!(*v1)->ScoreBatch({request})[0].ok()) std::abort();
          }
        },
        1);
  };
  const auto time_batch = [&] {
    std::vector<StatusOr<ServePrediction>> batched;
    const double seconds =
        bench::TimeSeconds([&] { batched = (*v1)->ScoreBatch(pool); }, 1);
    bool same = batched.size() == pool.size();
    for (std::size_t i = 0; same && i < batched.size(); ++i) {
      same = batched[i].ok() &&
             BitIdentical(batched[i]->estimate_days, expected["v1"][i]);
    }
    batch_scoring.bit_identical = batch_scoring.bit_identical && same;
    return seconds;
  };
  std::vector<double> solo_runs, batch_runs;
  for (int rep = 0; rep < kBatchScoringReps; ++rep) {
    if (rep % 2 == 0) {
      solo_runs.push_back(time_solo());
      batch_runs.push_back(time_batch());
    } else {
      batch_runs.push_back(time_batch());
      solo_runs.push_back(time_solo());
    }
  }
  batch_scoring.solo_seconds = Median(solo_runs);
  batch_scoring.batch_seconds = Median(batch_runs);
  std::printf("batch scoring: %zu rows, median of %d interleaved reps: "
              "solo %.0f rows/s, batched %.0f rows/s (%.2fx), "
              "identical=%s\n",
              batch_scoring.rows, kBatchScoringReps,
              batch_scoring.solo_rows_per_s(),
              batch_scoring.batch_rows_per_s(),
              batch_scoring.solo_seconds > 0 && batch_scoring.batch_seconds > 0
                  ? batch_scoring.solo_seconds / batch_scoring.batch_seconds
                  : 0.0,
              batch_scoring.bit_identical ? "yes" : "NO");
  recorder.Record("batch_scoring", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Reference-scoring phase: the point verb's bundle call on every
  // reference avail at every grid t*, identical to the estimator's query.
  const ReferenceScoringResult reference = RunReferenceScoring(**v1);
  std::printf("reference scoring: %zu calls, p50 %.2f us, identical=%s\n",
              reference.calls, reference.score_ref_us_p50,
              reference.bit_identical ? "yes" : "NO");
  recorder.Record("reference_scoring",
                  stage_seconds(stage_start, stage_clock()));

  // ---- Load phase: kClientThreads concurrent clients, one mid-run swap.
  ServeOptions options;
  options.max_queue_depth = 256;
  options.max_batch_size = 16;
  options.batch_linger = std::chrono::microseconds(200);
  PredictionService service(*v1, options);

  LoadPhaseResult load;
  std::mutex load_mutex;
  std::atomic<std::size_t> completed{0};
  const auto wall_start = std::chrono::steady_clock::now();

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<double> latencies;
      std::size_t torn = 0, failed = 0;
      std::map<std::string, std::size_t> versions;
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t slot = (t * kRequestsPerThread + i) % pool.size();
        const auto start = std::chrono::steady_clock::now();
        const auto result = service.Predict(pool[slot]);
        latencies.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
        if (!result.ok()) {
          ++failed;
        } else {
          const auto it = expected.find(result->bundle_version);
          if (it == expected.end() ||
              !BitIdentical(result->estimate_days, it->second[slot])) {
            ++torn;
          } else {
            ++versions[result->bundle_version];
          }
        }
        completed.fetch_add(1);
      }
      std::lock_guard<std::mutex> lock(load_mutex);
      load.latencies_ms.insert(load.latencies_ms.end(), latencies.begin(),
                               latencies.end());
      load.torn += torn;
      load.failed += failed;
      for (const auto& [version, count] : versions) {
        load.per_version[version] += count;
      }
    });
  }
  // Hot-swap v1 -> v2 once roughly a quarter of the way through the run.
  const std::size_t swap_after = kClientThreads * kRequestsPerThread / 4;
  while (completed.load() < swap_after) std::this_thread::yield();
  service.SwapBundle(*v2);
  const std::size_t swap_at = completed.load();
  for (std::thread& client : clients) client.join();
  load.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  // Post-swap check: the very next batch must already serve v2.
  const auto after = service.Predict(pool[0]);
  const bool post_swap_v2 =
      after.ok() && after->bundle_version == "v2" &&
      BitIdentical(after->estimate_days, expected["v2"][0]);
  const ServeStatsSnapshot load_stats = service.stats();
  recorder.Record("load_phase", load.wall_seconds);
  stage_start = stage_clock();

  // ---- Overload phase: a tiny admission queue under a burst must reject
  // with the explicit backpressure status and still answer every accepted
  // request.
  ServeOptions tight;
  tight.max_queue_depth = 2;
  tight.batch_linger = std::chrono::milliseconds(20);
  PredictionService throttled(*v1, tight);
  std::vector<std::future<StatusOr<ServePrediction>>> burst;
  for (std::size_t i = 0; i < 32; ++i) {
    burst.push_back(throttled.Submit(pool[i % pool.size()]));
  }
  std::size_t burst_ok = 0, burst_rejected = 0, burst_other = 0;
  for (auto& future : burst) {
    const auto result = future.get();
    if (result.ok()) {
      ++burst_ok;
    } else if (result.status().code() == StatusCode::kResourceExhausted) {
      ++burst_rejected;
    } else {
      ++burst_other;
    }
  }

  recorder.Record("overload_burst", stage_seconds(stage_start,
                                                  stage_clock()));
  stage_start = stage_clock();

  // ---- Open-loop phase: the epoll reactor front-end under 1k+ sockets
  // at a fixed offered rate, every response validated on the wire.
  const OpenLoopResult open_loop = RunOpenLoop(*v1, data);
  recorder.Record("open_loop", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Cluster phase: the sharded tier behind the consistent-hash
  // router, scaled across K and sampled under a replica kill.
  const ClusterResult cluster = RunCluster(*v1, data);
  recorder.Record("cluster", stage_seconds(stage_start, stage_clock()));

  // ---- Report.
  std::sort(load.latencies_ms.begin(), load.latencies_ms.end());
  const double p50 = Percentile(load.latencies_ms, 50);
  const double p95 = Percentile(load.latencies_ms, 95);
  const double p99 = Percentile(load.latencies_ms, 99);
  const std::size_t total = kClientThreads * kRequestsPerThread;
  const double throughput =
      load.wall_seconds > 0 ? static_cast<double>(total) / load.wall_seconds
                            : 0.0;

  std::printf("clients %zu x %zu requests, swap at completion %zu\n",
              kClientThreads, kRequestsPerThread, swap_at);
  std::printf("throughput %.1f req/s, latency p50 %.2f ms, p95 %.2f ms, "
              "p99 %.2f ms\n",
              throughput, p50, p95, p99);
  std::printf("versions: v1=%zu v2=%zu, torn=%zu, failed=%zu, "
              "post-swap v2 ok=%s\n",
              load.per_version["v1"], load.per_version["v2"], load.torn,
              load.failed, post_swap_v2 ? "yes" : "NO");
  std::printf("batches %llu (avg %.2f req/batch), queue hwm %llu\n",
              static_cast<unsigned long long>(load_stats.batches),
              load_stats.batches
                  ? static_cast<double>(load_stats.batched_requests) /
                        static_cast<double>(load_stats.batches)
                  : 0.0,
              static_cast<unsigned long long>(load_stats.queue_depth_hwm));
  std::printf("overload burst: %zu ok, %zu rejected, %zu other\n", burst_ok,
              burst_rejected, burst_other);
  std::printf("open loop: %zu connections, %zu/%zu responses (%zu invalid), "
              "%.0f rps achieved (target %.0f), p50 %.2f ms, p99 %.2f ms\n",
              open_loop.connections, open_loop.responses, open_loop.requests,
              open_loop.invalid, open_loop.achieved_rps, kOpenLoopTargetRps,
              open_loop.p50_ms, open_loop.p99_ms);
  for (const ClusterScalePoint& point : cluster.scale) {
    std::printf("cluster K=%zu: %zu/%zu ok (%zu invalid), %.0f rps\n",
                point.shards, point.ok, point.requests, point.invalid,
                point.rps);
  }
  std::printf("cluster chaos: %zu/%zu ok, %zu failed, hedged %llu\n",
              cluster.chaos.ok, cluster.chaos.requests, cluster.chaos.failed,
              static_cast<unsigned long long>(cluster.chaos.hedged));

  const bool open_loop_pass = open_loop.ran &&
                              open_loop.connections >= kOpenLoopConnections &&
                              open_loop.responses == open_loop.requests &&
                              open_loop.invalid == 0;
  const bool cluster_pass = ClusterPass(cluster);
  const bool pass = load.torn == 0 && load.failed == 0 && post_swap_v2 &&
                    load.per_version["v1"] > 0 &&
                    load.per_version["v1"] + load.per_version["v2"] ==
                        total &&
                    load_stats.swaps == 1 && burst_rejected > 0 &&
                    burst_other == 0 && burst_ok > 0 && open_loop_pass &&
                    cluster_pass && batch_scoring.pass() &&
                    reference.bit_identical;

  std::ofstream json("BENCH_serving.json");
  json << "{\n  \"bench\": \"serving\",\n";
  json << "  \"fleet\": {\"num_avails\": " << data.avails.size()
       << ", \"num_rccs\": " << data.rccs.size() << "},\n";
  json << "  \"client_threads\": " << kClientThreads
       << ",\n  \"requests\": " << total << ",\n";
  json << "  \"throughput_rps\": " << throughput << ",\n";
  json << "  \"latency_ms\": {\"p50\": " << p50 << ", \"p95\": " << p95
       << ", \"p99\": " << p99 << "},\n";
  json << "  \"batches\": " << load_stats.batches
       << ",\n  \"avg_batch_size\": "
       << (load_stats.batches
               ? static_cast<double>(load_stats.batched_requests) /
                     static_cast<double>(load_stats.batches)
               : 0.0)
       << ",\n";
  json << "  \"hot_swap\": {\"at_completion\": " << swap_at
       << ", \"v1_responses\": " << load.per_version["v1"]
       << ", \"v2_responses\": " << load.per_version["v2"]
       << ", \"torn_responses\": " << load.torn
       << ", \"post_swap_serves_v2\": " << (post_swap_v2 ? "true" : "false")
       << "},\n";
  json << "  \"overload\": {\"burst\": " << burst.size()
       << ", \"ok\": " << burst_ok << ", \"rejected\": " << burst_rejected
       << ", \"queue_depth\": " << tight.max_queue_depth << "},\n";
  json << "  \"batch_scoring\": {\"rows\": " << batch_scoring.rows
       << ", \"reps\": " << kBatchScoringReps
       << ", \"solo_rows_per_s\": " << batch_scoring.solo_rows_per_s()
       << ", \"batch_rows_per_s\": " << batch_scoring.batch_rows_per_s()
       << ", \"bit_identical\": "
       << (batch_scoring.bit_identical ? "true" : "false")
       << ", \"pass\": " << (batch_scoring.pass() ? "true" : "false")
       << "},\n";
  json << "  \"reference_scoring\": {\"avails\": " << data.avails.size()
       << ", \"grid_points\": " << (*v1)->grid().size()
       << ", \"sweeps\": " << kReferenceSweeps
       << ", \"calls\": " << reference.calls
       << ", \"score_ref_us_p50\": " << reference.score_ref_us_p50
       << ", \"bit_identical\": "
       << (reference.bit_identical ? "true" : "false") << "},\n";
  json << "  \"open_loop\": {\"connections\": " << open_loop.connections
       << ", \"target_rps\": " << kOpenLoopTargetRps
       << ", \"requests\": " << open_loop.requests
       << ", \"responses\": " << open_loop.responses
       << ", \"invalid\": " << open_loop.invalid
       << ", \"achieved_rps\": " << open_loop.achieved_rps
       << ", \"latency_ms\": {\"p50\": " << open_loop.p50_ms
       << ", \"p99\": " << open_loop.p99_ms
       << "}, \"pass\": " << (open_loop_pass ? "true" : "false") << "},\n";
  json << "  \"cluster\": {\"scale\": [";
  for (std::size_t i = 0; i < cluster.scale.size(); ++i) {
    const ClusterScalePoint& point = cluster.scale[i];
    json << (i ? ", " : "") << "{\"shards\": " << point.shards
         << ", \"requests\": " << point.requests << ", \"ok\": " << point.ok
         << ", \"invalid\": " << point.invalid
         << ", \"rps\": " << point.rps << "}";
  }
  json << "], \"chaos\": {\"requests\": " << cluster.chaos.requests
       << ", \"ok\": " << cluster.chaos.ok
       << ", \"failed\": " << cluster.chaos.failed
       << ", \"hedged\": " << cluster.chaos.hedged
       << "}, \"pass\": " << (cluster_pass ? "true" : "false") << "},\n";
  json << "  \"stage_timings\": " << recorder.ToJson() << ",\n";
  json << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::printf("\nwrote BENCH_serving.json (%s)\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace domd

int main() { return domd::Run(); }
