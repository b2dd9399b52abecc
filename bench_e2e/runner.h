#ifndef DOMD_BENCH_E2E_RUNNER_H_
#define DOMD_BENCH_E2E_RUNNER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_e2e/line_client.h"
#include "bench_e2e/topology.h"
#include "bench_e2e/trace.h"
#include "bench_e2e/traffic.h"
#include "cache/view_cache.h"
#include "serve/model_bundle.h"

namespace domd {
namespace bench_e2e {

/// `domd generate`'s default seed: the served fleet. The held-out fleet of
/// detached requests is generated at the next seed.
inline constexpr std::uint64_t kFleetSeed = 42;

struct RunConfig {
  Workload workload = Workload::kPointRead;
  std::uint64_t seed = 11;
  /// Measured time: the fixed-rate window plus the saturation phase.
  double seconds = 10.0;
  bool traced = false;
  /// Small fleet, one setup, short phases: the correctness smoke test.
  bool smoke = false;
  /// Scratch space for fleets, bundles and persist dirs (removed at exit).
  std::string work_dir;
};

enum Phase : std::uint8_t { kWarmup, kWindow, kSaturation };

/// Tracing alternates off and on in blocks of this length during the
/// measured phases of a traced run (odd blocks traced), so one run yields
/// both sides of the tracing-overhead comparison.
inline constexpr Nanos kTraceBlockNs = 250'000'000;

/// Most requests the generator keeps outstanding in the warm-up and the
/// window (as many as the saturation phase's 4 x 32). When a stall of the
/// host holds up the answers, later sends wait for a slot instead of
/// overflowing the router's 512-deep worker queue, whose refusals would
/// fail the run; their latency still counts from the scheduled time.
inline constexpr std::size_t kMaxInFlight = 128;

/// One request and what came back.
struct Exchange {
  Kind kind = kPoint;
  std::uint32_t tag = 0;
  Phase phase = kWindow;
  bool traced_block = false;  ///< sent while server-side tracing was on.
  bool answered = false;
  bool ok = false;            ///< the response carried "ok": true.
  Nanos scheduled = 0;
  Nanos sent = 0;
  Nanos received = 0;
  /// Kept for verification (saturation keeps a sample only).
  std::string response;

  double LatencyMs() const {
    return static_cast<double>(received - scheduled) / 1e6;
  }
};

/// In-process counters sampled across the measured phases.
struct LayerCounters {
  std::uint64_t routed = 0;           ///< router single-shard forwards.
  std::uint64_t service_batches = 0;  ///< summed over replicas.
  std::uint64_t service_batched_requests = 0;
  std::uint64_t service_queue_hwm = 0;  ///< max over replicas.
  std::uint64_t merges = 0;
  std::size_t pending_max = 0;
  std::uint64_t repl_lag_max = 0;
  ViewCacheStats cache;  ///< deltas from before the first setup.
};

/// Wire-replay results of a traced run (cluster up, no other traffic).
struct WireReplay {
  std::vector<double> point_hop_us;     ///< routed minus direct, per line.
  std::vector<double> scatter_hop_us;
  std::vector<double> detached_hop_us;
  std::vector<double> ingest_hop_us;
  std::vector<double> detached_routed_ms;
  std::vector<double> ingest_routed_ms;
  double retrain_direct_ms = 0.0;       ///< one replica, one retrain.
  double ingest_fanout = 1.0;           ///< mean shards touched per batch.
};

/// Runs one workload end to end: fleet + bundle preparation, repeated
/// cluster set-up, warm-up, the fixed-rate window, the saturation phase,
/// every correctness check, and (traced runs) the wire replay.
class Runner {
 public:
  explicit Runner(RunConfig config);
  ~Runner();

  /// Generates the fleets and every request the run will send.
  Status PrepareTraffic();
  /// Trains, writes and loads the v1 bundle. Not part of any metric:
  /// users pay it once per model, not per start.
  Status PrepareBundle();
  /// Everything else. Correctness failures do not make this fail; they
  /// land in failures().
  Status Execute(SpanBuffer* tracer);

  const RunConfig& config() const { return config_; }
  Traffic& traffic() { return *traffic_; }
  const Dataset& fleet() const { return fleet_snapshot_->data(); }
  const std::shared_ptr<const ModelBundle>& bundle() const { return bundle_; }

  const std::vector<double>& setup_seconds() const { return setup_seconds_; }
  const std::deque<Exchange>& exchanges() const { return exchanges_; }
  const std::vector<double>& gen_lag_us() const { return gen_lag_us_; }
  const LayerCounters& counters() const { return counters_; }
  const WireReplay& wire() const { return wire_; }
  Nanos window_start() const { return window_start_; }
  double window_seconds() const { return window_seconds_; }
  Nanos saturation_start() const { return saturation_start_; }
  double saturation_seconds() const { return saturation_seconds_; }
  std::size_t saturation_completions() const { return saturation_done_; }
  /// Server CPU seconds (the process's minus the generator thread's) spent
  /// from the window's start until its last answer arrived.
  double window_cpu_seconds() const { return window_cpu_seconds_; }
  /// Traced runs: server CPU seconds per second over the window's blocks
  /// with tracing on (`traced`) or off.
  double block_cpu_rate(bool traced) const {
    return block_seconds_[traced] > 0 ? block_cpu_[traced] / block_seconds_[traced]
                                      : 0.0;
  }
  /// Retrain loop: completed control cycles and their summed wall time.
  std::size_t cycles_done() const { return cycles_done_; }
  double cycles_seconds() const { return cycles_seconds_; }

  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& invalid_reasons() const {
    return invalid_reasons_;
  }

 private:
  struct ControlLoop;

  /// Builds the request line, records its exchange and sends it on
  /// `conn`, due at `scheduled`.
  const Exchange& Issue(PipelinedDriver* driver, int conn, Kind kind,
                        std::uint32_t tag, Nanos scheduled, bool traced_block);
  /// The driver callback that routes every response to OnResponse.
  PipelinedDriver::ResponseFn Handler(PipelinedDriver* driver);
  void RunPhase(PipelinedDriver* driver, const std::vector<Planned>& plan,
                Phase phase, double seconds, SpanBuffer* tracer);
  void RunSaturation(PipelinedDriver* driver, double seconds,
                     SpanBuffer* tracer);
  void Drain(PipelinedDriver* driver);
  void OnResponse(PipelinedDriver* driver, int conn,
                  const PipelinedDriver::Sent& sent, std::string_view line,
                  Nanos received);
  void SendControl(PipelinedDriver* driver);
  void Verify(Cluster* cluster);
  void VerifyIngest(Cluster* cluster, const JsonValue& freshness);
  void ReplayWire(Cluster* cluster, SpanBuffer* tracer);
  void CollectCounters(Cluster* cluster);
  void Fail(std::string message);

  RunConfig config_;
  std::string bundle_dir_;
  std::unique_ptr<DataStore> fleet_store_;
  std::shared_ptr<const DataSnapshot> fleet_snapshot_;
  Dataset held_out_;
  std::shared_ptr<const ModelBundle> bundle_;
  std::unique_ptr<Traffic> traffic_;

  std::vector<double> setup_seconds_;
  /// Stable addresses: responses land in entries while more are appended.
  /// The driver's per-request tag is the index here.
  std::deque<Exchange> exchanges_;
  std::string line_;  ///< scratch request line.
  std::vector<double> gen_lag_us_;
  Phase phase_ = kWarmup;
  bool saturating_ = false;
  Nanos phase_end_ = 0;
  Nanos window_start_ = 0;
  double window_seconds_ = 0.0;
  Nanos saturation_start_ = 0;
  std::size_t saturation_sample_ = 0;
  std::size_t saturation_done_ = 0;
  double saturation_seconds_ = 0.0;
  double window_cpu_seconds_ = 0.0;
  double block_cpu_[2] = {0.0, 0.0};
  double block_seconds_[2] = {0.0, 0.0};
  std::unique_ptr<ControlLoop> control_;
  std::size_t cycles_done_ = 0;
  double cycles_seconds_ = 0.0;

  LayerCounters counters_;
  ViewCacheStats cache_before_;
  WireReplay wire_;
  std::vector<std::string> failures_;
  std::vector<std::string> invalid_reasons_;
};

}  // namespace bench_e2e
}  // namespace domd

#endif  // DOMD_BENCH_E2E_RUNNER_H_
