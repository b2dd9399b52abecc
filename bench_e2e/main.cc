// bench_e2e — the end-to-end benchmark of the DoMD serving stack.
//
//   bench_e2e --workload point_read|detached_score|ingest_rw|retrain_loop
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--digest] [--work-dir DIR] [--trace-out FILE]
//
// Starts a 2-shard x 2-replica cluster in this process behind a real
// router on loopback TCP, drives it from one open-loop generator thread
// over at most 4 connections, checks every answer, and prints each metric
// by name and unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
// Exits nonzero when a correctness check fails. README.md defines every
// workload and metric; run.py builds this binary and runs it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_e2e/layers.h"
#include "bench_e2e/runner.h"
#include "bench_e2e/stats.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace domd {
namespace bench_e2e {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The workload's characteristic operation (its op_* metrics).
Kind OpKind(Workload workload) {
  switch (workload) {
    case Workload::kPointRead:
      return kScatter;
    case Workload::kDetachedScore:
      return kDetached;
    case Workload::kIngestRw:
      return kIngest;
    case Workload::kRetrainLoop:
      return kRetrain;
  }
  return kPoint;
}

/// Window latencies are summarized per sub-window and the sub-windows'
/// median reported, so one stalled second moves one sub-window and not the
/// run's figure.
constexpr std::size_t kSubWindows = 5;

/// Latencies (ms) of the window's answered `kind` requests, split into
/// `parts` equal sub-windows by scheduled time; `traced_block` 0/1 keeps
/// only requests sent while server-side tracing was off/on.
std::vector<std::vector<double>> WindowParts(const Runner& run, Kind kind,
                                             std::size_t parts,
                                             int traced_block = -1) {
  std::vector<std::vector<double>> out(parts);
  const double span = run.window_seconds() * 1e9;
  for (const Exchange& ex : run.exchanges()) {
    if (ex.phase != kWindow || ex.kind != kind || !ex.answered || !ex.ok) {
      continue;
    }
    if (traced_block >= 0 && ex.traced_block != (traced_block == 1)) continue;
    const double at = static_cast<double>(ex.scheduled - run.window_start());
    const auto part = std::min<std::size_t>(
        parts - 1, static_cast<std::size_t>(std::max(0.0, at / span) *
                                            static_cast<double>(parts)));
    out[part].push_back(ex.LatencyMs());
  }
  return out;
}

std::vector<double> WindowLatencies(const Runner& run, Kind kind) {
  return WindowParts(run, kind, 1)[0];
}

double P(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  return Percentile(values, pct);
}

/// Median over sub-windows of each one's pct-th percentile, using only as
/// many sub-windows (up to kSubWindows) as leave ten samples beyond the
/// percentile in each. The retrain loop's handful of retrains is thus
/// taken whole.
double WindowPercentile(const Runner& run, Kind kind, double pct,
                        int traced_block = -1) {
  const double beyond = static_cast<double>(
                            WindowParts(run, kind, 1, traced_block)[0].size()) *
                        (1.0 - pct / 100.0);
  const std::size_t parts =
      std::clamp<std::size_t>(static_cast<std::size_t>(beyond / 10.0), 1,
                              kSubWindows);
  std::vector<double> per_part;
  for (const auto& part : WindowParts(run, kind, parts, traced_block)) {
    if (!part.empty()) per_part.push_back(P(part, pct));
  }
  return Median(per_part);
}

/// What HostReferenceMs() reads on the reference host (README.md) when it
/// is quiet. Times are reported at that host's speed.
constexpr double kReferenceHostMs = 1300.0;

/// CPU milliseconds, summed over one thread per core run at once, of a
/// fixed random walk through 32 MB per thread. The benchmark's host is
/// shared: neighbours contending for caches and memory slow every CPU
/// second of the cluster by up to 2x, and this walk, which touches no
/// code of the repository, slows with it. Scaling CPU and set-up times by
/// kReferenceHostMs / HostReferenceMs() cancels the host's speed of the
/// moment and keeps every change to the code.
double HostReferenceMs() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> ms(cores, 0.0);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < cores; ++i) {
    threads.emplace_back([&ms, i] {
      constexpr std::uint32_t kMask = (1u << 23) - 1;
      // Multiplying by an odd constant permutes the indices.
      std::vector<std::uint32_t> table(std::size_t{kMask} + 1);
      for (std::uint32_t k = 0; k <= kMask; ++k) table[k] = (k * 2654435761u) & kMask;
      const auto cpu_ms = [] {
        timespec ts{};
        ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) * 1e3 +
               static_cast<double>(ts.tv_nsec) / 1e6;
      };
      const double start = cpu_ms();
      volatile std::uint64_t sink = i;
      std::uint64_t x = sink;
      std::uint32_t at = i;
      for (int k = 0; k < 3'000'000; ++k) {
        at = table[(at ^ static_cast<std::uint32_t>(x)) & kMask];
        x = x * 6364136223846793005ull + at;
      }
      sink = x;
      ms[i] = cpu_ms() - start;
    });
  }
  for (std::thread& thread : threads) thread.join();
  double total = 0.0;
  for (const double m : ms) total += m;
  return total;
}

double RssPeakMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Saturated throughput: the median over 0.5 s bins of completions per
/// second in the closed-loop phase (RCCs for ingest), or control cycles
/// per second for the retrain loop. `traced_block` 0/1 uses only the
/// 250 ms blocks with server-side tracing off/on.
double Saturation(const Runner& run, int traced_block = -1) {
  const Workload workload = run.config().workload;
  if (workload == Workload::kRetrainLoop) {
    if (traced_block >= 0) return 0.0;
    return run.cycles_seconds() > 0
               ? static_cast<double>(run.cycles_done()) / run.cycles_seconds()
               : 0.0;
  }
  const Nanos bin = traced_block >= 0 ? kTraceBlockNs : 2 * kTraceBlockNs;
  const auto bins = static_cast<std::size_t>(run.saturation_seconds() * 1e9 /
                                             static_cast<double>(bin));
  std::vector<double> counts(bins, 0.0);
  for (const Exchange& ex : run.exchanges()) {
    if (ex.phase != kSaturation || !ex.answered || !ex.ok ||
        ex.received < run.saturation_start()) {
      continue;
    }
    const auto index =
        static_cast<std::size_t>((ex.received - run.saturation_start()) / bin);
    if (index < bins) counts[index] += 1;
  }
  std::vector<double> kept;
  for (std::size_t i = 0; i < bins; ++i) {
    if (traced_block < 0 || static_cast<int>(i % 2) == traced_block) {
      kept.push_back(counts[i]);
    }
  }
  const double per_op =
      workload == Workload::kIngestRw ? static_cast<double>(kIngestBatchRccs)
                                      : 1.0;
  return Median(kept) * per_op / (static_cast<double>(bin) / 1e9);
}

/// The gated metrics. `host_scale` (kReferenceHostMs over this run's
/// HostReferenceMs) puts the two times at the reference host's speed.
std::vector<Metric> EndToEndMetrics(const Runner& run, double host_scale) {
  const std::size_t window_samples =
      WindowLatencies(run, kPoint).size() +
      WindowLatencies(run, OpKind(run.config().workload)).size();
  return {{"setup_s", Median(run.setup_seconds()) * host_scale, "s",
           run.setup_seconds().size()},
          {"server_cpu_s", run.window_cpu_seconds() * host_scale, "s",
           window_samples},
          {"rss_peak_mb", RssPeakMb(), "MB", 1}};
}

/// Printed beside the gated metrics but not gated: across runs on the
/// reference host the latencies spread 0.07-0.4 of their median and the
/// saturated throughput up to 0.28, as neighbours come and go; no bound a
/// regression gate may use (0.25) holds them. The unscaled times are here
/// too.
std::vector<Metric> InfoMetrics(const Runner& run) {
  const Kind op = OpKind(run.config().workload);
  const std::size_t sat_samples =
      run.config().workload == Workload::kRetrainLoop
          ? run.cycles_done()
          : run.saturation_completions();
  const auto latency = [&run](std::string name, Kind kind, double pct) {
    return Metric{std::move(name), WindowPercentile(run, kind, pct), "ms",
                  WindowLatencies(run, kind).size()};
  };
  return {latency("point_p50_ms", kPoint, 50),
          latency("point_p90_ms", kPoint, 90),
          latency("op_p50_ms", op, 50),
          latency("op_p90_ms", op, 90),
          {"sat_per_s", Saturation(run), "1/s", sat_samples},
          {"setup_unscaled_s", Median(run.setup_seconds()), "s",
           run.setup_seconds().size()},
          {"server_cpu_unscaled_s", run.window_cpu_seconds(), "s", 1}};
}

std::vector<double> Concat(std::initializer_list<std::vector<double>> parts) {
  std::vector<double> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

double OverheadPct(double traced, double untraced) {
  return untraced > 0 && traced > 0 ? (traced - untraced) / untraced * 100.0
                                    : 0.0;
}

std::vector<Metric> PerLayerMetrics(const Runner& run, SpanBuffer* spans,
                                    const LayerReplay& layers) {
  // Server spans seen during the sequential wire replay belong to the one
  // client request in flight; window spans stay roots (no request id
  // crosses the wire yet).
  spans->LinkByContainment(
      {kClientPointRouted, kClientPointDirect, kClientScatterRouted,
       kClientScatterDirect, kClientDetachedRouted, kClientDetachedDirect,
       kClientIngestRouted, kClientIngestDirect, kClientRetrainDirect},
      {kRouterPoint, kRouterScatter, kRouterDetached, kRouterIngest,
       kShardPoint, kShardDetached, kShardIngest, kShardReplicate,
       kShardControl});
  const auto self = [&](SpanName name) { return spans->SelfTimesUs(name); };
  const auto dur = [&](SpanName name) { return spans->DurationsUs(name); };
  const WireReplay& wire = run.wire();
  const LayerCounters& counters = run.counters();

  std::vector<Metric> out;
  const auto add = [&out](std::string name, const std::vector<double>& values,
                          double pct, std::string unit) {
    out.push_back({std::move(name), P(values, pct), std::move(unit),
                   values.size()});
  };
  const auto count = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit), 1});
  };

  const std::vector<double> router =
      Concat({self(kRouterPoint), self(kRouterScatter), self(kRouterDetached),
              self(kRouterIngest), self(kRouterControl)});
  add("cluster.handle_us_p50", router, 50, "us");
  add("cluster.hop_us_p50", wire.point_hop_us, 50, "us");
  add("cluster.hop_us_p90", wire.point_hop_us, 90, "us");
  add("cluster.scatter_hop_us_p50", wire.scatter_hop_us, 50, "us");
  add("cluster.detached_hop_us_p50", wire.detached_hop_us, 50, "us");
  add("cluster.ingest_hop_us_p50", wire.ingest_hop_us, 50, "us");
  count("cluster.routed", static_cast<double>(counters.routed), "count");

  const std::vector<double> point_handle = self(kShardPoint);
  const std::vector<double> worker_handle =
      Concat({self(kShardIngest), self(kShardReplicate), self(kShardControl)});
  const std::vector<double> reactor = self(kClientPointDirect);
  add("frontend.point_handle_us_p50", point_handle, 50, "us");
  add("frontend.point_handle_us_p99", point_handle, 99, "us");
  add("frontend.detached_handle_us_p50", self(kShardDetached), 50, "us");
  add("frontend.worker_handle_us_p50", worker_handle, 50, "us");
  add("reactor.direct_rtt_us_p50", reactor, 50, "us");

  add("wire.parse_us_p50.point", dur(kWireParsePoint), 50, "us");
  add("wire.parse_us_p50.detached", dur(kWireParseDetached), 50, "us");
  add("wire.parse_us_p50.ingest", dur(kWireParseIngest), 50, "us");
  add("wire.score_request_us_p50", dur(kWireScoreRequest), 50, "us");
  add("wire.ingest_mutations_us_p50", dur(kWireIngestMutations), 50, "us");
  add("wire.serialize_us_p50", dur(kWireSerialize), 50, "us");

  const std::vector<double> predict = dur(kServicePredict);
  const std::vector<double> solo = dur(kBundleScoreBatchB1);
  add("service.predict_us_p50", predict, 50, "us");
  add("service.predict_us_p90", predict, 90, "us");
  out.push_back({"service.queue_us_p50", P(predict, 50) - P(solo, 50), "us",
                 predict.size()});
  count("service.avg_batch_size",
        counters.service_batches == 0
            ? 0.0
            : static_cast<double>(counters.service_batched_requests) /
                  static_cast<double>(counters.service_batches),
        "requests");
  count("service.batches", static_cast<double>(counters.service_batches),
        "count");
  count("service.queue_depth_hwm",
        static_cast<double>(counters.service_queue_hwm), "count");
  add("service.swap_us_p50", dur(kServiceSwap), 50, "us");

  add("bundle.score_ref_us_p50", dur(kBundleScoreRef), 50, "us");
  add("bundle.score_ref_us_p90", dur(kBundleScoreRef), 90, "us");
  add("bundle.score_batch_us_per_req.b1", solo, 50, "us");
  std::vector<double> batched = dur(kBundleScoreBatchBavg);
  for (double& v : batched) v /= static_cast<double>(layers.batch_size);
  add("bundle.score_batch_us_per_req.bavg", batched, 50, "us");
  std::vector<double> write_ms = dur(kBundleWrite), load_ms = dur(kBundleLoad),
                      train_ms = dur(kCoreTrain);
  for (auto* v : {&write_ms, &load_ms, &train_ms}) {
    for (double& x : *v) x /= 1e3;
  }
  add("bundle.write_ms", write_ms, 50, "ms");
  add("bundle.load_ms", load_ms, 50, "ms");

  add("features.build_view_us_p50", dur(kFeaturesBuildView), 50, "us");
  add("query.statusq_us_p50", dur(kQueryStatusQ), 50, "us");
  add("ml.predict_per_step_us_p50", dur(kMlPredictPerStep), 50, "us");
  add("ml.attribution_us_p50", dur(kMlAttribution), 50, "us");
  add("core.fuse_us_p50", dur(kCoreFuse), 50, "us");
  add("core.train_ms", train_ms, 50, "ms");

  const double lookups =
      static_cast<double>(counters.cache.hits + counters.cache.misses);
  count("cache.view_hit_ratio",
        lookups > 0 ? static_cast<double>(counters.cache.hits) / lookups : 0.0,
        "ratio");
  count("cache.view_misses", static_cast<double>(counters.cache.misses),
        "count");

  const std::vector<double> append = dur(kIngestAppendBatch);
  const std::vector<double> dirty = dur(kIngestSnapshotDirty);
  std::vector<double> merge_ms = dur(kIngestMerge);
  for (double& x : merge_ms) x /= 1e3;
  add("ingest.append_batch_us_p50", append, 50, "us");
  add("ingest.append_batch_us_p90", append, 90, "us");
  add("ingest.snapshot_dirty_us_p50", dirty, 50, "us");
  add("ingest.snapshot_dirty_us_p90", dirty, 90, "us");
  add("ingest.merge_ms_p50", merge_ms, 50, "ms");
  count("ingest.merges", static_cast<double>(counters.merges), "count");
  count("ingest.pending_max", static_cast<double>(counters.pending_max),
        "count");
  add("repl.apply_us_p50", dur(kReplApply), 50, "us");
  count("repl.lag_max", static_cast<double>(counters.repl_lag_max), "records");

  // Accounting: the p50 self-times along each verb's blocking path over
  // the verb's end-to-end p50 (README.md gives each path).
  const Workload workload = run.config().workload;
  const double reactor_us = P(reactor, 50);
  const std::vector<double> point_e2e = WindowLatencies(run, kPoint);
  count("point.accounted_share",
        (P(wire.point_hop_us, 50) + reactor_us + P(point_handle, 50)) /
            (1e3 * P(point_e2e, 50)),
        "ratio");
  const std::vector<double> detached_e2e =
      workload == Workload::kDetachedScore ? WindowLatencies(run, kDetached)
                                           : wire.detached_routed_ms;
  // Queue wait and batch linger are not on the path: under load they are
  // what the share leaves unexplained.
  count("detached.accounted_share",
        (P(wire.detached_hop_us, 50) + reactor_us +
         P(self(kShardDetached), 50) + P(solo, 50)) /
            (1e3 * P(detached_e2e, 50)),
        "ratio");
  const std::vector<double> ingest_e2e = workload == Workload::kIngestRw
                                             ? WindowLatencies(run, kIngest)
                                             : wire.ingest_routed_ms;
  count("ingest.accounted_share",
        (P(wire.ingest_hop_us, 50) +
         wire.ingest_fanout *
             (2 * reactor_us + P(worker_handle, 50) +
              P(dur(kWireIngestMutations), 50) + P(append, 50) +
              P(dur(kReplApply), 50) + P(dirty, 50))) /
            (1e3 * P(ingest_e2e, 50)),
        "ratio");
  const double retrain_path_ms = P(train_ms, 50) + P(write_ms, 50) +
                                 P(load_ms, 50) + P(dur(kServiceSwap), 50) / 1e3;
  const bool retrains = workload == Workload::kRetrainLoop;
  const auto replicas = static_cast<double>(kShards * kReplicasPerShard);
  count("retrain.accounted_share",
        retrains ? replicas * retrain_path_ms /
                       P(WindowLatencies(run, kRetrain), 50)
                 : retrain_path_ms / run.wire().retrain_direct_ms,
        "ratio");

  add("gen.lag_us_p99", run.gen_lag_us(), 99, "us");
  const Kind op = OpKind(workload);
  const auto overhead = [&](const std::string& name, Kind kind, double pct) {
    count("trace.overhead_pct." + name,
          OverheadPct(WindowPercentile(run, kind, pct, 1),
                      WindowPercentile(run, kind, pct, 0)),
          "%");
  };
  overhead("point_p50_ms", kPoint, 50);
  overhead("op_p50_ms", op, 50);
  count("trace.overhead_pct.server_cpu_s",
        OverheadPct(run.block_cpu_rate(true), run.block_cpu_rate(false)), "%");
  // Throughput is better higher: overhead is the share tracing takes off.
  const double untraced_sat = Saturation(run, 0);
  count("trace.overhead_pct.sat_per_s",
        untraced_sat > 0
            ? (untraced_sat - Saturation(run, 1)) / untraced_sat * 100.0
            : 0.0,
        "%");
  return out;
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonQuote(metrics[i].name) +
            ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonQuote(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

struct Args {
  RunConfig config;
  bool digest_only = false;
  bool seconds_given = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (key == "--workload") {
      workload = value();
    } else if (key == "--seed") {
      args->config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->config.seconds = std::atof(value().c_str());
      args->seconds_given = true;
    } else if (key == "--trace") {
      args->config.traced = value() == "1";
    } else if (key == "--smoke") {
      args->config.smoke = true;
    } else if (key == "--digest") {
      args->digest_only = true;
    } else if (key == "--work-dir") {
      args->config.work_dir = value();
    } else if (key == "--trace-out") {
      args->trace_out = value();
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (!ParseWorkload(workload, &args->config.workload)) {
    std::fprintf(stderr, "bench_e2e: --workload must be point_read, "
                         "detached_score, ingest_rw or retrain_loop\n");
    return false;
  }
  if (args->config.smoke && !args->seconds_given) args->config.seconds = 1.0;
  if (!(args->config.seconds > 0)) {
    std::fprintf(stderr, "bench_e2e: --seconds must be positive\n");
    return false;
  }
  const std::string name = WorkloadName(args->config.workload);
  if (args->config.work_dir.empty()) {
    args->config.work_dir = ".bench_build/e2e_runs/" + name + "-" +
                            std::to_string(::getpid());
  }
  if (args->trace_out.empty()) {
    args->trace_out = ".bench_build/e2e_traces/" + name + ".tsv";
  }
  return true;
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (std::strcmp(BENCH_E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "bench_e2e: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 BENCH_E2E_BUILD_TYPE);
    return 2;
  }
  Runner run(args.config);
  if (const Status s = run.PrepareTraffic(); !s.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", s.ToString().c_str());
    return 1;
  }
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(run.traffic().Digest()));
  if (args.digest_only) {
    std::printf("workload_digest %s\n", digest);
    return 0;
  }
  if (const Status s = run.PrepareBundle(); !s.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", s.ToString().c_str());
    return 1;
  }
  // The host's speed, read on either side of the measured phases.
  const double host_ref_before = HostReferenceMs();
  SpanBuffer spans(args.config.traced ? std::size_t{4} << 20 : 0);
  if (const Status s = run.Execute(&spans); !s.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", s.ToString().c_str());
    return 1;
  }
  const double host_ref_ms = (host_ref_before + HostReferenceMs()) / 2.0;
  LayerReplay layers;
  std::vector<std::string> failures = run.failures();
  if (args.config.traced) {
    auto replayed = ReplayLayers(&run, &spans);
    if (!replayed.ok()) {
      failures.push_back("layer replay: " + replayed.status().ToString());
    } else {
      layers = *replayed;
    }
  }

  const std::vector<Metric> e2e =
      EndToEndMetrics(run, kReferenceHostMs / host_ref_ms);
  const std::vector<Metric> info = InfoMetrics(run);
  for (const std::vector<Metric>* metrics : {&e2e, &info}) {
    for (const Metric& m : *metrics) {
      if (m.samples == 0) failures.push_back("no samples for " + m.name);
    }
  }
  std::size_t attempted = run.exchanges().size();
  std::size_t failed = 0;
  for (const Exchange& ex : run.exchanges()) failed += ex.ok ? 0 : 1;

  std::vector<std::string> invalid = run.invalid_reasons();
  std::vector<double> lag = run.gen_lag_us();
  const double lag_p99 = P(lag, 99);
  if (lag_p99 > 1000.0) {
    invalid.push_back("generator lag p99 " + JsonNumber(lag_p99) +
                      " us exceeds 1 ms");
  }
  std::string reasons;
  for (const std::string& r : invalid) {
    reasons += (reasons.empty() ? "" : ", ") + JsonQuote(r);
  }
  const char* commit = std::getenv("BENCH_E2E_GIT_COMMIT");
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"traced\": %s, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": %s, \"git_commit\": %s, \"workload_digest\": \"%s\", "
      "\"host_ref_ms\": %s, \"gen_lag_us_p99\": %s, \"valid\": %s, "
      "\"invalid_reasons\": [%s]}\n",
      WorkloadName(args.config.workload),
      static_cast<unsigned long long>(args.config.seed),
      JsonNumber(args.config.seconds).c_str(),
      args.config.traced ? "true" : "false",
      std::thread::hardware_concurrency(), BENCH_E2E_BUILD_TYPE,
      JsonQuote(__VERSION__).c_str(),
      JsonQuote(commit != nullptr ? commit : "unknown").c_str(), digest,
      JsonNumber(host_ref_ms).c_str(), JsonNumber(lag_p99).c_str(),
      invalid.empty() ? "true" : "false", reasons.c_str());
  for (const std::string& failure : failures) {
    std::printf("FAIL %s\n", failure.c_str());
  }

  std::vector<Metric> reported = e2e;
  if (args.config.traced) {
    reported = PerLayerMetrics(run, &spans, layers);
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(args.trace_out).parent_path(), ec);
    if (const Status s = spans.WriteTsv(args.trace_out); !s.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n", s.ToString().c_str());
    }
    std::printf("trace %zu spans (%zu dropped) -> %s\n", spans.size(),
                spans.dropped(), args.trace_out.c_str());
  }
  for (const Metric& m : reported) {
    std::printf("metric %-40s %14.6g %-8s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const Metric& m : info) {
    std::printf("info   %-40s %14.6g %-8s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const bool correct = failures.empty();
  PrintResult(correct, attempted, failed, reported);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e
}  // namespace domd

int main(int argc, char** argv) {
  // A peer closing mid-write must not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  return domd::bench_e2e::Run(argc, argv);
}
