#include "bench_e2e/runner.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "cluster/hash_ring.h"
#include "common/parallel.h"
#include "data/splits.h"
#include "serve/wire.h"
#include "synth/generator.h"

namespace domd {
namespace bench_e2e {
namespace {

/// Runs `fn` on a fresh thread in the SCHED_IDLE class; every thread `fn`
/// starts inherits it. All server threads run there, so among themselves
/// they share the 4 cores as usual, while the load generator (the default
/// class) preempts them the moment its timer fires: it stands in for a
/// client with a CPU of its own. Under the default class a waking
/// generator can wait a whole scheduler slice (~2 ms on 4 cores) behind a
/// training thread, and a starved generator would read as a slow server.
/// Lowering a thread's own class needs no privilege.
void RunAsServer(const std::function<void()>& fn) {
  std::thread([&fn] {
    const sched_param param{};
    ::sched_setscheduler(0, SCHED_IDLE, &param);
    fn();
  }).join();
}

Nanos CpuNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time the cluster spends from construction on: the whole process's
/// minus the calling (generator) thread's. The 10 Hz gauge sampler is the
/// only other non-server thread; its share is negligible.
class CpuMeter {
 public:
  CpuMeter()
      : process_(CpuNs(CLOCK_PROCESS_CPUTIME_ID)),
        thread_(CpuNs(CLOCK_THREAD_CPUTIME_ID)) {}
  double ServerSeconds() const {
    const Nanos process = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - process_;
    const Nanos thread = CpuNs(CLOCK_THREAD_CPUTIME_ID) - thread_;
    return static_cast<double>(process - thread) / 1e9;
  }

 private:
  Nanos process_;
  Nanos thread_;
};

bool StartsOk(std::string_view line) {
  return line.rfind("{\"ok\":true", 0) == 0 ||
         line.rfind("{\"ok\": true", 0) == 0;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string HexEpoch(std::uint64_t epoch) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, epoch);
  return buffer;
}

std::string Snippet(std::string_view line) {
  return std::string(line.substr(0, 160));
}

/// The retrain cycle a version tag names: "v1" is 0, "r<k>" is k.
long VersionCycle(const std::string& version) {
  if (version == "v1") return 0;
  if (version.size() > 1 && version[0] == 'r') {
    return std::strtol(version.c_str() + 1, nullptr, 10);
  }
  return -1;
}

/// `{"cmd":"ingest","rccs":[...]}` holding only the RCCs `keep` selects.
std::string FilterIngest(const JsonValue& request,
                         const std::function<bool(const JsonValue&)>& keep) {
  JsonValue rccs = JsonValue::Array();
  if (const JsonValue* all = request.Find("rccs"); all != nullptr) {
    for (const JsonValue& rcc : all->items()) {
      if (keep(rcc)) rccs.Append(rcc);
    }
  }
  if (rccs.items().empty()) return {};
  JsonValue out = JsonValue::Object();
  out.Set("cmd", JsonValue::String("ingest"));
  out.Set("rccs", std::move(rccs));
  return out.Serialize();
}

}  // namespace

/// The retrain loop's closed-loop control connection (connection 0):
/// ingest 64 amendments, shift one avail's end by a day, retrain; repeat.
struct Runner::ControlLoop {
  int step = 0;
  std::uint32_t cycle = 0;
  int shift = 1;
  /// Cycles to complete before the window closes.
  std::uint32_t target = 1;
  bool active = false;
  bool warmup_only = false;
  Nanos cycle_start = 0;
  /// (cycle, time the router acknowledged its retrain on every replica).
  std::vector<std::pair<std::uint32_t, Nanos>> acks;
};

Runner::Runner(RunConfig config) : config_(std::move(config)) {}

Runner::~Runner() {
  bundle_.reset();
  fleet_snapshot_.reset();
  fleet_store_.reset();
  std::error_code ec;
  std::filesystem::remove_all(config_.work_dir, ec);
}

void Runner::Fail(std::string message) {
  if (failures_.size() < 32) failures_.push_back(std::move(message));
}

Status Runner::PrepareTraffic() {
  std::error_code ec;
  const std::string fleet_dir = config_.work_dir + "/fleet";
  std::filesystem::create_directories(fleet_dir, ec);
  if (ec) return Status::IoError(fleet_dir + ": " + ec.message());

  // `domd generate` defaults, seed included, written and read back the way
  // `domd generate` + `domd train --dir` do (the CSVs round amounts). The
  // fleet is fixed so every run serves the same data; the run's seed draws
  // the traffic.
  SynthConfig synth;
  synth.num_avails = config_.smoke ? 40 : 200;
  synth.mean_rccs_per_avail = 240.0;
  synth.ongoing_fraction = 0.05;
  synth.seed = kFleetSeed;
  const Dataset generated = GenerateDataset(synth);
  DOMD_RETURN_IF_ERROR(generated.avails.WriteFile(fleet_dir + "/avails.csv"));
  DOMD_RETURN_IF_ERROR(generated.rccs.WriteFile(fleet_dir + "/rccs.csv"));
  DataStoreOptions store_options;
  store_options.adopt_existing_log_only = true;
  auto store = DataStore::OpenDir(fleet_dir, store_options);
  if (!store.ok()) return store.status();
  fleet_store_ = std::move(*store);
  fleet_snapshot_ = fleet_store_->Snapshot();
  synth.seed = kFleetSeed + 1;
  held_out_ = GenerateDataset(synth);
  traffic_ = std::make_unique<Traffic>(config_.workload, config_.seed,
                                       fleet(), held_out_);
  return Status::OK();
}

Status Runner::PrepareBundle() {
  // The shared worker pool serves the cluster's parallel work (batch
  // scoring, retraining), so it is created at server priority.
  RunAsServer([] { ThreadPool::Shared(); });

  // `domd train` defaults.
  PipelineConfig pipeline;
  pipeline.gbt.num_rounds = 150;
  pipeline.parallelism.num_threads = 0;
  Rng split_rng(pipeline.seed + 1);
  auto split = MakeSplit(fleet().avails, SplitOptions{}, &split_rng);
  if (!split.ok()) return split.status();
  auto estimator = DomdEstimator::Train(fleet_snapshot_, pipeline, split->train);
  if (!estimator.ok()) return estimator.status();
  bundle_dir_ = config_.work_dir + "/bundle_v1";
  DOMD_RETURN_IF_ERROR(
      ModelBundle::Write(*estimator, fleet(), bundle_dir_, "v1"));
  auto bundle = ModelBundle::Load(bundle_dir_, pipeline.parallelism);
  if (!bundle.ok()) return bundle.status();
  bundle_ = *bundle;
  return Status::OK();
}

const Exchange& Runner::Issue(PipelinedDriver* driver, int conn, Kind kind,
                              std::uint32_t tag, Nanos scheduled,
                              bool traced_block) {
  traffic_->Line(kind, tag, &line_);
  Exchange ex;
  ex.kind = kind;
  ex.tag = tag;
  ex.phase = phase_;
  ex.traced_block = traced_block;
  ex.scheduled = scheduled;
  ex.sent = NowNs();
  exchanges_.push_back(std::move(ex));
  const Exchange& queued = exchanges_.back();
  driver->Send(conn,
               {kind, static_cast<std::uint32_t>(exchanges_.size() - 1),
                queued.scheduled, queued.sent},
               line_);
  return queued;
}

PipelinedDriver::ResponseFn Runner::Handler(PipelinedDriver* driver) {
  return [this, driver](int conn, const PipelinedDriver::Sent& sent,
                        std::string_view line, Nanos received) {
    OnResponse(driver, conn, sent, line, received);
  };
}

void Runner::SendControl(PipelinedDriver* driver) {
  ControlLoop& control = *control_;
  Kind kind = kIngest;
  std::uint32_t tag = 0;
  switch (control.step) {
    case 0:
      tag = traffic_->NewIngestBatch(kRetrainAmendRccs, true);
      break;
    case 1:
      tag = traffic_->NewAvailShift(control.shift);
      control.shift = -control.shift;
      break;
    default:
      kind = kRetrain;
      tag = control.cycle + 1;
      break;
  }
  const Exchange& sent = Issue(driver, 0, kind, tag, NowNs(), false);
  if (control.step == 0) control.cycle_start = sent.sent;
}

void Runner::OnResponse(PipelinedDriver* driver, int conn,
                        const PipelinedDriver::Sent& sent,
                        std::string_view line, Nanos received) {
  Exchange& ex = exchanges_[sent.tag];
  ex.answered = true;
  ex.received = received;
  ex.ok = StartsOk(line);
  const bool saturation = ex.phase == kSaturation;
  // Saturation keeps every ingest ack (the epoch check replays them all)
  // and a sample of the rest.
  if (!saturation || ex.kind == kIngest || saturation_sample_++ % 8 == 0) {
    ex.response.assign(line);
  }
  if (saturation && received <= phase_end_) ++saturation_done_;
  if (saturating_ && received < phase_end_) {
    const auto [kind, tag] = traffic_->NextSaturation();
    const Nanos now = NowNs();
    Issue(driver, conn, kind, tag, now,
          config_.traced &&
              ((now - saturation_start_) / kTraceBlockNs) % 2 == 1);
  }
  if (control_ == nullptr || !control_->active || conn != 0) return;
  ControlLoop& control = *control_;
  if (control.warmup_only) {
    control.active = false;
    return;
  }
  if (control.step == 2) {
    if (ex.ok) control.acks.emplace_back(control.cycle + 1, received);
    const Nanos took = received - control.cycle_start;
    ++cycles_done_;
    cycles_seconds_ += static_cast<double>(took) / 1e9;
    ++control.cycle;
    control.step = 0;
    if (control.cycle >= control.target) {
      control.active = false;
      return;
    }
  } else {
    ++control.step;
  }
  SendControl(driver);
}

void Runner::RunPhase(PipelinedDriver* driver, const std::vector<Planned>& plan,
                      Phase phase, double seconds, SpanBuffer* tracer) {
  phase_ = phase;
  // A short lead so the first sends are not late before the loop starts.
  const Nanos origin = NowNs() + 1'000'000;
  phase_end_ = origin + static_cast<Nanos>(seconds * 1e9);
  if (phase == kWindow) window_start_ = origin;
  const bool toggle = config_.traced && phase == kWindow;
  if (control_ != nullptr) {
    control_->active = true;
    control_->warmup_only = phase == kWarmup;
    control_->step = 0;
    SendControl(driver);
  }
  const PipelinedDriver::ResponseFn on_response = Handler(driver);
  // Traced window: server CPU is booked to the kind of block it ran in.
  CpuMeter block_meter;
  Nanos block_start = NowNs();
  const auto close_block = [&](Nanos now) {
    const bool traced = tracer->enabled();
    block_cpu_[traced] += block_meter.ServerSeconds();
    block_seconds_[traced] += static_cast<double>(now - block_start) / 1e9;
    block_meter = CpuMeter();
    block_start = now;
  };
  // What the server owes when the schedule ends: outstanding requests plus
  // those held back by the in-flight cap. Unset until then.
  std::optional<std::size_t> backlog;
  std::size_t next = 0;
  bool holding = false;
  for (;;) {
    Nanos now = NowNs();
    const Nanos since = now - origin;
    if (toggle) {
      const bool on = since >= 0 && (since / kTraceBlockNs) % 2;
      if (on != tracer->enabled()) close_block(now);
      tracer->set_enabled(on);
    }
    while (next < plan.size() && origin + plan[next].due <= now) {
      if (driver->outstanding() >= kMaxInFlight) {
        holding = true;
        break;
      }
      const Planned& p = plan[next++];
      const Exchange& queued =
          Issue(driver, p.conn, p.kind, p.tag, origin + p.due,
                toggle && (p.due / kTraceBlockNs) % 2 == 1);
      // A send the cap held back is late because the server is.
      if (phase == kWindow && !holding) {
        gen_lag_us_.push_back(
            static_cast<double>(queued.sent - queued.scheduled) / 1e3);
      }
      now = queued.sent;
    }
    if (next >= plan.size() || origin + plan[next].due > now) holding = false;
    if (!backlog && now >= phase_end_) {
      backlog = driver->outstanding() + (plan.size() - next);
      if (control_ != nullptr) *backlog -= driver->outstanding(0);
    }
    if (!driver->ok()) {
      Fail("connection to the router broke during the " +
           std::string(phase == kWindow ? "window" : "warm-up"));
      break;
    }
    // The retrain loop's window lasts until its control cycles are done and
    // its points are sent; every other phase runs its schedule to the end.
    if (control_ != nullptr && phase == kWindow) {
      if (!control_->active && next >= plan.size()) break;
      if (now >= phase_end_) {
        Fail("the retrain cycles outlasted the window's cap");
        break;
      }
    } else if (next >= plan.size() && now >= phase_end_) {
      break;
    }
    // Held back, or sent out with control cycles still running: wait for
    // an answer (at most 100 ms, then look again). Otherwise wait for the
    // next send.
    const bool await = holding || (control_ != nullptr && phase == kWindow &&
                                   next >= plan.size());
    Nanos wake = await                ? now + 100'000'000
                 : next < plan.size() ? origin + plan[next].due
                                      : phase_end_;
    if (toggle && since >= 0) {
      wake = std::min(wake, origin + (since / kTraceBlockNs + 1) * kTraceBlockNs);
    }
    driver->Poll(await ? wake : std::min(wake, phase_end_), await, on_response);
  }
  if (toggle) {
    close_block(NowNs());
    tracer->set_enabled(false);
  }
  if (phase == kWindow) {
    window_seconds_ = control_ != nullptr
                          ? static_cast<double>(NowNs() - origin) / 1e9
                          : seconds;
    // Backlog when the window closes: what the server still owes. More
    // than one second of offered load means the rate was not sustained.
    if (!backlog) {
      backlog = driver->outstanding();
      if (control_ != nullptr) *backlog -= driver->outstanding(0);
    }
    const double offered_per_s =
        static_cast<double>(next) / std::max(window_seconds_, 1e-3);
    if (static_cast<double>(*backlog) > offered_per_s) {
      invalid_reasons_.push_back(
          "backlog of " + std::to_string(*backlog) +
          " requests at the end of the fixed-rate window exceeds 1 s of "
          "offered load");
    }
  }
}

void Runner::RunSaturation(PipelinedDriver* driver, double seconds,
                           SpanBuffer* tracer) {
  phase_ = kSaturation;
  saturating_ = true;
  saturation_start_ = NowNs();
  phase_end_ = saturation_start_ + static_cast<Nanos>(seconds * 1e9);
  saturation_seconds_ = seconds;
  std::size_t depth = 32;
  if (config_.workload == Workload::kDetachedScore) depth = 8;
  if (config_.workload == Workload::kIngestRw) depth = 4;
  const PipelinedDriver::ResponseFn on_response = Handler(driver);
  for (int conn = 0; conn < driver->num_connections(); ++conn) {
    for (std::size_t d = 0; d < depth; ++d) {
      const auto [kind, tag] = traffic_->NextSaturation();
      Issue(driver, conn, kind, tag, NowNs(), false);
    }
  }
  for (;;) {
    const Nanos now = NowNs();
    if (now >= phase_end_ || !driver->ok()) break;
    Nanos wake = phase_end_;
    if (config_.traced) {
      const Nanos since = now - saturation_start_;
      tracer->set_enabled((since / kTraceBlockNs) % 2 == 1);
      wake = std::min(wake, saturation_start_ +
                                (since / kTraceBlockNs + 1) * kTraceBlockNs);
    }
    driver->Poll(wake, false, on_response);
  }
  saturating_ = false;
  if (config_.traced) tracer->set_enabled(false);
  if (!driver->ok()) Fail("connection to the router broke while saturating");
}

void Runner::Drain(PipelinedDriver* driver) {
  const PipelinedDriver::ResponseFn on_response = Handler(driver);
  // Generous for a retrain in flight, short of the run's time limit.
  const Nanos deadline = NowNs() + 30'000'000'000;
  while (driver->outstanding() > 0 && driver->ok() && NowNs() < deadline) {
    driver->Poll(deadline, true, on_response);
  }
}

Status Runner::Execute(SpanBuffer* tracer) {
  cache_before_ = ViewCache::Default().Stats();
  const int setups = config_.smoke ? 1 : 3;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < setups; ++i) {
    if (cluster != nullptr) {
      cluster.reset();
      // Hand the torn-down cluster's pages back, so the peak RSS is one
      // cluster's and not the allocator's leftovers from earlier set-ups.
      ::malloc_trim(0);
    }
    TopologyOptions topology;
    topology.bundle_dir = bundle_dir_;
    topology.work_dir = config_.work_dir + "/setup" + std::to_string(i);
    topology.tracer = config_.traced ? tracer : nullptr;
    double seconds = 0.0;
    StatusOr<std::unique_ptr<Cluster>> started =
        Status::Internal("cluster not started");
    RunAsServer([&] { started = Cluster::Start(topology, &seconds); });
    if (!started.ok()) return started.status();
    cluster = std::move(*started);
    setup_seconds_.push_back(seconds);
  }

  // In-process gauges the wire cannot show, sampled at 10 Hz.
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      for (std::size_t s = 0; s < cluster->num_shards(); ++s) {
        for (std::size_t r = 0; r < cluster->num_replicas(); ++r) {
          Cluster::Replica& replica = cluster->replica(s, r);
          counters_.pending_max = std::max(counters_.pending_max,
                                           replica.store->stats().pending);
          counters_.repl_lag_max =
              std::max(counters_.repl_lag_max, replica.repl->lag());
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  {
    PipelinedDriver driver(cluster->router_port(),
                           PipelinedDriver::kMaxConnections);
    if (!driver.ok()) {
      sampling = false;
      sampler.join();
      return Status::Unavailable("cannot connect the load generator");
    }
    const bool saturates = config_.workload != Workload::kRetrainLoop;
    double window = 0.7 * config_.seconds;
    double scheduled = window;
    if (!saturates) {
      // A fixed number of retrains (one per 5 s of --seconds) and a fixed
      // number of points (1.5 x --seconds' worth, about as long as the
      // retrains on a quiet host) rather than a fixed time: a retrain takes
      // seconds, 2.5x as long when the host is slow, and work that grew
      // with its duration would move the CPU time, the median and the
      // memory peak with the host. `window` only caps it.
      control_ = std::make_unique<ControlLoop>();
      control_->target = static_cast<std::uint32_t>(
          std::max(1L, std::lround(config_.seconds / 5.0)));
      window = 60.0 * control_->target;
      scheduled = 1.5 * config_.seconds;
    }
    const double warmup = config_.smoke ? 0.3 : 2.0;
    RunPhase(&driver, traffic_->Schedule(warmup, 0), kWarmup, warmup, tracer);
    Drain(&driver);
    const CpuMeter meter;
    RunPhase(&driver, traffic_->Schedule(scheduled, 1), kWindow, window,
             tracer);
    Drain(&driver);
    window_cpu_seconds_ = meter.ServerSeconds();
    if (saturates) {
      RunSaturation(&driver, config_.seconds - window, tracer);
      Drain(&driver);
    }
  }
  sampling = false;
  sampler.join();

  Verify(cluster.get());
  if (config_.traced) ReplayWire(cluster.get(), tracer);
  CollectCounters(cluster.get());
  cluster.reset();
  return Status::OK();
}

void Runner::CollectCounters(Cluster* cluster) {
  counters_.routed = cluster->router().stats().routed;
  for (std::size_t s = 0; s < cluster->num_shards(); ++s) {
    for (std::size_t r = 0; r < cluster->num_replicas(); ++r) {
      Cluster::Replica& replica = cluster->replica(s, r);
      const ServeStatsSnapshot stats = replica.service->stats();
      counters_.service_batches += stats.batches;
      counters_.service_batched_requests += stats.batched_requests;
      counters_.service_queue_hwm =
          std::max(counters_.service_queue_hwm, stats.queue_depth_hwm);
      counters_.merges += replica.store->stats().merges;
    }
  }
  const ViewCacheStats now = ViewCache::Default().Stats();
  counters_.cache.hits = now.hits - cache_before_.hits;
  counters_.cache.misses = now.misses - cache_before_.misses;
}

void Runner::Verify(Cluster* cluster) {
  std::size_t unanswered = 0;
  std::size_t refused = 0;
  for (const Exchange& ex : exchanges_) {
    if (!ex.answered) {
      ++unanswered;
    } else if (!ex.ok) {
      if (refused++ == 0) {
        Fail(std::string(KindName(ex.kind)) + " refused: " +
             Snippet(ex.response));
      }
    }
  }
  if (unanswered > 0) {
    Fail(std::to_string(unanswered) + " requests never answered");
  }

  // Reference answers: v1 from the in-process bundle; the final retrained
  // version from each shard's own bundle directory.
  std::map<std::pair<std::int64_t, std::size_t>, double> expected;
  const auto expect_v1 = [&](std::int64_t id, std::size_t t) {
    const auto key = std::make_pair(id, t);
    auto it = expected.find(key);
    if (it == expected.end()) {
      const auto result = bundle_->ScoreReferenceAvail(id, GridTStar(t));
      it = expected.emplace(key, result.ok() ? result->estimate_days : NAN)
               .first;
    }
    return it->second;
  };
  std::string final_version;
  std::vector<std::shared_ptr<const ModelBundle>> final_bundles;
  if (control_ != nullptr && !control_->acks.empty()) {
    final_version = "r" + std::to_string(control_->acks.back().first);
    for (std::size_t s = 0; s < cluster->num_shards(); ++s) {
      auto loaded = ModelBundle::Load(
          cluster->replica(s, 0).retrain_root + "/" + final_version);
      if (!loaded.ok()) {
        Fail("cannot load retrained bundle: " + loaded.status().ToString());
        return;
      }
      final_bundles.push_back(*loaded);
    }
  }
  const auto required_cycle = [&](Nanos sent) -> long {
    long cycle = 0;
    if (control_ == nullptr) return cycle;
    for (const auto& [k, at] : control_->acks) {
      if (at < sent) cycle = static_cast<long>(k);
    }
    return cycle;
  };

  std::size_t checked_points = 0, bad_points = 0;
  std::map<std::uint32_t, double> detached_answers;
  std::size_t bad_detached = 0;
  for (const Exchange& ex : exchanges_) {
    if (ex.response.empty() || !ex.ok) continue;
    if (ex.kind == kPoint) {
      auto parsed = JsonValue::Parse(ex.response);
      const std::int64_t id = traffic_->point_avails()[TagItem(ex.tag)];
      const std::string version =
          parsed.ok() ? parsed->StringOr("bundle_version", "") : "";
      bool good = parsed.ok() &&
                  parsed->NumberOr("avail_id", -1) == static_cast<double>(id) &&
                  parsed->NumberOr("t_star", -1) == GridTStar(TagTStar(ex.tag));
      const long cycle = VersionCycle(version);
      good = good && cycle >= required_cycle(ex.sent);
      if (good && version == "v1") {
        good = SameBits(parsed->NumberOr("estimate_days", NAN),
                        expect_v1(id, TagTStar(ex.tag)));
      } else if (good && version == final_version) {
        const auto result =
            final_bundles[cluster->OwnerOf(id)]->ScoreReferenceAvail(
                id, GridTStar(TagTStar(ex.tag)));
        good = result.ok() && SameBits(parsed->NumberOr("estimate_days", NAN),
                                       result->estimate_days);
      }
      ++checked_points;
      if (!good && bad_points++ == 0) {
        Fail("point answer differs from the reference: " +
             Snippet(ex.response));
      }
    } else if (ex.kind == kScatter) {
      auto parsed = JsonValue::Parse(ex.response);
      const auto& ids = traffic_->scatter_ids(ex.tag);
      const JsonValue* results = parsed.ok() ? parsed->Find("results") : nullptr;
      bool good = results != nullptr && results->is_array() &&
                  results->items().size() == ids.size();
      for (std::size_t i = 0; good && i < ids.size(); ++i) {
        const JsonValue& item = results->items()[i];
        good = item.BoolOr("ok", false) &&
               item.NumberOr("avail_id", -1) == static_cast<double>(ids[i]) &&
               SameBits(item.NumberOr("estimate_days", NAN),
                        expect_v1(ids[i], TagTStar(ex.tag)));
      }
      if (!good) Fail("scatter answer wrong or out of order: " +
                      Snippet(ex.response));
    } else if (ex.kind == kDetached) {
      auto parsed = JsonValue::Parse(ex.response);
      const double estimate =
          parsed.ok() ? parsed->NumberOr("estimate_days", NAN) : NAN;
      const auto [it, fresh] = detached_answers.emplace(ex.tag, estimate);
      if (!fresh && !SameBits(it->second, estimate) && bad_detached++ == 0) {
        Fail("detached answers differ between batches for one request");
      }
    } else if (ex.kind == kRetrain) {
      auto parsed = JsonValue::Parse(ex.response);
      const JsonValue* retrained =
          parsed.ok() ? parsed->Find("retrained") : nullptr;
      bool good = retrained != nullptr && retrained->is_array() &&
                  retrained->items().size() ==
                      cluster->num_shards() * cluster->num_replicas();
      for (std::size_t i = 0; good && i < retrained->items().size(); ++i) {
        const JsonValue& item = retrained->items()[i];
        good = item.BoolOr("ok", false) &&
               item.StringOr("bundle_version", "") ==
                   "r" + std::to_string(ex.tag);
      }
      if (!good) Fail("retrain not applied on every replica: " +
                      Snippet(ex.response));
    }
  }
  if (checked_points == 0) Fail("no point answers to verify");

  // Detached answers must equal scoring the same request alone; a sample
  // of the distinct requests is rescored in-process.
  std::size_t rescored = 0;
  for (const auto& [tag, estimate] : detached_answers) {
    if (rescored++ == (config_.smoke ? 8u : 24u)) break;
    auto request = JsonValue::Parse(
        traffic_->DetachedLine(TagItem(tag), TagTStar(tag)));
    auto score = request.ok() ? ParseScoreRequest(*request)
                              : StatusOr<ScoreRequest>(request.status());
    if (!score.ok()) {
      Fail("detached request does not parse: " + score.status().ToString());
      break;
    }
    const auto solo = bundle_->ScoreBatch({*score});
    if (!solo[0].ok() || !SameBits(solo[0]->estimate_days, estimate)) {
      Fail("detached answer differs from solo ScoreBatch");
      break;
    }
  }

  LineClient client(cluster->router_port());
  std::string response;
  if (!client.Call("{\"cmd\":\"freshness\"}", &response)) {
    Fail("final freshness probe failed");
    return;
  }
  auto freshness = JsonValue::Parse(response);
  if (!freshness.ok() || !freshness->BoolOr("ok", false) ||
      !freshness->BoolOr("converged", false)) {
    Fail("replicas did not converge: " + Snippet(response));
    return;
  }
  VerifyIngest(cluster, *freshness);
}

void Runner::VerifyIngest(Cluster* cluster, const JsonValue& freshness) {
  // Rebuild each shard's acknowledged history: the router splits a batch
  // by owning shard (avails before RCCs, request order within each), and
  // every shard reports the sequence its part ended at.
  struct Acked {
    std::uint64_t last_seq = 0;
    std::vector<IngestMutation> mutations;
  };
  const std::size_t shards = cluster->num_shards();
  std::vector<std::vector<Acked>> history(shards);
  for (const Exchange& ex : exchanges_) {
    if (ex.kind != kIngest || !ex.ok) continue;
    auto request = JsonValue::Parse(traffic_->ingest_lines()[ex.tag]);
    auto mutations = request.ok()
                         ? ParseIngestMutations(*request)
                         : StatusOr<std::vector<IngestMutation>>(
                               request.status());
    auto response = JsonValue::Parse(ex.response);
    if (!mutations.ok() || !response.ok()) {
      Fail("unparseable ingest exchange");
      return;
    }
    std::vector<std::vector<IngestMutation>> parts(shards);
    for (const IngestMutation& m : *mutations) {
      const std::int64_t avail =
          m.kind == MutationKind::kAvailUpsert ? m.avail.id : m.rcc.avail_id;
      parts[cluster->OwnerOf(avail)].push_back(m);
    }
    std::vector<std::pair<std::size_t, std::uint64_t>> seqs;
    if (const JsonValue* results = response->Find("results");
        results != nullptr && results->is_array()) {
      for (const JsonValue& part : results->items()) {
        const auto* spec = cluster->host_map().FindShard(
            static_cast<int>(part.NumberOr("shard", -1)));
        if (spec == nullptr) continue;
        const auto index =
            static_cast<std::size_t>(spec - cluster->host_map().shards().data());
        seqs.emplace_back(index, static_cast<std::uint64_t>(
                                     part.NumberOr("last_seq", 0)));
      }
    } else {
      for (std::size_t s = 0; s < shards; ++s) {
        if (!parts[s].empty()) {
          seqs.emplace_back(s, static_cast<std::uint64_t>(
                                   response->NumberOr("last_seq", 0)));
        }
      }
    }
    for (const auto& [s, seq] : seqs) {
      history[s].push_back({seq, std::move(parts[s])});
    }
  }

  static const std::vector<JsonValue> kNone;
  const auto items = [](const JsonValue* value) -> const std::vector<JsonValue>& {
    return value != nullptr && value->is_array() ? value->items() : kNone;
  };
  for (std::size_t s = 0; s < shards; ++s) {
    std::sort(history[s].begin(), history[s].end(),
              [](const Acked& a, const Acked& b) {
                return a.last_seq < b.last_seq;
              });
    auto scratch = DataStore::Open(bundle_->data());
    if (!scratch.ok()) {
      Fail("scratch store: " + scratch.status().ToString());
      return;
    }
    std::uint64_t expected_seq = 0;
    for (const Acked& batch : history[s]) {
      expected_seq += batch.mutations.size();
      if (batch.last_seq != expected_seq) {
        Fail("shard " + std::to_string(s) + " acked sequence " +
             std::to_string(batch.last_seq) + ", expected " +
             std::to_string(expected_seq));
        return;
      }
      const Status applied = (*scratch)->AppendBatch(batch.mutations);
      if (!applied.ok()) {
        Fail("scratch replay: " + applied.ToString());
        return;
      }
    }
    const std::string want = HexEpoch((*scratch)->Snapshot()->epoch());
    const int id = cluster->host_map().shards()[s].id;
    bool found = false;
    for (const JsonValue& shard : items(freshness.Find("shards"))) {
      if (shard.NumberOr("id", -1) != id) continue;
      found = true;
      for (const JsonValue& replica : items(shard.Find("replicas"))) {
        if (replica.StringOr("store_epoch", "") != want) {
          Fail("shard " + std::to_string(id) + " epoch " +
               replica.StringOr("store_epoch", "?") +
               " differs from the acknowledged history's " + want);
        }
      }
    }
    if (!found) Fail("freshness lacks shard " + std::to_string(id));
  }
}

void Runner::ReplayWire(Cluster* cluster, SpanBuffer* tracer) {
  tracer->set_enabled(true);
  LineClient routed(cluster->router_port());
  std::vector<std::unique_ptr<LineClient>> direct;
  for (std::size_t s = 0; s < cluster->num_shards(); ++s) {
    direct.push_back(
        std::make_unique<LineClient>(cluster->replica(s, 0).port));
  }
  Rng rng = Rng::ForStream(config_.seed, 0x7E91A7);
  std::uint64_t request = 1;
  std::string line, response;
  // One timed round trip, recorded as a client span.
  const auto call = [&](LineClient* client, SpanName name,
                        const std::string& text) {
    const Nanos start = NowNs();
    const bool ok = client->Call(text, &response) && StartsOk(response);
    const Nanos end = NowNs();
    tracer->Record(name, start, end, -1, request);
    if (!ok) Fail("replay " + std::string(SpanNameString(name)) + ": " +
                  Snippet(response));
    return static_cast<double>(end - start) / 1e3;
  };
  // Routed then direct on even requests, direct first on odd ones.
  const auto pair = [&](const std::function<double()>& via_router,
                        const std::function<double()>& to_owner) {
    double routed_us = 0, direct_us = 0;
    if (request % 2 == 0) {
      routed_us = via_router();
      direct_us = to_owner();
    } else {
      direct_us = to_owner();
      routed_us = via_router();
    }
    ++request;
    return std::make_pair(routed_us, direct_us);
  };
  const std::size_t scale = config_.smoke ? 10 : 1;

  for (std::size_t i = 0; i < 600 / scale; ++i) {
    const std::uint32_t tag = traffic_->PointTag(&rng);
    traffic_->Line(kPoint, tag, &line);
    LineClient* owner =
        direct[cluster->OwnerOf(traffic_->point_avails()[TagItem(tag)])].get();
    const auto [r, d] =
        pair([&] { return call(&routed, kClientPointRouted, line); },
             [&] { return call(owner, kClientPointDirect, line); });
    wire_.point_hop_us.push_back(r - d);
  }

  for (std::size_t i = 0; i < 100 / scale; ++i) {
    const std::uint32_t tag = traffic_->NewScatter(&rng);
    traffic_->Line(kScatter, tag, &line);
    const auto to_owners = [&] {
      // The same sub-requests the router sends, pipelined per shard.
      const Nanos start = NowNs();
      std::vector<std::size_t> count(direct.size(), 0);
      bool ok = true;
      for (const std::int64_t id : traffic_->scatter_ids(tag)) {
        const std::size_t s = cluster->OwnerOf(id);
        ok = ok && direct[s]->SendLine(
                       "{\"avail_id\":" + std::to_string(id) + ",\"t_star\":" +
                       std::to_string(static_cast<int>(
                           GridTStar(TagTStar(tag)))) + "}");
        ++count[s];
      }
      for (std::size_t s = 0; s < direct.size(); ++s) {
        for (std::size_t k = 0; k < count[s]; ++k) {
          ok = ok && direct[s]->ReadLine(&response) && StartsOk(response);
        }
      }
      const Nanos end = NowNs();
      tracer->Record(kClientScatterDirect, start, end, -1, request);
      if (!ok) Fail("replay scatter sub-requests failed");
      return static_cast<double>(end - start) / 1e3;
    };
    const auto [r, d] = pair(
        [&] { return call(&routed, kClientScatterRouted, line); }, to_owners);
    wire_.scatter_hop_us.push_back(r - d);
  }

  for (std::size_t i = 0; i < 24 / scale; ++i) {
    const std::uint32_t tag = traffic_->DetachedTag(&rng);
    traffic_->Line(kDetached, tag, &line);
    LineClient* owner =
        direct[cluster->host_map().OwnerIndexOf(cluster::KeyForShip(
                   traffic_->detached_ship(TagItem(tag))))]
            .get();
    const auto [r, d] =
        pair([&] { return call(&routed, kClientDetachedRouted, line); },
             [&] { return call(owner, kClientDetachedDirect, line); });
    wire_.detached_hop_us.push_back(r - d);
    wire_.detached_routed_ms.push_back(r / 1e3);
  }

  // Ingest: two untimed batches first so a workload that never wrote
  // promotes its primaries outside the timed sample.
  double touched = 0;
  const std::size_t ingest_samples = 20 / scale;
  for (std::size_t i = 0; i < ingest_samples + 2; ++i) {
    const std::string batch =
        traffic_->ingest_lines()[traffic_->NewIngestBatch(kIngestBatchRccs,
                                                          false)];
    if (i < 2) {
      if (!routed.Call(batch, &response) || !StartsOk(response)) {
        Fail("replay ingest warm-up: " + Snippet(response));
      }
      continue;
    }
    auto parsed = JsonValue::Parse(batch);
    std::vector<std::string> parts;
    for (std::size_t s = 0; parsed.ok() && s < direct.size(); ++s) {
      std::string part = FilterIngest(*parsed, [&](const JsonValue& rcc) {
        return cluster->OwnerOf(static_cast<std::int64_t>(
                   rcc.NumberOr("avail_id", 0))) == s;
      });
      if (!part.empty()) {
        parts.push_back(std::move(part));
      } else {
        parts.emplace_back();
      }
    }
    const auto to_primaries = [&] {
      double total = 0;
      for (std::size_t s = 0; s < parts.size(); ++s) {
        if (!parts[s].empty()) {
          total += call(direct[s].get(), kClientIngestDirect, parts[s]);
        }
      }
      return total;
    };
    for (const std::string& part : parts) touched += part.empty() ? 0 : 1;
    const auto [r, d] = pair(
        [&] { return call(&routed, kClientIngestRouted, batch); },
        to_primaries);
    wire_.ingest_hop_us.push_back(r - d);
    wire_.ingest_routed_ms.push_back(r / 1e3);
  }
  wire_.ingest_fanout = touched / static_cast<double>(ingest_samples);

  if (config_.workload != Workload::kRetrainLoop) {
    wire_.retrain_direct_ms =
        call(direct[0].get(), kClientRetrainDirect,
             "{\"cmd\":\"retrain\",\"version\":\"replay\"}") /
        1e3;
  }
  tracer->set_enabled(false);
}

}  // namespace bench_e2e
}  // namespace domd
