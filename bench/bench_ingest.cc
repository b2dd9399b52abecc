// Streaming-ingestion harness (DESIGN.md §14–15): measures the DataStore's
// durable append throughput, snapshot-pin latency while the background
// compaction races the readers, the cost of pinning a snapshot, the
// in-process halves of the replication protocol (quorum-acked append +
// cold-follower catch-up), and what a dirty store's epoch costs next to a
// materialized snapshot — and checks the correctness contracts along the
// way (every sampled snapshot's epoch == its content fingerprint, final
// epoch == content fingerprint, nothing pending after the last merge, replicas
// converged to the primary's exact (seq, chain) position, every streamed
// epoch equal to its materialized cut's). Results land in
// BENCH_ingest.json.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cache/fingerprint.h"
#include "ingest/data_store.h"
#include "ingest/mutation.h"
#include "obs/stage.h"

namespace domd {
namespace {

constexpr std::size_t kSingleAppends = 400;    // one fsync each.
constexpr std::size_t kBatchSize = 256;        // one fsync per batch.
constexpr std::size_t kBatchedAppends = 8192;
constexpr std::size_t kPinSamples = 200000;
constexpr auto kContentionWindow = std::chrono::milliseconds(1500);

double Percentile(std::vector<double> sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Fresh RCC mutations cloned from the fleet's own rows (guaranteed valid,
/// realistic intervals) with sequential new ids.
std::vector<IngestMutation> CloneRccs(const Dataset& data,
                                      std::int64_t first_id,
                                      std::size_t count) {
  std::vector<IngestMutation> mutations;
  mutations.reserve(count);
  const std::vector<Rcc>& rows = data.rccs.rows();
  for (std::size_t i = 0; i < count; ++i) {
    Rcc rcc = rows[i % rows.size()];
    rcc.id = first_id + static_cast<std::int64_t>(i);
    mutations.push_back(MakeRccUpsert(std::move(rcc)));
  }
  return mutations;
}

/// One dirty_epoch row: epoch() and Snapshot() at one pending depth.
struct DirtyEpochDepth {
  std::size_t pending = 0;
  double epoch_us_p50 = 0.0;
  double epoch_us_p90 = 0.0;
  double snapshot_us_p50 = 0.0;
  double snapshot_us_p90 = 0.0;
  bool epochs_equal = true;
};

std::int64_t NextRccId(const Dataset& data) {
  std::int64_t max_id = 0;
  for (const Rcc& rcc : data.rccs.rows()) {
    if (rcc.id > max_id) max_id = rcc.id;
  }
  return max_id + 1;
}

int Run() {
  bench::Banner("Ingest: durable appends, snapshot reads under compaction");
  obs::StageRecorder recorder;
  const auto stage_clock = [] { return std::chrono::steady_clock::now(); };
  const auto stage_seconds = [](std::chrono::steady_clock::time_point from,
                                std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  auto stage_start = stage_clock();

  SynthConfig synth;
  synth.seed = 73;
  synth.num_avails = 30;
  synth.mean_rccs_per_avail = 100.0;
  const Dataset fleet = GenerateDataset(synth);

  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("domd_bench_ingest_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::filesystem::remove(log_path);
  DataStoreOptions options;
  options.log_path = log_path;
  auto store = DataStore::Open(fleet, options);
  if (!store.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  std::int64_t next_id = NextRccId(fleet);
  recorder.Record("setup", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Append throughput: per-record fsync vs amortized batch fsync.
  bool append_ok = true;
  const auto singles = CloneRccs(fleet, next_id, kSingleAppends);
  next_id += static_cast<std::int64_t>(kSingleAppends);
  const auto single_start = std::chrono::steady_clock::now();
  for (const IngestMutation& mutation : singles) {
    if (!(*store)->Append(mutation).ok()) append_ok = false;
  }
  const double single_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    single_start)
                                    .count();
  const double single_rps =
      single_seconds > 0 ? static_cast<double>(kSingleAppends) / single_seconds
                         : 0.0;

  const auto batched = CloneRccs(fleet, next_id, kBatchedAppends);
  next_id += static_cast<std::int64_t>(kBatchedAppends);
  const auto batch_start = std::chrono::steady_clock::now();
  for (std::size_t offset = 0; offset < batched.size();
       offset += kBatchSize) {
    const auto end = std::min(offset + kBatchSize, batched.size());
    const std::vector<IngestMutation> batch(batched.begin() + offset,
                                            batched.begin() + end);
    if (!(*store)->AppendBatch(batch).ok()) append_ok = false;
  }
  const double batch_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   batch_start)
                                   .count();
  const double batch_rps =
      batch_seconds > 0 ? static_cast<double>(kBatchedAppends) / batch_seconds
                        : 0.0;
  std::printf("append: %.0f RCCs/s fsync-per-record, %.0f RCCs/s batched "
              "(batch %zu, %zu total)\n",
              single_rps, batch_rps, kBatchSize,
              kSingleAppends + kBatchedAppends);
  recorder.Record("append_throughput",
                  stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Snapshots racing compaction: a writer keeps the delta growing, a
  // merger keeps compacting it, and the reader times Snapshot() on
  // whichever cut it catches (dirty, materialized, or freshly merged).
  std::atomic<bool> stop{false};
  std::atomic<bool> contention_ok{true};
  std::atomic<std::size_t> contention_appends{0};
  const std::uint64_t merges_before = (*store)->stats().merges;
  std::vector<double> query_us;
  query_us.reserve(1 << 16);

  std::thread writer([&] {
    std::int64_t id = next_id;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto batch = CloneRccs(fleet, id, 64);
      id += 64;
      if (!(*store)->AppendBatch(batch).ok()) {
        contention_ok.store(false);
        return;
      }
      contention_appends.fetch_add(64, std::memory_order_relaxed);
    }
  });
  std::thread merger([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!(*store)->Merge().ok()) {
        contention_ok.store(false);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const auto window_start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - window_start <
         kContentionWindow) {
    const auto query_start = std::chrono::steady_clock::now();
    const auto snapshot = (*store)->Snapshot();
    const auto query_end = std::chrono::steady_clock::now();
    query_us.push_back(
        std::chrono::duration<double, std::micro>(query_end - query_start)
            .count());
    // Consistency of the pinned cut, checked outside the timed region: its
    // epoch is the fingerprint of exactly the tables it pins.
    if (snapshot->epoch() != ComputeDatasetFingerprint(snapshot->data())) {
      contention_ok.store(false);
    }
  }
  stop.store(true);
  writer.join();
  merger.join();
  next_id += static_cast<std::int64_t>(contention_appends.load());

  std::sort(query_us.begin(), query_us.end());
  const double query_p50 = Percentile(query_us, 50);
  const double query_p99 = Percentile(query_us, 99);
  const std::uint64_t merges_during = (*store)->stats().merges -
                                      merges_before;
  std::printf("snapshot under merge: %zu pins, p50 %.1f us, p99 %.1f us "
              "(%zu appends, %llu merges in window)\n",
              query_us.size(), query_p50, query_p99,
              contention_appends.load(),
              static_cast<unsigned long long>(merges_during));
  recorder.Record("query_under_merge",
                  stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Snapshot-pin overhead: on a clean store, pinning must be a cached
  // O(1) hand-out, not a rebuild.
  if (!(*store)->Merge().ok()) append_ok = false;
  std::shared_ptr<const DataSnapshot> pinned;
  const auto pin_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kPinSamples; ++i) {
    pinned = (*store)->Snapshot();
  }
  const double pin_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - pin_start)
                                 .count();
  const double pin_ns =
      pin_seconds / static_cast<double>(kPinSamples) * 1e9;
  std::printf("snapshot pin: %.0f ns/pin over %zu pins (clean store)\n",
              pin_ns, kPinSamples);
  recorder.Record("snapshot_pin", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Replication: in-process log shipping. A primary appends under the
  // quorum-2 discipline (each batch acked only after a follower durably
  // applied it), then a cold follower replays the whole history through
  // TailFrom/ApplyReplicated until its (seq, chain) position matches the
  // primary's — the two DataStore halves of the serve-layer protocol with
  // the sockets removed, so these numbers bound what the wire can do.
  constexpr std::size_t kReplBatch = 64;
  constexpr std::size_t kReplRecords = 4096;
  bool repl_ok = true;
  double quorum_rps = 0.0;
  double catchup_ms = 0.0;
  std::uint64_t catchup_records = 0;
  {
    const auto repl_log = [&](const char* role) {
      return (std::filesystem::temp_directory_path() /
              ("domd_bench_repl_" + std::string(role) + "_" +
               std::to_string(::getpid()) + ".log"))
          .string();
    };
    DataStoreOptions primary_options;
    primary_options.log_path = repl_log("primary");
    std::filesystem::remove(primary_options.log_path);
    DataStoreOptions follower_options;
    follower_options.log_path = repl_log("follower");
    std::filesystem::remove(follower_options.log_path);
    DataStoreOptions cold_options;
    cold_options.log_path = repl_log("cold");
    std::filesystem::remove(cold_options.log_path);
    auto primary = DataStore::Open(fleet, primary_options);
    auto follower = DataStore::Open(fleet, follower_options);
    auto cold = DataStore::Open(fleet, cold_options);
    if (!primary.ok() || !follower.ok() || !cold.ok()) {
      repl_ok = false;
    } else {
      std::int64_t repl_id = 10'000'000;
      const auto quorum_start = std::chrono::steady_clock::now();
      for (std::size_t offset = 0; repl_ok && offset < kReplRecords;
           offset += kReplBatch) {
        const auto batch = CloneRccs(fleet, repl_id, kReplBatch);
        repl_id += static_cast<std::int64_t>(kReplBatch);
        const std::uint64_t first_seq = (*primary)->last_seq() + 1;
        if (!(*primary)->AppendBatch(batch).ok() ||
            !(*follower)->ApplyReplicated(first_seq, batch).ok()) {
          repl_ok = false;
        }
      }
      const double quorum_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        quorum_start)
              .count();
      quorum_rps = quorum_seconds > 0
                       ? static_cast<double>(kReplRecords) / quorum_seconds
                       : 0.0;

      // Cold catch-up: the follower that missed the whole stream.
      std::uint64_t primary_seq = 0;
      std::uint64_t primary_chain = 0;
      (*primary)->Position(&primary_seq, &primary_chain);
      const auto catchup_start = std::chrono::steady_clock::now();
      std::uint64_t next = (*cold)->last_seq() + 1;
      while (repl_ok) {
        std::uint64_t have_seq = 0;
        std::uint64_t have_chain = 0;
        (*cold)->Position(&have_seq, &have_chain);
        auto tail = (*primary)->TailFrom(next, &have_chain, 512);
        if (!tail.ok()) {
          repl_ok = false;
          break;
        }
        std::vector<IngestMutation> decoded;
        decoded.reserve(tail->snapshot ? tail->rows.size()
                                       : tail->records.size());
        for (const std::string& payload :
             tail->snapshot ? tail->rows : tail->records) {
          auto mutation = DecodeMutation(payload);
          if (!mutation.ok()) {
            repl_ok = false;
            break;
          }
          decoded.push_back(std::move(*mutation));
        }
        if (!repl_ok) break;
        if (tail->snapshot) {
          if (!(*cold)
                   ->InstallSnapshot(decoded, tail->last_seq, tail->chain)
                   .ok()) {
            repl_ok = false;
          }
          break;
        }
        catchup_records += decoded.size();
        if (!(*cold)->ApplyReplicated(tail->first_seq, decoded).ok()) {
          repl_ok = false;
          break;
        }
        next = (*cold)->last_seq() + 1;
        if (!tail->more) break;
      }
      catchup_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - catchup_start)
                       .count();

      // Convergence is bit-identity: both halves of the quorum and the
      // caught-up follower sit at the primary's exact (seq, chain) pair.
      for (auto* replica : {&*follower, &*cold}) {
        std::uint64_t seq = 0;
        std::uint64_t chain = 0;
        (*replica)->Position(&seq, &chain);
        if (seq != primary_seq || chain != primary_chain) repl_ok = false;
      }
    }
    std::printf("replication: %.0f RCCs/s quorum-acked (batch %zu), cold "
                "catch-up of %llu records in %.1f ms (%s)\n",
                quorum_rps, kReplBatch,
                static_cast<unsigned long long>(catchup_records), catchup_ms,
                repl_ok ? "converged" : "FAILED");
    if (primary.ok()) primary->reset();
    if (follower.ok()) follower->reset();
    if (cold.ok()) cold->reset();
    std::filesystem::remove(primary_options.log_path);
    std::filesystem::remove(follower_options.log_path);
    std::filesystem::remove(cold_options.log_path);
  }
  recorder.Record("replication", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Dirty-cut epoch: what an ingest ack or freshness probe pays for
  // the store's epoch, against a materialized Snapshot() of the same cut.
  // The `domd generate` default fleet at bench_e2e-like pending depths
  // (2048 is its merge threshold), amend-only so the depth is exact.
  // Every sample first appends one more amend to an already-pending RCC:
  // the generation is fresh (nothing cached) and the depth stays put.
  constexpr std::size_t kDirtyDepths[] = {64, 512, 2048};
  constexpr std::size_t kDirtySamples = 31;
  std::vector<DirtyEpochDepth> dirty_depths;
  std::size_t dirty_fleet_rccs = 0;
  {
    SynthConfig generate_defaults;
    generate_defaults.num_avails = 200;
    generate_defaults.mean_rccs_per_avail = 240.0;
    generate_defaults.ongoing_fraction = 0.05;
    generate_defaults.seed = 42;
    const Dataset big = GenerateDataset(generate_defaults);
    dirty_fleet_rccs = big.rccs.size();
    auto dirty = DataStore::Open(big);
    if (!dirty.ok()) {
      std::fprintf(stderr, "dirty-epoch store open failed: %s\n",
                   dirty.status().ToString().c_str());
      return 1;
    }
    std::size_t amends = 0;
    const auto amend = [&](std::size_t row) {
      Rcc rcc = big.rccs.rows()[row];
      rcc.settled_amount += static_cast<double>(++amends);
      return (*dirty)->Append(MakeRccUpsert(std::move(rcc))).ok();
    };
    const auto micros = [](std::chrono::steady_clock::time_point from) {
      return std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - from)
          .count();
    };
    std::size_t filled = 0;
    for (const std::size_t depth : kDirtyDepths) {
      while (filled < depth) {
        if (!amend(filled++)) append_ok = false;
      }
      DirtyEpochDepth row;
      std::vector<double> epoch_us;
      std::vector<double> snapshot_us;
      for (std::size_t sample = 0; sample < kDirtySamples; ++sample) {
        if (!amend(sample % depth)) append_ok = false;
        auto start = std::chrono::steady_clock::now();
        const std::uint64_t epoch = (*dirty)->epoch();
        epoch_us.push_back(micros(start));
        const auto check = (*dirty)->Snapshot();
        if (epoch != check->epoch() ||
            epoch != ComputeDatasetFingerprint(check->data())) {
          row.epochs_equal = false;
        }

        if (!amend(sample % depth)) append_ok = false;
        start = std::chrono::steady_clock::now();
        const auto snapshot = (*dirty)->Snapshot();
        snapshot_us.push_back(micros(start));
      }
      row.pending = (*dirty)->pending_mutations();
      std::sort(epoch_us.begin(), epoch_us.end());
      std::sort(snapshot_us.begin(), snapshot_us.end());
      row.epoch_us_p50 = Percentile(epoch_us, 50);
      row.epoch_us_p90 = Percentile(epoch_us, 90);
      row.snapshot_us_p50 = Percentile(snapshot_us, 50);
      row.snapshot_us_p90 = Percentile(snapshot_us, 90);
      std::printf("dirty epoch: %zu pending over %zu RCCs: epoch() p50 %.0f "
                  "us p90 %.0f us, Snapshot() p50 %.0f us p90 %.0f us (%s)\n",
                  row.pending, dirty_fleet_rccs, row.epoch_us_p50,
                  row.epoch_us_p90, row.snapshot_us_p50, row.snapshot_us_p90,
                  row.epochs_equal ? "epochs equal" : "EPOCH MISMATCH");
      dirty_depths.push_back(row);
    }
  }
  const bool dirty_epoch_ok =
      std::all_of(dirty_depths.begin(), dirty_depths.end(),
                  [](const DirtyEpochDepth& row) { return row.epochs_equal; });
  recorder.Record("dirty_epoch", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Final accounting: everything merged, epoch == content.
  const auto final_snapshot = (*store)->Snapshot();
  const std::size_t expected_rccs = fleet.rccs.size() + kSingleAppends +
                                    kBatchedAppends +
                                    contention_appends.load();
  const bool accounting_ok =
      (*store)->pending_mutations() == 0 &&
      final_snapshot->data().rccs.size() == expected_rccs &&
      final_snapshot->epoch() ==
          ComputeDatasetFingerprint(final_snapshot->data());
  const IngestStats stats = (*store)->stats();
  std::printf("final: %zu RCCs, epoch %llx, %llu merges, %llu appended\n",
              final_snapshot->data().rccs.size(),
              static_cast<unsigned long long>(final_snapshot->epoch()),
              static_cast<unsigned long long>(stats.merges),
              static_cast<unsigned long long>(stats.appended));
  recorder.Record("final_accounting",
                  stage_seconds(stage_start, stage_clock()));

  const bool pass = append_ok && contention_ok.load() && accounting_ok &&
                    merges_during >= 1 && !query_us.empty() &&
                    batch_rps > 1000.0 && pin_ns < 10000.0 && repl_ok &&
                    quorum_rps > 200.0 && catchup_ms < 10000.0 &&
                    dirty_epoch_ok;

  std::ofstream json("BENCH_ingest.json");
  json << "{\n  \"bench\": \"ingest\",\n";
  json << "  \"fleet\": {\"num_avails\": " << fleet.avails.size()
       << ", \"num_rccs\": " << fleet.rccs.size() << "},\n";
  json << "  \"append\": {\"single_fsync_rps\": " << single_rps
       << ", \"batched_rps\": " << batch_rps
       << ", \"batch_size\": " << kBatchSize
       << ", \"total_appended\": " << stats.appended
       << ", \"ok\": " << (append_ok ? "true" : "false") << "},\n";
  json << "  \"query_under_merge\": {\"queries\": " << query_us.size()
       << ", \"p50_us\": " << query_p50 << ", \"p99_us\": " << query_p99
       << ", \"appends_in_window\": " << contention_appends.load()
       << ", \"merges_in_window\": " << merges_during
       << ", \"consistent\": " << (contention_ok.load() ? "true" : "false")
       << "},\n";
  json << "  \"snapshot_pin\": {\"samples\": " << kPinSamples
       << ", \"ns_per_pin\": " << pin_ns << "},\n";
  json << "  \"replication\": {\"quorum_acked_rps\": " << quorum_rps
       << ", \"quorum_batch\": " << kReplBatch
       << ", \"records\": " << kReplRecords
       << ", \"catchup_ms\": " << catchup_ms
       << ", \"catchup_records\": " << catchup_records
       << ", \"converged\": " << (repl_ok ? "true" : "false") << "},\n";
  json << "  \"dirty_epoch\": {\"fleet_rccs\": " << dirty_fleet_rccs
       << ", \"samples\": " << kDirtySamples << ", \"depths\": [";
  for (std::size_t i = 0; i < dirty_depths.size(); ++i) {
    const DirtyEpochDepth& row = dirty_depths[i];
    json << (i == 0 ? "" : ", ") << "{\"pending\": " << row.pending
         << ", \"epoch_us_p50\": " << row.epoch_us_p50
         << ", \"epoch_us_p90\": " << row.epoch_us_p90
         << ", \"snapshot_us_p50\": " << row.snapshot_us_p50
         << ", \"snapshot_us_p90\": " << row.snapshot_us_p90
         << ", \"epochs_equal\": " << (row.epochs_equal ? "true" : "false")
         << "}";
  }
  json << "]},\n";
  json << "  \"final\": {\"rccs\": " << final_snapshot->data().rccs.size()
       << ", \"merges\": " << stats.merges
       << ", \"pending\": " << (*store)->pending_mutations()
       << ", \"epoch_matches_content\": "
       << (accounting_ok ? "true" : "false") << "},\n";
  json << "  \"stage_timings\": " << recorder.ToJson() << ",\n";
  json << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::printf("\nwrote BENCH_ingest.json (%s)\n", pass ? "PASS" : "FAIL");

  store->reset();
  std::filesystem::remove(log_path);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace domd

int main() { return domd::Run(); }
