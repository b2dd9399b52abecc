#include "bench_e2e/layers.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "data/logical_time.h"
#include "query/query_parser.h"
#include "serve/wire.h"

namespace domd {
namespace bench_e2e {
namespace {

/// A persist-dir store over the bundle's fleet, as a replica opens it.
StatusOr<std::unique_ptr<DataStore>> ScratchStore(const Dataset& data,
                                                  const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError(dir + ": " + ec.message());
  DOMD_RETURN_IF_ERROR(
      WriteFileDurably(dir + "/avails.csv", data.avails.ToCsv().Serialize()));
  DOMD_RETURN_IF_ERROR(
      WriteFileDurably(dir + "/rccs.csv", data.rccs.ToCsv().Serialize()));
  return DataStore::OpenDir(dir);
}

/// The detached pipeline of ModelBundle::ScoreBatch for one request, one
/// layer per span.
Status ScoreDetachedByLayer(const ModelBundle& bundle,
                            const ScoreRequest& request, SpanBuffer* tracer) {
  ScopedSpan whole(tracer, kReplayDetached);
  Dataset batch;
  Avail avail = request.avail;
  avail.id = 1;
  DOMD_RETURN_IF_ERROR(batch.avails.Add(std::move(avail)));
  std::int64_t next_id = 1;
  for (Rcc rcc : request.rccs) {
    rcc.id = next_id++;
    rcc.avail_id = 1;
    DOMD_RETURN_IF_ERROR(batch.rccs.Add(std::move(rcc)));
  }
  const FeatureEngineer engineer(&batch);
  ModelingView view;
  {
    ScopedSpan span(tracer, kFeaturesBuildView);
    view = BuildModelingView(batch, engineer, {1}, bundle.grid());
  }
  const TimelineModelSet& models = bundle.estimator().models();
  std::vector<std::vector<double>> per_step_all;
  {
    ScopedSpan span(tracer, kMlPredictPerStep);
    per_step_all = models.PredictPerStep(view);
  }
  const int last_step =
      std::max(0, GridIndexAtOrBefore(bundle.grid(), request.t_star));
  std::vector<double> per_step;
  for (int step = 0; step <= last_step; ++step) {
    per_step.push_back(per_step_all[static_cast<std::size_t>(step)][0]);
  }
  double estimate = 0.0;
  {
    ScopedSpan span(tracer, kCoreFuse);
    estimate = FusePredictions(bundle.config().fusion, per_step);
  }
  {
    ScopedSpan span(tracer, kMlAttribution);
    const auto last = static_cast<std::size_t>(last_step);
    const std::vector<double> input = models.BuildInputRow(view, 0, last);
    TopContributions(models.model(last), input, models.input_names(last),
                     request.top_k);
  }
  if (!std::isfinite(estimate)) {
    return Status::Internal("non-finite detached estimate");
  }
  return Status::OK();
}

}  // namespace

StatusOr<LayerReplay> ReplayLayers(Runner* runner, SpanBuffer* tracer) {
  LayerReplay out;
  const ModelBundle& bundle = *runner->bundle();
  Traffic& traffic = runner->traffic();
  const bool smoke = runner->config().smoke;
  const std::size_t scale = smoke ? 8 : 1;
  Rng rng = Rng::ForStream(runner->config().seed, 0x1A7E5);
  tracer->set_enabled(true);
  std::string line;

  // Reference (point) requests: decode, score, render, plus the Status
  // Queries a dashboard issues for the same avail and t*.
  for (std::size_t i = 0; i < 400 / scale; ++i) {
    const std::uint32_t tag = traffic.PointTag(&rng);
    traffic.Line(kPoint, tag, &line);
    StatusOr<JsonValue> parsed = Status::Internal("unparsed");
    {
      ScopedSpan span(tracer, kWireParsePoint);
      parsed = JsonValue::Parse(line);
    }
    if (!parsed.ok()) return parsed.status();
    const auto id = static_cast<std::int64_t>(parsed->NumberOr("avail_id", 0));
    const double t_star = parsed->NumberOr("t_star", 100);
    StatusOr<ServePrediction> prediction = Status::Internal("unscored");
    {
      ScopedSpan span(tracer, kBundleScoreRef);
      prediction = bundle.ScoreReferenceAvail(id, t_star);
    }
    if (!prediction.ok()) return prediction.status();
    {
      ScopedSpan span(tracer, kWireSerialize);
      line = PredictionToJson(*prediction, 0.0).Serialize();
    }
    const std::string where =
        " AND AVAIL = " + std::to_string(id) + " AT " +
        std::to_string(static_cast<int>(t_star));
    for (const std::string& text :
         {"SELECT COUNT FROM RCC WHERE STATUS = ACTIVE" + where,
          "SELECT SUM(AMOUNT) FROM RCC WHERE STATUS = SETTLED" + where,
          "SELECT AVG(DURATION) FROM RCC WHERE STATUS = CREATED AND TYPE = G" +
              where,
          "SELECT MAX(AMOUNT) FROM RCC WHERE STATUS = SETTLED AND SWLIN LIKE "
          "'4%'" + where}) {
      auto query = ParseStatusQuery(text);
      if (!query.ok()) return query.status();
      ScopedSpan span(tracer, kQueryStatusQ);
      auto value = bundle.query_engine().Execute(query->query, query->t_star);
      if (!value.ok()) return value.status();
    }
  }

  // Detached requests: decode, then each layer of a solo score, then the
  // public ScoreBatch alone and in groups of the cluster's batch size.
  std::vector<ScoreRequest> requests;
  for (std::size_t i = 0; i < 24 / std::min<std::size_t>(scale, 4); ++i) {
    const std::uint32_t tag = traffic.DetachedTag(&rng);
    traffic.Line(kDetached, tag, &line);
    StatusOr<JsonValue> parsed = Status::Internal("unparsed");
    {
      ScopedSpan span(tracer, kWireParseDetached);
      parsed = JsonValue::Parse(line);
    }
    if (!parsed.ok()) return parsed.status();
    StatusOr<ScoreRequest> request = Status::Internal("unparsed");
    {
      ScopedSpan span(tracer, kWireScoreRequest);
      request = ParseScoreRequest(*parsed);
    }
    if (!request.ok()) return request.status();
    DOMD_RETURN_IF_ERROR(ScoreDetachedByLayer(bundle, *request, tracer));
    {
      ScopedSpan span(tracer, kBundleScoreBatchB1);
      if (!bundle.ScoreBatch({*request})[0].ok()) {
        return Status::Internal("solo ScoreBatch failed");
      }
    }
    requests.push_back(std::move(*request));
  }
  const LayerCounters& counters = runner->counters();
  if (counters.service_batches > 0) {
    out.batch_size = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               static_cast<double>(counters.service_batched_requests) /
               static_cast<double>(counters.service_batches))));
  }
  for (std::size_t start = 0; start + out.batch_size <= requests.size();
       start += out.batch_size) {
    const std::vector<ScoreRequest> group(
        requests.begin() + static_cast<std::ptrdiff_t>(start),
        requests.begin() + static_cast<std::ptrdiff_t>(start + out.batch_size));
    ScopedSpan span(tracer, kBundleScoreBatchBavg);
    bundle.ScoreBatch(group);
  }

  // PredictionService as domd_serve configures it, four callers at once.
  {
    ServeOptions options;
    options.parallelism.num_threads = 0;
    PredictionService service(runner->bundle(), options);
    std::vector<std::thread> callers;
    std::atomic<bool> failed{false};
    for (std::size_t t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        for (std::size_t j = 0; j < requests.size(); ++j) {
          ScopedSpan span(tracer, kServicePredict);
          if (!service.Predict(requests[(j + t * 5) % requests.size()]).ok()) {
            failed = true;
          }
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    if (failed) return Status::Internal("service replay failed");
    for (int i = 0; i < 50; ++i) {
      ScopedSpan span(tracer, kServiceSwap);
      service.SwapBundle(runner->bundle());
    }
  }

  // Ingest: fsync'd batch appends on a primary-like scratch store at the
  // pending depth the cluster reached, a dirty snapshot after each, the
  // same batches applied as replicated records on a follower, a merge per
  // round. The run's own batches go first.
  const std::string dir = runner->config().work_dir + "/layers";
  auto primary = ScratchStore(bundle.data(), dir + "/primary");
  if (!primary.ok()) return primary.status();
  auto follower = ScratchStore(bundle.data(), dir + "/follower");
  if (!follower.ok()) return follower.status();
  const std::size_t depth = std::clamp<std::size_t>(counters.pending_max, 64,
                                                    2048);
  std::size_t next_line = 0;
  const auto next_batch = [&](std::size_t rccs, bool amend_only) {
    if (!amend_only && next_line < traffic.ingest_lines().size()) {
      return traffic.ingest_lines()[next_line++];
    }
    return traffic.ingest_lines()[traffic.NewIngestBatch(rccs, amend_only)];
  };
  const auto apply = [&](const std::string& text, bool timed) -> Status {
    tracer->set_enabled(timed);
    StatusOr<JsonValue> parsed = Status::Internal("unparsed");
    {
      ScopedSpan span(tracer, kWireParseIngest);
      parsed = JsonValue::Parse(text);
    }
    if (!parsed.ok()) return parsed.status();
    StatusOr<std::vector<IngestMutation>> mutations =
        Status::Internal("unparsed");
    {
      ScopedSpan span(tracer, kWireIngestMutations);
      mutations = ParseIngestMutations(*parsed);
    }
    if (!mutations.ok()) return mutations.status();
    std::uint64_t last_seq = 0;
    {
      ScopedSpan span(tracer, kIngestAppendBatch);
      DOMD_RETURN_IF_ERROR((*primary)->AppendBatch(*mutations, &last_seq));
    }
    if (timed) {
      ScopedSpan span(tracer, kIngestSnapshotDirty);
      (*primary)->Snapshot();
    }
    ScopedSpan span(tracer, kReplApply);
    return (*follower)->ApplyReplicated(last_seq - mutations->size() + 1,
                                        *mutations);
  };
  // 3 rounds of 34 timed batches: enough for a p90 with ten samples beyond.
  constexpr std::size_t kTimedPerRound = 34;
  for (int round = 0; round < 3; ++round) {
    while ((*primary)->pending_mutations() +
               kTimedPerRound * kIngestBatchRccs <
           depth) {
      DOMD_RETURN_IF_ERROR(apply(next_batch(kRetrainAmendRccs, true), false));
    }
    for (std::size_t i = 0; i < kTimedPerRound / scale; ++i) {
      DOMD_RETURN_IF_ERROR(apply(next_batch(kIngestBatchRccs, false), true));
    }
    ScopedSpan span(tracer, kIngestMerge);
    auto merged = (*primary)->Merge();
    if (!merged.ok()) return merged.status();
  }
  tracer->set_enabled(true);

  // The retrain verb's work on the ingested snapshot (a new data epoch, so
  // the feature view is built, as after real ingest): train on every
  // closed avail, publish, load, swap.
  const auto snapshot = (*primary)->Snapshot();
  PipelineConfig config = bundle.config();
  config.parallelism.num_threads = 0;
  std::vector<std::int64_t> closed;
  for (const Avail& avail : snapshot->data().avails.rows()) {
    if (avail.delay().has_value()) closed.push_back(avail.id);
  }
  StatusOr<DomdEstimator> estimator = Status::Internal("untrained");
  {
    ScopedSpan span(tracer, kCoreTrain);
    estimator = DomdEstimator::Train(snapshot, config, closed);
  }
  if (!estimator.ok()) return estimator.status();
  {
    ScopedSpan span(tracer, kBundleWrite);
    DOMD_RETURN_IF_ERROR(ModelBundle::Write(*estimator, snapshot->data(),
                                            dir + "/bundle", "replay"));
  }
  {
    ScopedSpan span(tracer, kBundleLoad);
    auto loaded = LoadBundleWithRetry(dir + "/bundle", config.parallelism);
    if (!loaded.ok()) return loaded.status();
  }
  tracer->set_enabled(false);
  primary->reset();
  follower->reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

}  // namespace bench_e2e
}  // namespace domd
