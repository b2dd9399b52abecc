// Parallel scaling of the three hottest pipeline stages — feature
// engineering, GBT timeline training, and cross-validation — at 1/2/4/8
// threads on the default 73-avail fleet (Table 5 RCC load). Every parallel
// path is required to be bit-identical to the serial one, so this harness
// both times each stage and cross-checks the outputs; results land in
// BENCH_parallel_scaling.json. It exits nonzero on any mismatch, and when
// GBT training at 4 threads is slower than at 1 on a host with at least 4
// hardware threads.

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "eval/cross_validation.h"
#include "obs/stage.h"

namespace domd {
namespace {

const int kThreadCounts[] = {1, 2, 4, 8};

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool TensorsBitIdentical(const FeatureTensor& a, const FeatureTensor& b) {
  if (a.num_steps() != b.num_steps() || a.num_avails() != b.num_avails() ||
      a.num_features() != b.num_features()) {
    return false;
  }
  for (std::size_t step = 0; step < a.num_steps(); ++step) {
    const Matrix& ma = a.slice(step);
    const Matrix& mb = b.slice(step);
    for (std::size_t r = 0; r < ma.rows(); ++r) {
      for (std::size_t c = 0; c < ma.cols(); ++c) {
        if (!BitIdentical(ma.at(r, c), mb.at(r, c))) return false;
      }
    }
  }
  return true;
}

std::string SerializeModels(const TimelineModelSet& models) {
  std::ostringstream out;
  if (!models.Save(out).ok()) return {};
  return out.str();
}

struct StageResult {
  std::string name;
  std::vector<double> seconds;  ///< aligned with kThreadCounts
  bool bit_identical = true;
};

bool Run() {
  bench::Banner("Parallel scaling: engineering / training / CV");
  std::printf("hardware threads: %d\n", Parallelism::HardwareThreads());

  // The default fleet: 73 avails at the real dataset's RCC load.
  const Dataset data = GenerateDataset(SynthConfig{});
  std::vector<std::int64_t> ids;
  for (const Avail& avail : data.avails.rows()) ids.push_back(avail.id);
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(10.0);

  std::vector<StageResult> stages;
  obs::StageRecorder recorder;  // total wall per stage, across thread counts

  // Stage 1: feature engineering (the incremental tensor sweep).
  {
    StageResult stage;
    stage.name = "feature_engineering";
    FeatureTensor reference;
    for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
      Parallelism parallelism;
      parallelism.num_threads = kThreadCounts[i];
      FeatureTensor tensor;
      stage.seconds.push_back(bench::TimeSeconds(
          [&] { tensor = engineer.ComputeIncremental(ids, grid, parallelism); }));
      recorder.Record(stage.name, stage.seconds.back());
      if (kThreadCounts[i] == 1) {
        reference = std::move(tensor);
      } else if (!TensorsBitIdentical(reference, tensor)) {
        stage.bit_identical = false;
      }
    }
    stages.push_back(std::move(stage));
  }

  // Shared modeling view for the training and CV stages.
  const ModelingView view = BuildModelingView(data, engineer, ids, grid);
  std::vector<std::string> names;
  for (const FeatureDef& def : engineer.catalog().features()) {
    names.push_back(def.name);
  }

  // Stage 2: GBT timeline training (the per-step fits run in parallel,
  // each one serial inside).
  {
    StageResult stage;
    stage.name = "gbt_training";
    PipelineConfig config = bench::BenchBaseConfig();
    std::string reference;
    for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
      config.parallelism.num_threads = kThreadCounts[i];
      TimelineModelSet models;
      stage.seconds.push_back(bench::TimeSeconds([&] {
        models = TimelineModelSet();
        if (!models.Fit(config, view, names).ok()) std::abort();
      }));
      recorder.Record(stage.name, stage.seconds.back());
      const std::string text = SerializeModels(models);
      if (kThreadCounts[i] == 1) {
        reference = text;
      } else if (text != reference) {
        stage.bit_identical = false;
      }
    }
    stages.push_back(std::move(stage));
  }

  // Stage 3: cross-validation (parallel folds on top of the above).
  {
    StageResult stage;
    stage.name = "cross_validation";
    PipelineConfig config = bench::BenchBaseConfig();
    CvOptions options;
    options.num_folds = 4;
    double reference_mae = 0.0;
    for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
      config.parallelism.num_threads = kThreadCounts[i];
      double mae = 0.0;
      stage.seconds.push_back(bench::TimeSeconds([&] {
        const auto result = CrossValidate(data, config, options);
        if (!result.ok()) std::abort();
        mae = result->mean.mae100;
      }));
      recorder.Record(stage.name, stage.seconds.back());
      if (kThreadCounts[i] == 1) {
        reference_mae = mae;
      } else if (!BitIdentical(mae, reference_mae)) {
        stage.bit_identical = false;
      }
    }
    stages.push_back(std::move(stage));
  }

  // Report: seconds and speedup vs 1 thread, per stage.
  std::printf("\n%-20s", "stage");
  for (int threads : kThreadCounts) std::printf(" %7dT", threads);
  std::printf("  identical\n");
  for (const StageResult& stage : stages) {
    std::printf("%-20s", stage.name.c_str());
    for (double s : stage.seconds) std::printf(" %7.3fs", s);
    std::printf("  %s\n", stage.bit_identical ? "yes" : "NO");
    std::printf("%-20s", "  speedup");
    for (double s : stage.seconds) std::printf(" %7.2fx", stage.seconds[0] / s);
    std::printf("\n");
  }

  std::ofstream json("BENCH_parallel_scaling.json");
  json << "{\n  \"bench\": \"parallel_scaling\",\n";
  json << "  \"fleet\": {\"num_avails\": " << ids.size()
       << ", \"num_rccs\": " << data.rccs.size() << "},\n";
  json << "  \"hardware_threads\": " << Parallelism::HardwareThreads()
       << ",\n  \"thread_counts\": [1, 2, 4, 8],\n  \"stages\": {\n";
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StageResult& stage = stages[s];
    json << "    \"" << stage.name << "\": {\"seconds\": [";
    for (std::size_t i = 0; i < stage.seconds.size(); ++i) {
      json << (i ? ", " : "") << stage.seconds[i];
    }
    json << "], \"speedup\": [";
    for (std::size_t i = 0; i < stage.seconds.size(); ++i) {
      json << (i ? ", " : "") << stage.seconds[0] / stage.seconds[i];
    }
    json << "], \"bit_identical\": "
         << (stage.bit_identical ? "true" : "false") << "}"
         << (s + 1 < stages.size() ? "," : "") << "\n";
  }
  json << "  },\n";
  json << "  \"stage_timings\": " << recorder.ToJson() << "\n}\n";
  std::printf("\nwrote BENCH_parallel_scaling.json\n");

  bool ok = true;
  for (const StageResult& stage : stages) ok = ok && stage.bit_identical;
  // Threads must not make training slower where there are cores for them
  // (index 2 is 4 threads).
  const StageResult& training = stages[1];
  if (Parallelism::HardwareThreads() >= 4 &&
      training.seconds[2] > training.seconds[0]) {
    std::printf("FAIL: gbt_training at 4 threads (%.3fs) is slower than "
                "at 1 (%.3fs)\n",
                training.seconds[2], training.seconds[0]);
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace domd

int main() { return domd::Run() ? 0 : 1; }
