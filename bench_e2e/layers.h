#ifndef DOMD_BENCH_E2E_LAYERS_H_
#define DOMD_BENCH_E2E_LAYERS_H_

#include "bench_e2e/runner.h"
#include "bench_e2e/trace.h"

namespace domd {
namespace bench_e2e {

/// What the in-process replay measured besides its spans.
struct LayerReplay {
  /// Group size of the bavg ScoreBatch: the cluster's mean batch size.
  std::size_t batch_size = 1;
};

/// Replays the run's own requests through each layer's public functions,
/// in this process and with the cluster gone (nothing else competes for
/// the CPU), recording one span per call: JSON parse and request decode,
/// reference scoring, Status Queries, the pieces of a detached score
/// (feature view, per-step models, fusion, attribution), ScoreBatch solo
/// and batched, PredictionService from four threads, fsync'd appends with
/// dirty snapshots, replicated applies and merges on scratch stores, and a
/// full train + bundle write + load + swap.
StatusOr<LayerReplay> ReplayLayers(Runner* runner, SpanBuffer* tracer);

}  // namespace bench_e2e
}  // namespace domd

#endif  // DOMD_BENCH_E2E_LAYERS_H_
