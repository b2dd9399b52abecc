#include "ml/gbt.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/rng.h"
#include "ml/columnar.h"
#include "obs/trace.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace domd {

Status GbtRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  DOMD_OBS_SPAN("gbt.fit");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  if (n == 0 || p == 0) {
    return Status::InvalidArgument("gbt: empty design matrix");
  }
  if (y.size() != n) {
    return Status::InvalidArgument("gbt: label/row count mismatch");
  }
  if (params_.num_rounds <= 0 || params_.learning_rate <= 0.0) {
    return Status::InvalidArgument("gbt: rounds and learning rate must be positive");
  }

  const TrainingFrame frame = TrainingFrame::FromMatrix(x);
  trees_.clear();
  training_curve_.clear();
  num_features_ = p;

  // Base score: mean for squared loss, the target quantile for pinball,
  // median otherwise (robust start).
  if (loss_.kind() == LossKind::kSquared) {
    base_score_ = std::accumulate(y.begin(), y.end(), 0.0) /
                  static_cast<double>(n);
  } else {
    std::vector<double> sorted = y;
    std::sort(sorted.begin(), sorted.end());
    const double level =
        loss_.kind() == LossKind::kQuantile ? loss_.tau() : 0.5;
    const auto index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(level * static_cast<double>(sorted.size())));
    base_score_ = sorted[index];
  }

  std::vector<double> predictions(n, base_score_);
  std::vector<double> grad(n), hess(n);
  Rng rng(params_.seed);

  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<std::size_t> all_features(p);
  std::iota(all_features.begin(), all_features.end(), 0);

  for (int round = 0; round < params_.num_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = loss_.Gradient(predictions[i], y[i]);
      hess[i] = loss_.Hessian(predictions[i], y[i]);
    }

    // Row subsampling.
    std::vector<std::size_t> rows;
    if (params_.subsample >= 1.0) {
      rows = all_rows;
    } else {
      rows.reserve(static_cast<std::size_t>(
          params_.subsample * static_cast<double>(n)) + 1);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(params_.subsample)) rows.push_back(i);
      }
      if (rows.size() < 2) rows = all_rows;
    }

    // Column subsampling.
    std::vector<std::size_t> features;
    if (params_.colsample >= 1.0) {
      features = all_features;
    } else {
      features.reserve(static_cast<std::size_t>(
          params_.colsample * static_cast<double>(p)) + 1);
      for (std::size_t f = 0; f < p; ++f) {
        if (rng.Bernoulli(params_.colsample)) features.push_back(f);
      }
      if (features.empty()) features = all_features;
    }

    RegressionTree tree;
    {
      DOMD_OBS_SPAN("gbt.split_search");
      tree.Fit(frame, grad, hess, rows, features, params_.tree);
    }

    // Zero-curvature losses (absolute, pinball): the Newton step under the
    // unit-Hessian surrogate is a tiny fixed-size move, so (as LightGBM
    // does for MAE) refine each leaf to the optimal order statistic of its
    // residuals — the median for l1, the tau-quantile for pinball.
    if (loss_.kind() == LossKind::kAbsolute ||
        loss_.kind() == LossKind::kQuantile) {
      const double level =
          loss_.kind() == LossKind::kQuantile ? loss_.tau() : 0.5;
      std::unordered_map<std::int32_t, std::vector<double>> leaf_residuals;
      for (std::size_t i : rows) {
        const std::int32_t leaf = tree.LeafFor(x.row(i));
        leaf_residuals[leaf].push_back(y[i] - predictions[i]);
      }
      for (auto& [leaf, residuals] : leaf_residuals) {
        std::sort(residuals.begin(), residuals.end());
        const auto index = std::min(
            residuals.size() - 1,
            static_cast<std::size_t>(level *
                                     static_cast<double>(residuals.size())));
        tree.SetNodeWeight(leaf, residuals[index]);
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      predictions[i] += params_.learning_rate * tree.Predict(x.row(i));
    }
    trees_.push_back(std::move(tree));

    double loss_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      loss_sum += loss_.Value(predictions[i], y[i]);
    }
    training_curve_.push_back(loss_sum / static_cast<double>(n));
  }
  Flatten();
  return Status::OK();
}

void GbtRegressor::Flatten() {
  std::size_t nodes = 0;
  for (const RegressionTree& tree : trees_) {
    nodes += std::max<std::size_t>(tree.num_nodes(), 1);  // empty: one leaf
  }
  flat_ = FlatForest();
  flat_.feature.reserve(nodes);
  flat_.left.reserve(nodes);
  flat_.right.reserve(nodes);
  flat_.threshold.reserve(nodes);
  flat_.weight.reserve(nodes);
  flat_.roots.reserve(trees_.size());
  flat_.depths.reserve(trees_.size());
  for (const RegressionTree& tree : trees_) {
    flat_.roots.push_back(static_cast<std::int32_t>(flat_.feature.size()));
    flat_.depths.push_back(tree.depth());
    tree.AppendFlat(flat_.roots.back(), &flat_.feature, &flat_.threshold,
                    &flat_.left, &flat_.right, &flat_.weight);
  }
}

double GbtRegressor::Predict(std::span<const double> row) const {
  double value = base_score_;
  for (const RegressionTree& tree : trees_) {
    value += params_.learning_rate * tree.Predict(row);
  }
  return value;
}

std::vector<double> GbtRegressor::PredictBatch(const Matrix& x) const {
  const std::size_t n = x.rows();
  std::vector<double> out(n, base_score_);
  if (trees_.empty() || n == 0) return out;

  // Read the node arrays Fit or Load flattened. Flattening is linear in
  // node count but, for a batch of a few rows, costs several times the
  // descent itself, so it is never done per call.
  const std::vector<std::int32_t>& feature = flat_.feature;
  const std::vector<std::int32_t>& left = flat_.left;
  const std::vector<std::int32_t>& right = flat_.right;
  const std::vector<double>& threshold = flat_.threshold;
  const std::vector<double>& weight = flat_.weight;

  // Block of rows descends one tree at a time: every step reads one node
  // array entry per row (branch-free select), and per-row accumulation
  // stays in tree order — the exact FP sequence of Predict().
  constexpr std::size_t kBlock = 256;
  std::vector<std::int32_t> idx(kBlock);
  const double lr = params_.learning_rate;
  const std::size_t cols = x.cols();
  const double* xd = x.data().data();

#if defined(__AVX2__)
  // The gathers index with i32 lane offsets; huge matrices fall back to
  // the scalar path.
  const bool simd_ok =
      n * cols < static_cast<std::size_t>(std::numeric_limits<
                                          std::int32_t>::max());
#endif

  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t bn = std::min(kBlock, n - b0);
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      const std::int32_t root = flat_.roots[t];
      const int depth = flat_.depths[t];
      std::size_t j = 0;
#if defined(__AVX2__)
      if (simd_ok) {
        // Four rows per vector; only comparisons and index selects are
        // vectorized, so the result is bit-identical (v <= t with NaN is
        // false under _CMP_LE_OQ, matching the scalar route-right).
        const auto* fp = reinterpret_cast<const int*>(feature.data());
        const auto* lp = reinterpret_cast<const int*>(left.data());
        const auto* rp = reinterpret_cast<const int*>(right.data());
        const int icols = static_cast<int>(cols);
        for (; j + 4 <= bn; j += 4) {
          __m128i vidx = _mm_set1_epi32(root);
          const int r0 = static_cast<int>((b0 + j) * cols);
          const __m128i rowbase =
              _mm_setr_epi32(r0, r0 + icols, r0 + 2 * icols, r0 + 3 * icols);
          for (int d = 0; d < depth; ++d) {
            const __m128i f = _mm_i32gather_epi32(fp, vidx, 4);
            const __m256d v =
                _mm256_i32gather_pd(xd, _mm_add_epi32(rowbase, f), 8);
            const __m256d th =
                _mm256_i32gather_pd(threshold.data(), vidx, 8);
            const __m256d le = _mm256_cmp_pd(v, th, _CMP_LE_OQ);
            const __m128i l = _mm_i32gather_epi32(lp, vidx, 4);
            const __m128i r = _mm_i32gather_epi32(rp, vidx, 4);
            // Pack the 4x64-bit compare mask down to 4x32 for the select.
            const __m256i lei = _mm256_castpd_si256(le);
            const __m128i m32 = _mm_castps_si128(_mm_shuffle_ps(
                _mm_castsi128_ps(_mm256_castsi256_si128(lei)),
                _mm_castsi128_ps(_mm256_extracti128_si256(lei, 1)),
                _MM_SHUFFLE(2, 0, 2, 0)));
            vidx = _mm_blendv_epi8(r, l, m32);
          }
          alignas(16) std::int32_t lanes[4];
          _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vidx);
          for (int lane = 0; lane < 4; ++lane) {
            out[b0 + j + static_cast<std::size_t>(lane)] +=
                lr * weight[static_cast<std::size_t>(lanes[lane])];
          }
        }
      }
#endif
      for (std::size_t k = j; k < bn; ++k) idx[k] = root;
      for (int d = 0; d < depth; ++d) {
        for (std::size_t k = j; k < bn; ++k) {
          const auto node = static_cast<std::size_t>(idx[k]);
          const double v =
              xd[(b0 + k) * cols + static_cast<std::size_t>(feature[node])];
          idx[k] = v <= threshold[node] ? left[node] : right[node];
        }
      }
      for (std::size_t k = j; k < bn; ++k) {
        out[b0 + k] += lr * weight[static_cast<std::size_t>(idx[k])];
      }
    }
  }
  return out;
}

std::vector<double> GbtRegressor::FeatureImportances() const {
  std::vector<double> gains(num_features_, 0.0);
  for (const RegressionTree& tree : trees_) {
    tree.AccumulateGains(&gains);
  }
  return gains;
}

void WriteGbtParams(std::ostream& out, const GbtParams& params) {
  out << params.num_rounds << ' ' << params.learning_rate << ' '
      << params.tree.max_depth << ' ' << params.tree.min_child_weight << ' '
      << params.tree.lambda << ' ' << params.tree.gamma << ' '
      << static_cast<int>(params.tree.split_method) << ' '
      << params.tree.histogram_bins << ' ' << params.subsample << ' '
      << params.colsample << ' ' << params.seed;
}

Status ReadGbtParams(std::istream& in, const std::string& record,
                     GbtParams* params) {
  int split_method = 0;
  if (!(in >> params->num_rounds >> params->learning_rate >>
        params->tree.max_depth >> params->tree.min_child_weight >>
        params->tree.lambda >> params->tree.gamma >> split_method >>
        params->tree.histogram_bins >> params->subsample >>
        params->colsample >> params->seed)) {
    return Status::InvalidArgument("bad " + record + " record");
  }
  return ReadEnum(split_method, SplitMethod::kHistogram,
                  (record + " split method").c_str(),
                  &params->tree.split_method);
}

void GbtRegressor::Save(std::ostream& out) const {
  out << std::setprecision(17);
  out << "gbt v1\n";
  out << "loss " << static_cast<int>(loss_.kind()) << ' ' << loss_.delta()
      << "\n";
  out << "params ";
  WriteGbtParams(out, params_);
  out << "\nmodel " << base_score_ << ' ' << num_features_ << ' '
      << trees_.size() << "\n";
  for (const RegressionTree& tree : trees_) tree.Save(out);
}

StatusOr<GbtRegressor> GbtRegressor::Load(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "gbt" || version != "v1") {
    return Status::InvalidArgument("bad GBT header");
  }
  int loss_kind = 0;
  double delta = 0.0;
  if (!(in >> tag >> loss_kind >> delta) || tag != "loss") {
    return Status::InvalidArgument("bad GBT loss record");
  }
  if (!(in >> tag) || tag != "params") {
    return Status::InvalidArgument("bad GBT params record");
  }
  GbtParams params;
  DOMD_RETURN_IF_ERROR(ReadGbtParams(in, "GBT params", &params));
  LossKind kind = LossKind::kSquared;
  DOMD_RETURN_IF_ERROR(
      ReadEnum(loss_kind, LossKind::kQuantile, "GBT loss", &kind));

  GbtRegressor model(params, Loss::FromKind(kind, delta));
  std::size_t num_trees = 0;
  if (!(in >> tag >> model.base_score_ >> model.num_features_ >> num_trees) ||
      tag != "model") {
    return Status::InvalidArgument("bad GBT model record");
  }
  if (num_trees > 1'000'000) {
    return Status::OutOfRange("implausible GBT tree count");
  }
  model.trees_.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    auto tree = RegressionTree::Load(in, model.num_features_);
    if (!tree.ok()) return tree.status();
    model.trees_.push_back(std::move(*tree));
  }
  model.Flatten();
  return model;
}

std::vector<double> GbtRegressor::Contributions(
    std::span<const double> row) const {
  std::vector<double> contributions(num_features_ + 1, 0.0);
  double base = base_score_;
  for (const RegressionTree& tree : trees_) {
    base += tree.AccumulateContributions(row, params_.learning_rate,
                                         &contributions);
  }
  contributions.back() = base;
  return contributions;
}

}  // namespace domd
