#include "ml/columnar.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace domd {
namespace {

/// Distinct finite values of a column, ascending.
std::vector<double> DistinctFinite(std::span<const double> values) {
  std::vector<double> distinct;
  distinct.reserve(values.size());
  for (const double v : values) {
    if (!std::isnan(v)) distinct.push_back(v);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  return distinct;
}

}  // namespace

std::vector<double> BuildQuantizerCuts(std::span<const double> values,
                                       std::size_t max_bins) {
  std::vector<double> cuts;
  if (max_bins < 2) return cuts;
  // Codes are at most 16 bits wide, which caps the usable bin budget.
  max_bins = std::min<std::size_t>(max_bins, 65536);
  const std::vector<double> distinct = DistinctFinite(values);
  if (distinct.size() < 2) return cuts;  // constant (or all-NaN) column

  if (distinct.size() <= max_bins) {
    // One bin per distinct value; cuts are the midpoints the exact scan
    // would propose as thresholds (same expression, hence the same bits).
    cuts.reserve(distinct.size() - 1);
    for (std::size_t i = 0; i + 1 < distinct.size(); ++i) {
      cuts.push_back(0.5 * (distinct[i] + distinct[i + 1]));
    }
    return cuts;
  }

  // Over budget: cut between adjacent distinct values at equal-frequency
  // ranks of the distinct-value list. Duplicate cuts (possible when the
  // midpoint rounds onto a neighbor) are dropped.
  cuts.reserve(max_bins - 1);
  for (std::size_t k = 1; k < max_bins; ++k) {
    const std::size_t idx = (k * distinct.size()) / max_bins;
    const double cut = 0.5 * (distinct[idx - 1] + distinct[idx]);
    if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
  }
  return cuts;
}

OwnedColumn MakeOwnedColumn(std::vector<double> values,
                            std::size_t max_bins) {
  OwnedColumn owned;
  owned.values = std::move(values);
  const std::size_t n = owned.values.size();

  owned.order.resize(n);
  std::iota(owned.order.begin(), owned.order.end(), 0u);
  const std::vector<double>& v = owned.values;
  std::sort(owned.order.begin(), owned.order.end(),
            [&v](std::uint32_t a, std::uint32_t b) {
              const double va = v[a], vb = v[b];
              const bool na = std::isnan(va), nb = std::isnan(vb);
              // NaNs sort last (ties, like equal values, break on row id);
              // for NaN-free data this is exactly std::sort over
              // (value, row) pairs — the exact scan's order.
              if (na || nb) return na == nb ? a < b : nb;
              if (va != vb) return va < vb;
              return a < b;
            });

  owned.cuts = BuildQuantizerCuts(owned.values, max_bins);
  if (owned.cuts.size() <= 255) {
    owned.codes8.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      owned.codes8[r] = static_cast<std::uint8_t>(BinOf(v[r], owned.cuts));
    }
  } else {
    owned.codes16.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      owned.codes16[r] = static_cast<std::uint16_t>(BinOf(v[r], owned.cuts));
    }
  }
  return owned;
}

TrainingFrame TrainingFrame::FromMatrix(const Matrix& x,
                                        std::size_t max_bins) {
  TrainingFrame frame;
  frame.rows_ = x.rows();
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const OwnedColumn& owned =
        frame.owned_.emplace_back(MakeOwnedColumn(x.Column(c), max_bins));
    FrameColumn column;
    column.values = owned.values;
    column.order = owned.order;
    column.codes8 = owned.codes8;
    column.codes16 = owned.codes16;
    column.cuts = owned.cuts;
    frame.columns_.push_back(column);
  }
  return frame;
}

}  // namespace domd
