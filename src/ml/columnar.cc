#include "ml/columnar.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace domd {

TrainingFrame TrainingFrame::FromMatrix(const Matrix& x) {
  TrainingFrame frame;
  frame.rows_ = x.rows();
  frame.columns_.reserve(x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c) {
    FrameColumn& column = frame.columns_.emplace_back();
    column.values = x.Column(c);
    column.order.resize(column.values.size());
    std::iota(column.order.begin(), column.order.end(), 0u);
    const std::vector<double>& v = column.values;
    std::sort(column.order.begin(), column.order.end(),
              [&v](std::uint32_t a, std::uint32_t b) {
                const double va = v[a], vb = v[b];
                const bool na = std::isnan(va), nb = std::isnan(vb);
                // NaNs sort last (ties, like equal values, break on row
                // id); for NaN-free data this is exactly std::sort over
                // (value, row) pairs — the exact scan's order.
                if (na || nb) return na == nb ? a < b : nb;
                if (va != vb) return va < vb;
                return a < b;
              });
  }
  return frame;
}

}  // namespace domd
