#ifndef DOMD_ML_COLUMNAR_H_
#define DOMD_ML_COLUMNAR_H_

#include <cstdint>
#include <vector>

#include "ml/matrix.h"

namespace domd {

/// One feature column prepared for columnar tree growing: contiguous
/// values and the rows presorted by (value, row index) — the exact order
/// the per-node exact scan needs.
struct FrameColumn {
  std::vector<double> values;
  std::vector<std::uint32_t> order;
};

/// The columnar design matrix a GBT fit consumes: one FrameColumn per
/// feature, all with the same row count. Built per fit from the fit's own
/// input matrix, so only the columns the model reads are ever sorted
/// (DESIGN.md §13).
class TrainingFrame {
 public:
  TrainingFrame() = default;

  /// Columnarizes a row-major matrix (copies and presorts every column).
  static TrainingFrame FromMatrix(const Matrix& x);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return columns_.size(); }
  const FrameColumn& column(std::size_t f) const { return columns_[f]; }

 private:
  std::size_t rows_ = 0;
  std::vector<FrameColumn> columns_;
};

}  // namespace domd

#endif  // DOMD_ML_COLUMNAR_H_
