// Datasets for federated training.
//
// The paper evaluates on RCV1 (sparse text, 677K x 47K), Avazu (sparse CTR
// one-hots, 1.7M x 1M) and the LEAF Synthetic generator (dense, 100K x 10K).
// Those exact corpora are not available offline, so deterministic generators
// with the same *character* stand in (DESIGN.md §1): sparsity pattern,
// feature scale, label mechanism and class balance are modeled after each
// source; instance/feature counts are configurable and default to
// container-friendly sizes.

#ifndef FLB_FL_DATASET_H_
#define FLB_FL_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"

namespace flb::fl {

// Compressed-sparse-row feature matrix (labels live in Dataset).
class DataMatrix {
 public:
  DataMatrix() = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }
  double density() const {
    return rows_ == 0 || cols_ == 0
               ? 0.0
               : static_cast<double>(nnz()) / (rows_ * cols_);
  }

  // Row access (half-open entry range [RowBegin, RowEnd)).
  size_t RowBegin(size_t row) const { return row_offsets_[row]; }
  size_t RowEnd(size_t row) const { return row_offsets_[row + 1]; }
  uint32_t EntryCol(size_t k) const { return col_idx_[k]; }
  float EntryValue(size_t k) const { return values_[k]; }
  size_t RowNnz(size_t row) const { return RowEnd(row) - RowBegin(row); }

  // w must have >= cols entries. Returns sum_j x[row][j] * w[j].
  double Dot(size_t row, const std::vector<double>& w) const;
  // acc[j] += scale * x[row][j] for the row's nonzeros.
  void AddScaledRowTo(size_t row, double scale, std::vector<double>* acc) const;

  // The column-restricted copy used by vertical partitioning: keeps columns
  // [col_begin, col_end) and renumbers them from zero.
  DataMatrix SliceColumns(size_t col_begin, size_t col_end) const;
  // Row-restricted copy (keeps rows [row_begin, row_end)).
  DataMatrix SliceRows(size_t row_begin, size_t row_end) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_{0};
  std::vector<uint32_t> col_idx_;
  std::vector<float> values_;

  friend class DataMatrixBuilder;
};

// Streaming row-by-row builder (generators use it).
class DataMatrixBuilder {
 public:
  DataMatrixBuilder(size_t cols) : cols_(cols) {}
  // Entries must have strictly increasing column indices < cols.
  void AddRow(const std::vector<std::pair<uint32_t, float>>& entries);
  DataMatrix Build();

 private:
  size_t cols_;
  DataMatrix m_;
};

struct Dataset {
  std::string name;
  DataMatrix x;
  std::vector<float> y;  // binary labels in {0, 1}

  size_t rows() const { return x.rows(); }
  size_t cols() const { return x.cols(); }
};

enum class DatasetKind : int { kRcv1 = 0, kAvazu = 1, kSynthetic = 2 };

std::string DatasetName(DatasetKind kind);

struct DatasetSpec {
  DatasetKind kind = DatasetKind::kSynthetic;
  size_t rows = 2000;
  size_t cols = 200;
  // Average nonzeros per row for the sparse generators (ignored by the
  // dense Synthetic generator).
  size_t nnz_per_row = 40;
  uint64_t seed = 7;
};

// Container-friendly default shapes preserving each corpus's character.
DatasetSpec DefaultScaleSpec(DatasetKind kind);

// Deterministic generation; the same spec always yields the same dataset.
Result<Dataset> GenerateDataset(const DatasetSpec& spec);

}  // namespace flb::fl

#endif  // FLB_FL_DATASET_H_
