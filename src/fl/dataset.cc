#include "src/fl/dataset.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/check.h"

namespace flb::fl {

double DataMatrix::Dot(size_t row, const std::vector<double>& w) const {
  FLB_DCHECK(row < rows_);
  double acc = 0.0;
  for (size_t k = RowBegin(row); k < RowEnd(row); ++k) {
    acc += static_cast<double>(values_[k]) * w[col_idx_[k]];
  }
  return acc;
}

void DataMatrix::AddScaledRowTo(size_t row, double scale,
                                std::vector<double>* acc) const {
  FLB_DCHECK(row < rows_ && acc->size() >= cols_);
  for (size_t k = RowBegin(row); k < RowEnd(row); ++k) {
    (*acc)[col_idx_[k]] += scale * static_cast<double>(values_[k]);
  }
}

DataMatrix DataMatrix::SliceColumns(size_t col_begin, size_t col_end) const {
  FLB_CHECK(col_begin <= col_end && col_end <= cols_);
  DataMatrixBuilder builder(col_end - col_begin);
  std::vector<std::pair<uint32_t, float>> entries;
  for (size_t r = 0; r < rows_; ++r) {
    entries.clear();
    for (size_t k = RowBegin(r); k < RowEnd(r); ++k) {
      if (col_idx_[k] >= col_begin && col_idx_[k] < col_end) {
        entries.emplace_back(col_idx_[k] - static_cast<uint32_t>(col_begin),
                             values_[k]);
      }
    }
    builder.AddRow(entries);
  }
  return builder.Build();
}

DataMatrix DataMatrix::SliceRows(size_t row_begin, size_t row_end) const {
  FLB_CHECK(row_begin <= row_end && row_end <= rows_);
  DataMatrixBuilder builder(cols_);
  std::vector<std::pair<uint32_t, float>> entries;
  for (size_t r = row_begin; r < row_end; ++r) {
    entries.clear();
    for (size_t k = RowBegin(r); k < RowEnd(r); ++k) {
      entries.emplace_back(col_idx_[k], values_[k]);
    }
    builder.AddRow(entries);
  }
  return builder.Build();
}

void DataMatrixBuilder::AddRow(
    const std::vector<std::pair<uint32_t, float>>& entries) {
  uint32_t prev = 0;
  bool first = true;
  for (const auto& [col, value] : entries) {
    FLB_CHECK(col < cols_, "column index out of range");
    FLB_CHECK(first || col > prev, "row entries must be strictly increasing");
    first = false;
    prev = col;
    m_.col_idx_.push_back(col);
    m_.values_.push_back(value);
  }
  ++m_.rows_;
  m_.row_offsets_.push_back(m_.col_idx_.size());
}

DataMatrix DataMatrixBuilder::Build() {
  m_.cols_ = cols_;
  return std::move(m_);
}

std::string DatasetName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kRcv1:
      return "RCV1";
    case DatasetKind::kAvazu:
      return "Avazu";
    case DatasetKind::kSynthetic:
      return "Synthetic";
  }
  return "unknown";
}

DatasetSpec DefaultScaleSpec(DatasetKind kind) {
  DatasetSpec spec;
  spec.kind = kind;
  switch (kind) {
    case DatasetKind::kRcv1:
      spec.rows = 4096;
      spec.cols = 1024;
      spec.nnz_per_row = 48;
      break;
    case DatasetKind::kAvazu:
      spec.rows = 8192;
      spec.cols = 4096;
      spec.nnz_per_row = 15;
      break;
    case DatasetKind::kSynthetic:
      spec.rows = 2048;
      spec.cols = 256;
      spec.nnz_per_row = 256;  // dense
      break;
  }
  return spec;
}

namespace {

// Ground-truth linear model for label generation: heavy on a few features,
// light elsewhere (realistic for text/CTR data).
std::vector<double> GroundTruthWeights(size_t cols, Rng& rng) {
  std::vector<double> w(cols);
  for (size_t j = 0; j < cols; ++j) {
    const bool strong = rng.NextBernoulli(0.05);
    w[j] = rng.NextGaussian() * (strong ? 1.5 : 0.1);
  }
  return w;
}

float LabelFromScore(double score, double intercept, Rng& rng) {
  const double prob = 1.0 / (1.0 + std::exp(-(score + intercept)));
  return rng.NextBernoulli(prob) ? 1.0f : 0.0f;
}

// Draws `count` distinct column indices, sorted ascending.
std::vector<uint32_t> DrawColumns(size_t cols, size_t count, Rng& rng,
                                  bool zipfian) {
  std::set<uint32_t> chosen;
  while (chosen.size() < count && chosen.size() < cols) {
    uint32_t col;
    if (zipfian) {
      // Skewed toward low indices (frequent terms / popular categories).
      const double u = rng.NextDouble();
      col = static_cast<uint32_t>(std::min<double>(
          static_cast<double>(cols) - 1, (std::pow(u, 2.2)) * cols));
    } else {
      col = static_cast<uint32_t>(rng.NextBelow(cols));
    }
    chosen.insert(col);
  }
  return {chosen.begin(), chosen.end()};
}

Dataset GenerateRcv1Like(const DatasetSpec& spec, Rng& rng) {
  // Sparse TF-IDF-style positive features, L2-normalized rows, binary topic
  // label driven by a sparse linear model.
  Dataset ds;
  ds.name = "RCV1-like";
  const std::vector<double> w = GroundTruthWeights(spec.cols, rng);
  DataMatrixBuilder builder(spec.cols);
  ds.y.reserve(spec.rows);
  std::vector<std::pair<uint32_t, float>> entries;
  for (size_t r = 0; r < spec.rows; ++r) {
    const size_t nnz =
        std::max<size_t>(1, spec.nnz_per_row / 2 +
                                rng.NextBelow(spec.nnz_per_row + 1));
    const auto cols = DrawColumns(spec.cols, nnz, rng, /*zipfian=*/true);
    entries.clear();
    double norm_sq = 0.0;
    for (uint32_t c : cols) {
      const float v = static_cast<float>(std::fabs(rng.NextGaussian()) + 0.1);
      entries.emplace_back(c, v);
      norm_sq += static_cast<double>(v) * v;
    }
    const float inv_norm = static_cast<float>(1.0 / std::sqrt(norm_sq));
    double score = 0.0;
    for (auto& [c, v] : entries) {
      v *= inv_norm;
      score += static_cast<double>(v) * w[c];
    }
    builder.AddRow(entries);
    ds.y.push_back(LabelFromScore(4.0 * score, 0.0, rng));
  }
  ds.x = builder.Build();
  return ds;
}

Dataset GenerateAvazuLike(const DatasetSpec& spec, Rng& rng) {
  // One-hot categorical fields, ~17% positive rate (Avazu's CTR base rate).
  Dataset ds;
  ds.name = "Avazu-like";
  const std::vector<double> w = GroundTruthWeights(spec.cols, rng);
  const size_t fields = std::max<size_t>(1, spec.nnz_per_row);
  const size_t field_width = std::max<size_t>(1, spec.cols / fields);
  DataMatrixBuilder builder(spec.cols);
  ds.y.reserve(spec.rows);
  std::vector<std::pair<uint32_t, float>> entries;
  for (size_t r = 0; r < spec.rows; ++r) {
    entries.clear();
    double score = 0.0;
    for (size_t f = 0; f < fields; ++f) {
      // Popular categories dominate within each field.
      const double u = rng.NextDouble();
      const size_t offset = static_cast<size_t>(std::pow(u, 3.0) * field_width);
      const uint32_t col = static_cast<uint32_t>(
          std::min(spec.cols - 1, f * field_width + offset));
      if (!entries.empty() && entries.back().first >= col) continue;
      entries.emplace_back(col, 1.0f);
      score += w[col];
    }
    builder.AddRow(entries);
    // Intercept -2.2 with a damped score centers the base rate near 17%
    // (Avazu's CTR).
    ds.y.push_back(LabelFromScore(0.5 * score, -2.2, rng));
  }
  ds.x = builder.Build();
  return ds;
}

Dataset GenerateSyntheticLike(const DatasetSpec& spec, Rng& rng) {
  // LEAF Synthetic: dense Gaussian features, logistic labels (binary
  // rendition of y = argmax(Wx + b)).
  Dataset ds;
  ds.name = "Synthetic-like";
  const std::vector<double> w = GroundTruthWeights(spec.cols, rng);
  DataMatrixBuilder builder(spec.cols);
  ds.y.reserve(spec.rows);
  std::vector<std::pair<uint32_t, float>> entries(spec.cols);
  const double inv_sqrt_cols = 1.0 / std::sqrt(static_cast<double>(spec.cols));
  for (size_t r = 0; r < spec.rows; ++r) {
    double score = 0.0;
    for (size_t c = 0; c < spec.cols; ++c) {
      const float v = static_cast<float>(rng.NextGaussian() * inv_sqrt_cols);
      entries[c] = {static_cast<uint32_t>(c), v};
      score += static_cast<double>(v) * w[c];
    }
    builder.AddRow(entries);
    ds.y.push_back(LabelFromScore(3.0 * score, 0.0, rng));
  }
  ds.x = builder.Build();
  return ds;
}

}  // namespace

Result<Dataset> GenerateDataset(const DatasetSpec& spec) {
  if (spec.rows == 0 || spec.cols == 0) {
    return Status::InvalidArgument("GenerateDataset: empty shape");
  }
  if (spec.nnz_per_row > spec.cols) {
    return Status::InvalidArgument("GenerateDataset: nnz_per_row > cols");
  }
  Rng rng(spec.seed ^ (static_cast<uint64_t>(spec.kind) << 32));
  switch (spec.kind) {
    case DatasetKind::kRcv1:
      return GenerateRcv1Like(spec, rng);
    case DatasetKind::kAvazu:
      return GenerateAvazuLike(spec, rng);
    case DatasetKind::kSynthetic:
      return GenerateSyntheticLike(spec, rng);
  }
  return Status::InvalidArgument("GenerateDataset: unknown kind");
}

}  // namespace flb::fl
