#include "embedding/embedding_matrix.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/vec_math.h"

namespace actor {

namespace {

std::size_t PaddedStride(int32_t dim) {
  constexpr std::size_t kFloatsPerVector =
      EmbeddingMatrix::kRowAlignment / sizeof(float);
  const std::size_t d = static_cast<std::size_t>(dim);
  return (d + kFloatsPerVector - 1) / kFloatsPerVector * kFloatsPerVector;
}

}  // namespace

void EmbeddingMatrix::FreeDeleter::operator()(float* p) const {
  std::free(p);
}

std::unique_ptr<float[], EmbeddingMatrix::FreeDeleter>
EmbeddingMatrix::Allocate(std::size_t rows, std::size_t stride) {
  const std::size_t bytes = rows * stride * sizeof(float);
  if (bytes == 0) return nullptr;
  // stride is a multiple of kRowAlignment/sizeof(float), so bytes is a
  // multiple of the alignment as std::aligned_alloc requires.
  void* p = std::aligned_alloc(kRowAlignment, bytes);
  ACTOR_CHECK(p != nullptr);
  std::memset(p, 0, bytes);
  return std::unique_ptr<float[], FreeDeleter>(static_cast<float*>(p));
}

EmbeddingMatrix::EmbeddingMatrix(int32_t rows, int32_t dim)
    : rows_(rows), capacity_(rows), dim_(dim), stride_(PaddedStride(dim)) {
  ACTOR_DCHECK(rows >= 0 && dim >= 0) << rows << "x" << dim;
  data_ = Allocate(static_cast<std::size_t>(rows), stride_);
  ACTOR_DCHECK(reinterpret_cast<std::uintptr_t>(data_.get()) %
                   kRowAlignment ==
               0)
      << "matrix buffer not " << kRowAlignment << "-byte aligned";
}

bool EmbeddingMatrix::DebugValidate() const {
  if constexpr (kDebugChecksEnabled) {
    ACTOR_DCHECK(reinterpret_cast<std::uintptr_t>(data_.get()) %
                     kRowAlignment ==
                 0)
        << "matrix buffer not " << kRowAlignment << "-byte aligned";
    for (int32_t r = 0; r < rows_; ++r) {
      const float* v = row(r);
      for (int32_t d = 0; d < dim_; ++d) {
        ACTOR_DCHECK(std::isfinite(v[d]))
            << "non-finite entry at (" << r << ", " << d << "): " << v[d];
      }
      for (std::size_t p = static_cast<std::size_t>(dim_); p < stride_; ++p) {
        ACTOR_DCHECK(v[p] == 0.0f)
            << "padding float " << p << " of row " << r << " is " << v[p];
      }
    }
  }
  return true;
}

EmbeddingMatrix EmbeddingMatrix::Clone() const {
  EmbeddingMatrix copy(rows_, dim_);
  if (data_ != nullptr) {
    std::memcpy(copy.data_.get(), data_.get(),
                static_cast<std::size_t>(rows_) * stride_ * sizeof(float));
  }
  return copy;
}

void EmbeddingMatrix::InitUniform(Rng& rng) {
  const float scale = dim_ > 0 ? 1.0f / static_cast<float>(dim_) : 0.0f;
  for (int32_t r = 0; r < rows_; ++r) {
    float* v = row(r);
    for (int32_t d = 0; d < dim_; ++d) {
      v[d] = (rng.UniformFloat() - 0.5f) * scale;
    }
  }
}

void EmbeddingMatrix::InitZero() {
  if (data_ != nullptr) {
    std::memset(data_.get(), 0,
                static_cast<std::size_t>(rows_) * stride_ * sizeof(float));
  }
}

void EmbeddingMatrix::SetRow(int32_t i, const float* src) {
  if constexpr (kDebugChecksEnabled) {
    for (int32_t d = 0; d < dim_; ++d) ACTOR_DCHECK_FINITE(src[d]);
  }
  Copy(src, row(i), static_cast<std::size_t>(dim_));
}

void EmbeddingMatrix::AppendRows(int32_t n, Rng* rng) {
  if (n <= 0) return;
  const int32_t old_rows = rows_;
  rows_ += n;
  if (rows_ > capacity_ || data_ == nullptr) {
    capacity_ = std::max(rows_, 2 * capacity_);
    auto grown = Allocate(static_cast<std::size_t>(capacity_), stride_);
    if (data_ != nullptr) {
      std::memcpy(grown.get(), data_.get(),
                  static_cast<std::size_t>(old_rows) * stride_ * sizeof(float));
    }
    data_ = std::move(grown);
  }
  if (rng != nullptr && dim_ > 0) {
    const float scale = 1.0f / static_cast<float>(dim_);
    for (int32_t r = old_rows; r < rows_; ++r) {
      float* v = row(r);
      for (int32_t d = 0; d < dim_; ++d) {
        v[d] = (rng->UniformFloat() - 0.5f) * scale;
      }
    }
  }
}

Status EmbeddingMatrix::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  // max_digits10 so Load() reproduces every float bit-exactly.
  out.precision(9);
  out << rows_ << ' ' << dim_ << '\n';
  for (int32_t r = 0; r < rows_; ++r) {
    const float* v = row(r);
    for (int32_t d = 0; d < dim_; ++d) {
      if (d > 0) out << ' ';
      out << v[d];
    }
    out << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EmbeddingMatrix> EmbeddingMatrix::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  int32_t rows = 0, dim = 0;
  if (!(in >> rows >> dim) || rows < 0 || dim <= 0) {
    return Status::InvalidArgument("malformed embedding header in " + path);
  }
  EmbeddingMatrix m(rows, dim);
  for (int32_t r = 0; r < rows; ++r) {
    float* v = m.row(r);
    for (int32_t d = 0; d < dim; ++d) {
      if (!(in >> v[d])) {
        return Status::InvalidArgument(StrPrintf(
            "truncated embedding matrix at row %d in %s", r, path.c_str()));
      }
    }
  }
  return m;
}

}  // namespace actor
