#ifndef ACTOR_EMBEDDING_EMBEDDING_MATRIX_H_
#define ACTOR_EMBEDDING_EMBEDDING_MATRIX_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace actor {

/// Row-major dense matrix of embedding vectors: one row per vertex. Rows
/// are updated in place by the (lock-free) SGD trainers, so the storage is
/// plain floats with no per-row synchronization — the HOGWILD [45] model.
///
/// Every row starts on a 32-byte boundary: the row stride is dim rounded up
/// to 8 floats and the buffer itself is 32-byte aligned, so the AVX2
/// kernels in util/vec_math.* always see aligned row pointers and rows
/// never straddle each other's cache lines unnecessarily. Padding floats
/// are kept at zero and are never serialized. Consumers that iterate
/// entries must go through row(i) — the buffer is NOT contiguous across
/// rows when dim is not a multiple of 8.
class EmbeddingMatrix {
 public:
  /// Row alignment in bytes (one AVX2 vector).
  static constexpr std::size_t kRowAlignment = 32;

  EmbeddingMatrix() = default;
  EmbeddingMatrix(int32_t rows, int32_t dim);

  EmbeddingMatrix(EmbeddingMatrix&&) = default;
  EmbeddingMatrix& operator=(EmbeddingMatrix&&) = default;
  EmbeddingMatrix(const EmbeddingMatrix&) = delete;
  EmbeddingMatrix& operator=(const EmbeddingMatrix&) = delete;

  /// Deep copy (explicit, because rows * dim can be large).
  EmbeddingMatrix Clone() const;

  int32_t rows() const { return rows_; }
  int32_t dim() const { return dim_; }
  /// Floats between consecutive row starts (dim rounded up to 8).
  std::size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || dim_ == 0; }

  float* row(int32_t i) {
    ACTOR_DCHECK(i >= 0 && i < rows_) << "row " << i << " of " << rows_;
    return data_.get() + static_cast<std::size_t>(i) * stride_;
  }
  const float* row(int32_t i) const {
    ACTOR_DCHECK(i >= 0 && i < rows_) << "row " << i << " of " << rows_;
    return data_.get() + static_cast<std::size_t>(i) * stride_;
  }

  /// Debug-only full-matrix invariant sweep: every entry finite (HOGWILD
  /// updates can silently propagate NaN through shared rows), every padding
  /// float still zero, and the buffer still kRowAlignment-aligned. No-op in
  /// release builds; returns true so it can sit inside assertions.
  bool DebugValidate() const;

  /// word2vec-style initialization: U(-0.5/dim, 0.5/dim) per entry, drawn
  /// in row-major entry order (padding entries stay zero and consume no
  /// draws, so the stream is independent of the stride).
  void InitUniform(Rng& rng);

  /// All-zero initialization (word2vec context matrices start at zero).
  void InitZero();

  /// Copies `src` (length dim) into row i.
  void SetRow(int32_t i, const float* src);

  /// Appends `n` rows initialized word2vec-style (U(-0.5/dim, 0.5/dim))
  /// when `rng` is given, or zero otherwise. Used by the streaming
  /// extension when new units appear mid-stream. Capacity grows
  /// geometrically, so N one-row appends reallocate O(log N) times; a
  /// reallocation moves every row (row pointers do not survive it).
  void AppendRows(int32_t n, Rng* rng = nullptr);

  /// Text serialization: header "rows dim", then one row per line.
  Status Save(const std::string& path) const;
  static Result<EmbeddingMatrix> Load(const std::string& path);

 private:
  struct FreeDeleter {
    void operator()(float* p) const;
  };

  /// Allocates a zeroed, kRowAlignment-aligned buffer for `rows` rows of
  /// the given stride.
  static std::unique_ptr<float[], FreeDeleter> Allocate(std::size_t rows,
                                                        std::size_t stride);

  int32_t rows_ = 0;
  int32_t capacity_ = 0;  // rows the buffer holds; rows past rows_ are zero
  int32_t dim_ = 0;
  std::size_t stride_ = 0;
  std::unique_ptr<float[], FreeDeleter> data_;
};

}  // namespace actor

#endif  // ACTOR_EMBEDDING_EMBEDDING_MATRIX_H_
