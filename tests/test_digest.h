#ifndef ACTOR_TESTS_TEST_DIGEST_H_
#define ACTOR_TESTS_TEST_DIGEST_H_

#include <cstddef>
#include <cstdint>

#include "embedding/embedding_matrix.h"

namespace actor {

// FNV-1a over raw bytes: a compact, order-sensitive fingerprint of a
// float matrix or a result list. The golden-digest tests pin trained
// values with it, one recorded digest per kernel backend.
struct Fnv1a {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  // Every row of `m` in row order (padding excluded).
  void Rows(const EmbeddingMatrix& m) {
    for (int32_t r = 0; r < m.rows(); ++r) {
      Bytes(m.row(r), sizeof(float) * static_cast<std::size_t>(m.dim()));
    }
  }
};

}  // namespace actor

#endif  // ACTOR_TESTS_TEST_DIGEST_H_
