#include "embedding/embedding_matrix.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace actor {
namespace {

TEST(EmbeddingMatrixTest, Dimensions) {
  EmbeddingMatrix m(10, 4);
  EXPECT_EQ(m.rows(), 10);
  EXPECT_EQ(m.dim(), 4);
  EXPECT_FALSE(m.empty());
}

TEST(EmbeddingMatrixTest, DefaultIsEmpty) {
  EmbeddingMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0);
}

TEST(EmbeddingMatrixTest, StartsZeroed) {
  EmbeddingMatrix m(3, 3);
  for (int r = 0; r < 3; ++r) {
    for (int d = 0; d < 3; ++d) EXPECT_FLOAT_EQ(m.row(r)[d], 0.0f);
  }
}

TEST(EmbeddingMatrixTest, InitUniformBounded) {
  EmbeddingMatrix m(50, 16);
  Rng rng(3);
  m.InitUniform(rng);
  const float bound = 0.5f / 16.0f;
  bool any_nonzero = false;
  for (int r = 0; r < m.rows(); ++r) {
    for (int d = 0; d < m.dim(); ++d) {
      EXPECT_LE(std::abs(m.row(r)[d]), bound);
      if (m.row(r)[d] != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(EmbeddingMatrixTest, InitZeroClears) {
  EmbeddingMatrix m(5, 4);
  Rng rng(1);
  m.InitUniform(rng);
  m.InitZero();
  for (int r = 0; r < 5; ++r) {
    for (int d = 0; d < 4; ++d) EXPECT_FLOAT_EQ(m.row(r)[d], 0.0f);
  }
}

TEST(EmbeddingMatrixTest, SetRowCopies) {
  EmbeddingMatrix m(2, 3);
  const float src[] = {1.0f, 2.0f, 3.0f};
  m.SetRow(1, src);
  EXPECT_FLOAT_EQ(m.row(1)[0], 1.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], 3.0f);
  EXPECT_FLOAT_EQ(m.row(0)[0], 0.0f);
}

TEST(EmbeddingMatrixTest, RowsAreIndependent) {
  EmbeddingMatrix m(2, 2);
  m.row(0)[0] = 5.0f;
  EXPECT_FLOAT_EQ(m.row(1)[0], 0.0f);
}

TEST(EmbeddingMatrixTest, CloneIsDeep) {
  EmbeddingMatrix m(2, 2);
  m.row(0)[0] = 1.0f;
  EmbeddingMatrix copy = m.Clone();
  copy.row(0)[0] = 9.0f;
  EXPECT_FLOAT_EQ(m.row(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(copy.row(0)[0], 9.0f);
}

TEST(EmbeddingMatrixTest, RowsAreAligned) {
  // Every row must start on a 32-byte boundary so AVX2 kernels can use
  // aligned loads regardless of dim.
  for (int dim : {1, 3, 5, 8, 17, 64, 300}) {
    EmbeddingMatrix m(4, dim);
    for (int r = 0; r < m.rows(); ++r) {
      const auto addr = reinterpret_cast<std::uintptr_t>(m.row(r));
      EXPECT_EQ(addr % EmbeddingMatrix::kRowAlignment, 0u)
          << "dim=" << dim << " row=" << r;
    }
  }
}

TEST(EmbeddingMatrixTest, StrideIsDimRoundedUpToEightFloats) {
  for (int dim : {1, 7, 8, 9, 16, 17, 300}) {
    EmbeddingMatrix m(2, dim);
    const std::size_t expected = ((dim + 7) / 8) * 8;
    EXPECT_EQ(m.stride(), expected) << "dim=" << dim;
    EXPECT_EQ(m.row(1) - m.row(0), static_cast<std::ptrdiff_t>(m.stride()));
  }
}

TEST(EmbeddingMatrixTest, AppendRowsPreservesAlignmentAndData) {
  EmbeddingMatrix m(2, 5);
  Rng rng(7);
  m.InitUniform(rng);
  const float keep = m.row(1)[4];
  m.AppendRows(3, &rng);
  EXPECT_EQ(m.rows(), 5);
  EXPECT_FLOAT_EQ(m.row(1)[4], keep);
  for (int r = 0; r < m.rows(); ++r) {
    const auto addr = reinterpret_cast<std::uintptr_t>(m.row(r));
    EXPECT_EQ(addr % EmbeddingMatrix::kRowAlignment, 0u);
  }
}

TEST(EmbeddingMatrixTest, OneRowAppendsReallocateLogarithmically) {
  // The streaming actor appends one row per new unit. Each append keeps
  // every earlier row bit-equal, draws the same init stream as one bulk
  // append, and only O(log N) of them move the buffer.
  constexpr int kRows = 1000;
  Rng bulk_rng(7);
  EmbeddingMatrix bulk(0, 5);
  bulk.AppendRows(kRows, &bulk_rng);
  Rng rng(7);
  EmbeddingMatrix m(0, 5);
  const float* base = nullptr;
  int reallocations = 0;
  for (int n = 1; n <= kRows; ++n) {
    m.AppendRows(1, &rng);
    ASSERT_EQ(m.rows(), n);
    if (m.row(0) != base) {
      ++reallocations;
      base = m.row(0);
    }
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(std::memcmp(m.row(r), bulk.row(r), m.stride() * sizeof(float)),
                0)
          << "row " << r << " after " << n << " appends";
    }
  }
  EXPECT_LE(reallocations, 11);  // 1 + ceil(log2(1000))
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(0)) %
                EmbeddingMatrix::kRowAlignment,
            0u);
  EXPECT_TRUE(m.DebugValidate());
}

TEST(EmbeddingMatrixTest, SaveLoadRoundTripPaddedDim) {
  // dim=5 pads each row to stride 8; padding must not leak into the file
  // or the reloaded matrix.
  const std::string path = ::testing::TempDir() + "/emb_padded.txt";
  EmbeddingMatrix m(3, 5);
  Rng rng(21);
  m.InitUniform(rng);
  ASSERT_TRUE(m.Save(path).ok());
  auto loaded = EmbeddingMatrix::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows(), 3);
  EXPECT_EQ(loaded->dim(), 5);
  for (int r = 0; r < 3; ++r) {
    for (int d = 0; d < 5; ++d) {
      EXPECT_NEAR(loaded->row(r)[d], m.row(r)[d], 1e-6f);
    }
  }
  std::remove(path.c_str());
}

TEST(EmbeddingMatrixTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/emb_test.txt";
  EmbeddingMatrix m(4, 3);
  Rng rng(9);
  m.InitUniform(rng);
  m.row(2)[1] = -0.125f;
  ASSERT_TRUE(m.Save(path).ok());
  auto loaded = EmbeddingMatrix::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows(), 4);
  EXPECT_EQ(loaded->dim(), 3);
  for (int r = 0; r < 4; ++r) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(loaded->row(r)[d], m.row(r)[d], 1e-6f);
    }
  }
  std::remove(path.c_str());
}

TEST(EmbeddingMatrixTest, LoadMissingFileIsIOError) {
  EXPECT_TRUE(
      EmbeddingMatrix::Load("/no/such/file.txt").status().IsIOError());
}

TEST(EmbeddingMatrixTest, LoadMalformedHeaderIsError) {
  const std::string path = ::testing::TempDir() + "/emb_bad.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not numbers\n", f);
  std::fclose(f);
  EXPECT_FALSE(EmbeddingMatrix::Load(path).ok());
  std::remove(path.c_str());
}

TEST(EmbeddingMatrixTest, LoadTruncatedIsError) {
  const std::string path = ::testing::TempDir() + "/emb_trunc.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("2 3\n1 2 3\n", f);  // second row missing
  std::fclose(f);
  EXPECT_FALSE(EmbeddingMatrix::Load(path).ok());
  std::remove(path.c_str());
}

TEST(EmbeddingMatrixTest, SaveUnwritableIsIOError) {
  EmbeddingMatrix m(1, 1);
  EXPECT_TRUE(m.Save("/no/such/dir/emb.txt").IsIOError());
}

}  // namespace
}  // namespace actor
