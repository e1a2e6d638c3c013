// OnlineActor's steady-state Ingest allocates nothing. This binary
// replaces the global operator new with a counting one, so it holds only
// this test: other tests' allocations must not reach the counter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/online_actor.h"
#include "data/synthetic.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

void* CountedAllocOrNull(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlloc(std::size_t size) {
  void* p = CountedAllocOrNull(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every non-aligned form, nothrow included, so each allocation this binary
// frees with free() came from malloc() (the sanitize preset's ASan checks
// the pairing).
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocOrNull(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocOrNull(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace actor {
namespace {

std::vector<TokenizedRecord> MakeBatch(int records) {
  SyntheticConfig config;
  config.seed = 5;
  config.num_records = records;
  config.num_users = 80;
  config.num_communities = 4;
  config.num_topics = 6;
  config.num_venues = 16;
  config.keywords_per_topic = 20;
  config.background_vocab = 40;
  auto ds = GenerateSynthetic(config);
  EXPECT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  EXPECT_TRUE(corpus.ok());
  std::vector<TokenizedRecord> batch;
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    batch.push_back(corpus->record(i));
  }
  return batch;
}

/// Operator-new calls made by one Ingest() of `batch`.
long AllocationsOfIngest(OnlineActor& model,
                         const std::vector<TokenizedRecord>& batch,
                         Status* status) {
  g_allocations.store(0);
  g_counting.store(true);
  *status = model.Ingest(batch);
  g_counting.store(false);
  return g_allocations.load();
}

// Every store, sampler, tile slot and batch list is grown on the ingest
// thread, and prepare and train write only into that capacity. So once a
// batch's units and edges exist, ingesting it again, at four shards, with
// cross-shard edges, tile refreshes and sampler rebuilds, allocates
// nothing.
TEST(OnlineActorTest, ReingestOfKnownBatchAllocatesNothing) {
  OnlineActorOptions options;
  options.dim = 16;
  options.samples_per_edge_per_batch = 2.0;
  options.num_shards = 4;
  options.num_threads = 1;
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok());
  const std::vector<TokenizedRecord> batch = MakeBatch(300);

  Status status;
  const long first = AllocationsOfIngest(*model, batch, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(first, 0);  // the counter sees the first ingest's growth
  const int32_t units = model->num_units();
  const long second = AllocationsOfIngest(*model, batch, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(model->num_units(), units);
  EXPECT_EQ(second, 0);
  const long third = AllocationsOfIngest(*model, batch, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(third, 0);
}

}  // namespace
}  // namespace actor
