// Open-loop serving harness: Poisson arrivals at a target QPS against the
// live composite snapshot store while an OnlineActor ingests and publishes
// (PublishShardedSnapshot, per-shard chunk-COW deltas) at a fixed cadence.
// Emits BENCH_serve.json so tail latency — the number production serving
// is actually judged on, unlike the closed-loop throughput of
// BENCH_query.json — is tracked across PRs.
//
// Open-loop semantics (docs/benchmarking.md): each worker draws
// exponential inter-arrival gaps (superposition splits the target QPS
// across workers), and every request's latency is measured from its
// *scheduled* arrival to completion. A slow server does not slow the
// arrival schedule down, so queueing delay lands in the tail instead of
// being silently absorbed — the coordinated-omission mistake closed-loop
// harnesses make.
//
// Two sections:
//   "latency"  p50/p95/p99/p999 at the fixed --qps for request-batch sizes
//              B in {1, 8, 32}. B == 1 serves each request through the
//              sequential QueryBy*() calls (one snapshot acquire per
//              request); B > 1 drains up to B due requests per cycle
//              through ShardedQueryEngine::QueryBatch (one acquire per
//              batch, blocked scoring kernel). Identical results bit for
//              bit — batching is purely a latency/throughput lever.
//   "max_qps"  highest target QPS whose p99 still meets --slo_p99_ms,
//              found by ramping the offered load by --ramp per level.
//
// The request mix rotates location / hour / keyword / vector queries
// (--mix, default "lhkv"). Keyword requests are issued as vector queries
// on a word unit's embedding row: streaming snapshots resolve word ids,
// not strings (ShardedQueryEngine::QueryByKeyword), and that is exactly
// the scoring work QueryByKeyword does after resolution.
//
// --smoke runs a seconds-scale configuration, self-checks the recorded
// stats (finite, monotone percentiles, nonzero service counts), and is
// wired into CI so the harness itself cannot rot; thresholds are only
// applied by scripts/bench_compare.py against the committed baseline.
//
// Usage: serve_load [--records=12000] [--batches=12] [--dim=32] [--k=10]
//                   [--threads=2] [--qps=2000] [--duration_s=1.5]
//                   [--ingest_period_ms=500] [--slo_p99_ms=20]
//                   [--ramp=1.6] [--max_levels=8] [--mix=lhkv] [--smoke]
//                   [--out=BENCH_serve.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/online_actor.h"
#include "data/corpus.h"
#include "data/synthetic.h"
#include "serve/query_engine.h"
#include "shard/sharded_query_engine.h"
#include "shard/sharded_snapshot.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {
namespace {

struct LoadConfig {
  int k = 10;
  int threads = 2;
  double duration_s = 1.5;
  double ingest_period_ms = 500.0;
  std::string mix = "lhkv";
  uint64_t seed = 4242;
};

struct WindowStats {
  int batch = 1;
  double target_qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double achieved_qps = 0.0;
  int64_t served = 0;
  int64_t failures = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(pos));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Pre-resolved request material shared by every worker: probe points for
/// location queries and unit ids whose embedding rows seed keyword/vector
/// queries. Ids are stable across publishes (the online unit space only
/// grows), so rows fetched from any later-acquired snapshot stay in range.
struct RequestPool {
  std::vector<GeoPoint> probes;
  std::vector<VertexId> word_units;
  int32_t num_units = 0;
};

/// Center row of global unit `v` in a composite snapshot.
const float* CenterRow(const ShardedModelSnapshot& snap, VertexId v) {
  const ShardMapSnapshot& map = snap.map();
  return snap.shard(map.owner[static_cast<std::size_t>(v)])
      ->center()
      .row(map.local[static_cast<std::size_t>(v)]);
}

/// Appends worker `worker`'s request number `seq` to `out`, rotating
/// through the configured kind mix against the rows of the engine's own
/// snapshot (so every pointer handed to QueryBatch stays alive for the
/// service call).
void MakeRequest(const ShardedQueryEngine& engine, const RequestPool& pool,
                 const std::string& mix, int worker, uint64_t seq, int k,
                 std::vector<BatchQuery>* out) {
  const ShardedModelSnapshot& snap = engine.snapshot();
  const uint64_t key = seq + static_cast<uint64_t>(worker) * 7919u;
  switch (mix[key % mix.size()]) {
    case 'l':
      out->push_back(BatchQuery::Location(
          pool.probes[key % pool.probes.size()], VertexType::kWord, k));
      break;
    case 'h':
      out->push_back(BatchQuery::Hour(static_cast<double>(key % 24),
                                      VertexType::kLocation, k));
      break;
    case 'k': {
      const VertexId w = pool.word_units[key % pool.word_units.size()];
      out->push_back(
          BatchQuery::Vector(CenterRow(snap, w), VertexType::kLocation, k, w));
      break;
    }
    default: {
      const VertexId q = static_cast<VertexId>(
          (key * 31u) % static_cast<uint64_t>(pool.num_units));
      out->push_back(
          BatchQuery::Vector(CenterRow(snap, q), VertexType::kWord, k, q));
      break;
    }
  }
}

/// Serves one due-request batch: B == 1 goes through the sequential entry
/// points (the unbatched baseline), B > 1 through QueryBatch. Returns the
/// number of failed requests.
int64_t Serve(const ShardedQueryEngine& engine,
              const std::vector<BatchQuery>& batch, bool use_batched) {
  int64_t failures = 0;
  if (use_batched) {
    const auto results = engine.QueryBatch(batch);
    for (const auto& r : results) {
      if (!r.ok()) ++failures;
    }
    return failures;
  }
  for (const BatchQuery& q : batch) {
    bool ok = false;
    switch (q.kind) {
      case BatchQuery::Kind::kLocation:
        ok = engine.QueryByLocation(q.location, q.result_type, q.k).ok();
        break;
      case BatchQuery::Kind::kHour:
        ok = engine.QueryByHour(q.hour, q.result_type, q.k).ok();
        break;
      case BatchQuery::Kind::kKeyword:
        ok = engine.QueryByKeyword(q.keyword, q.result_type, q.k).ok();
        break;
      case BatchQuery::Kind::kVector:
        ok = engine.QueryByVector(q.vector, q.result_type, q.k, q.exclude)
                 .ok();
        break;
    }
    if (!ok) ++failures;
  }
  return failures;
}

struct WorkerResult {
  std::vector<double> latencies_ms;
  int64_t failures = 0;
};

/// One open-loop worker: a thinned Poisson process at `rate_qps`. Sleeps
/// until the next scheduled arrival, then drains every due request (up to
/// `batch`) against one freshly acquired snapshot. When the server falls
/// behind, arrivals keep accruing on schedule and their queueing delay is
/// charged to their latency — no coordinated omission.
void RunWorker(OnlineActor* model, const RequestPool& pool,
               const LoadConfig& cfg, double rate_qps, int batch, int worker,
               WorkerResult* out) {
  Rng rng(cfg.seed + static_cast<uint64_t>(worker) * 0x9e37u);
  out->latencies_ms.reserve(
      static_cast<std::size_t>(rate_qps * cfg.duration_s * 1.2) + 16);
  std::vector<double> due;
  std::vector<BatchQuery> request;
  uint64_t seq = 0;
  Stopwatch clock;
  double next_arrival = rng.Exponential() / rate_qps;
  while (next_arrival < cfg.duration_s) {
    double now = clock.ElapsedSeconds();
    while (now < next_arrival) {
      const double wait_s = next_arrival - now;
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<int64_t>(static_cast<int64_t>(wait_s * 1e6), 200)));
      now = clock.ElapsedSeconds();
    }
    due.clear();
    request.clear();
    auto snap = model->CurrentShardedSnapshot();
    if (snap == nullptr) {
      ++out->failures;
      next_arrival += rng.Exponential() / rate_qps;
      continue;
    }
    ShardedQueryEngine engine(std::move(snap));
    while (due.size() < static_cast<std::size_t>(batch) &&
           next_arrival <= now && next_arrival < cfg.duration_s) {
      due.push_back(next_arrival);
      MakeRequest(engine, pool, cfg.mix, worker, seq++, cfg.k, &request);
      next_arrival += rng.Exponential() / rate_qps;
    }
    out->failures += Serve(engine, request, batch > 1);
    const double done = clock.ElapsedSeconds();
    for (double arrival : due) {
      out->latencies_ms.push_back((done - arrival) * 1e3);
    }
  }
}

/// One measurement window: `threads` open-loop workers splitting
/// `target_qps` plus the live writer re-ingesting the tail batches and
/// publishing every --ingest_period_ms.
WindowStats MeasureWindow(OnlineActor* model,
                          const std::vector<std::vector<TokenizedRecord>>& tail,
                          const RequestPool& pool, const LoadConfig& cfg,
                          double target_qps, int batch) {
  WindowStats stats;
  stats.batch = batch;
  stats.target_qps = target_qps;

  std::vector<WorkerResult> results(static_cast<std::size_t>(cfg.threads));
  std::atomic<int> active{cfg.threads};
  ThreadPool pool_threads(cfg.threads + 1);
  // Live writer: fixed publish cadence until every worker's schedule is
  // drained. Re-ingesting the same tail batches keeps the model hot (decay
  // keeps weights bounded) without needing an unbounded stream.
  pool_threads.Submit([&] {
    Stopwatch clock;
    std::size_t b = 0;
    double next_tick = 0.0;
    while (active.load(std::memory_order_acquire) > 0) {
      if (clock.ElapsedSeconds() < next_tick) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      next_tick = clock.ElapsedSeconds() + cfg.ingest_period_ms * 1e-3;
      if (!model->Ingest(tail[b % tail.size()]).ok()) break;
      model->PublishShardedSnapshot();
      ++b;
    }
  });
  const double per_worker_qps = target_qps / cfg.threads;
  for (int t = 0; t < cfg.threads; ++t) {
    pool_threads.Submit([&, t] {
      RunWorker(model, pool, cfg, per_worker_qps, batch, t,
                &results[static_cast<std::size_t>(t)]);
      active.fetch_sub(1, std::memory_order_release);
    });
  }
  pool_threads.Wait();

  std::vector<double> all;
  for (const auto& r : results) {
    all.insert(all.end(), r.latencies_ms.begin(), r.latencies_ms.end());
    stats.failures += r.failures;
  }
  std::sort(all.begin(), all.end());
  stats.served = static_cast<int64_t>(all.size());
  stats.p50_ms = Percentile(all, 0.50);
  stats.p95_ms = Percentile(all, 0.95);
  stats.p99_ms = Percentile(all, 0.99);
  stats.p999_ms = Percentile(all, 0.999);
  stats.achieved_qps = static_cast<double>(stats.served) / cfg.duration_s;
  return stats;
}

struct MaxQpsRow {
  int batch = 1;
  double max_sustainable_qps = 0.0;
};

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const int records =
      static_cast<int>(flags.GetInt("records", smoke ? 2500 : 12000));
  const int batches =
      static_cast<int>(flags.GetInt("batches", smoke ? 6 : 12));
  const int32_t dim = static_cast<int32_t>(flags.GetInt("dim", 32));
  LoadConfig cfg;
  cfg.k = static_cast<int>(flags.GetInt("k", 10));
  cfg.threads = static_cast<int>(flags.GetInt("threads", 2));
  cfg.duration_s = flags.GetDouble("duration_s", smoke ? 0.4 : 1.5);
  cfg.ingest_period_ms = flags.GetDouble("ingest_period_ms", 500.0);
  cfg.mix = flags.GetString("mix", "lhkv");
  const double base_qps = flags.GetDouble("qps", smoke ? 300.0 : 2000.0);
  const double slo_p99_ms = flags.GetDouble("slo_p99_ms", 20.0);
  const double ramp = flags.GetDouble("ramp", 1.6);
  const int max_levels =
      static_cast<int>(flags.GetInt("max_levels", smoke ? 2 : 8));
  const std::string out_path = flags.GetString("out", "BENCH_serve.json");
  const std::vector<int> batch_sizes =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 8, 32};
  if (records < batches || batches < 4 || dim < 1 || cfg.k < 1 ||
      cfg.threads < 1 || cfg.duration_s <= 0.0 || base_qps < 1.0 ||
      ramp <= 1.0 || cfg.mix.empty()) {
    std::fprintf(stderr,
                 "invalid flags (need records >= batches >= 4, dim >= 1, "
                 "k >= 1, threads >= 1, duration_s > 0, qps >= 1, ramp > 1, "
                 "non-empty mix)\n");
    return 1;
  }

  std::printf("building synthetic stream...\n");
  SyntheticConfig config;
  config.seed = 300;
  config.num_records = records;
  config.num_users = 400;
  config.num_topics = 12;
  config.num_venues = 80;
  config.num_communities = 8;
  auto ds = GenerateSynthetic(config, "serve-load");
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  CorpusBuildOptions build;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<TokenizedRecord>> stream(
      static_cast<std::size_t>(batches));
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    stream[i * static_cast<std::size_t>(batches) / corpus->size()].push_back(
        corpus->record(i));
  }

  OnlineActorOptions options;
  options.dim = dim;
  options.decay_per_batch = 0.7;
  options.samples_per_edge_per_batch = 3.0;
  auto model = OnlineActor::Create(options);
  if (!model.ok()) {
    std::fprintf(stderr, "create: %s\n", model.status().ToString().c_str());
    return 1;
  }
  const std::size_t head = stream.size() / 2;
  for (std::size_t i = 0; i < head; ++i) {
    if (auto st = model->Ingest(stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  auto first = model->PublishShardedSnapshot();
  if (first == nullptr) {
    std::fprintf(stderr, "no snapshot after warm-up ingest\n");
    return 1;
  }
  std::vector<std::vector<TokenizedRecord>> tail(stream.begin() + head,
                                                 stream.end());

  RequestPool pool;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (!stream[i].empty()) pool.probes.push_back(stream[i].front().location);
  }
  for (VertexId v = 0; v < first->num_units(); ++v) {
    if (model->unit_type(v) == VertexType::kWord) pool.word_units.push_back(v);
  }
  pool.num_units = first->num_units();
  if (pool.probes.empty() || pool.word_units.empty() || pool.num_units <= 0) {
    std::fprintf(stderr, "warm-up snapshot has no probes/words/units\n");
    return 1;
  }

  // Latency rows: fixed offered load, one row per request-batch size.
  std::vector<WindowStats> latency_rows;
  for (int batch : batch_sizes) {
    WindowStats stats =
        MeasureWindow(&*model, tail, pool, cfg, base_qps, batch);
    std::printf(
        "latency  B=%-3d qps=%-7.0f p50=%.3fms p95=%.3fms p99=%.3fms "
        "p999=%.3fms served=%lld failures=%lld\n",
        stats.batch, stats.target_qps, stats.p50_ms, stats.p95_ms,
        stats.p99_ms, stats.p999_ms, static_cast<long long>(stats.served),
        static_cast<long long>(stats.failures));
    latency_rows.push_back(std::move(stats));
  }

  // Max sustainable QPS: ramp the offered load until p99 violates the SLO.
  std::vector<MaxQpsRow> max_rows;
  for (int batch : batch_sizes) {
    MaxQpsRow row;
    row.batch = batch;
    double qps = base_qps;
    for (int level = 0; level < max_levels; ++level) {
      WindowStats stats = MeasureWindow(&*model, tail, pool, cfg, qps, batch);
      const bool pass = stats.served > 0 && stats.failures == 0 &&
                        stats.p99_ms <= slo_p99_ms;
      std::printf("ramp     B=%-3d qps=%-7.0f p99=%.3fms -> %s\n", batch, qps,
                  stats.p99_ms, pass ? "pass" : "violates SLO");
      if (!pass) break;
      row.max_sustainable_qps = qps;
      qps *= ramp;
    }
    max_rows.push_back(row);
  }

  // Smoke self-check: the emitted stats must be structurally sane — every
  // window served requests, percentiles finite and monotone. No
  // performance thresholds; those live in bench_compare.py against the
  // committed baseline.
  if (smoke) {
    for (const WindowStats& s : latency_rows) {
      const bool monotone = s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms &&
                            s.p99_ms <= s.p999_ms;
      if (s.served <= 0 || s.failures != 0 || !monotone ||
          !std::isfinite(s.p999_ms) || s.p50_ms < 0.0) {
        std::fprintf(stderr, "smoke check failed: batch=%d served=%lld "
                             "failures=%lld p50=%.3f p999=%.3f\n",
                     s.batch, static_cast<long long>(s.served),
                     static_cast<long long>(s.failures), s.p50_ms, s.p999_ms);
        return 1;
      }
    }
  }

  double p99_b1 = 0.0, p99_bmax = 0.0;
  for (const WindowStats& s : latency_rows) {
    if (s.batch == 1) p99_b1 = s.p99_ms;
    if (s.batch == batch_sizes.back()) p99_bmax = s.p99_ms;
  }
  const double p99_ratio = p99_b1 > 0.0 ? p99_bmax / p99_b1 : 0.0;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"serve_load\",\n";
  out << "  \"records\": " << records << ",\n";
  out << "  \"batches\": " << batches << ",\n";
  out << "  \"dim\": " << dim << ",\n";
  out << "  \"k\": " << cfg.k << ",\n";
  out << "  \"threads\": " << cfg.threads << ",\n";
  out << "  \"ingest_period_ms\": " << cfg.ingest_period_ms << ",\n";
  out << "  \"slo_p99_ms\": " << slo_p99_ms << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"simd_available\": " << (Avx2Available() ? "true" : "false")
      << ",\n";
  char buf[224];
  out << "  \"latency\": [\n";
  for (std::size_t i = 0; i < latency_rows.size(); ++i) {
    const WindowStats& s = latency_rows[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"concurrent_ingest\", \"batch\": %d, "
                  "\"target_qps\": %.0f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
                  "\"p99_ms\": %.3f, \"p999_ms\": %.3f, "
                  "\"achieved_qps\": %.1f}%s\n",
                  s.batch, s.target_qps, s.p50_ms, s.p95_ms, s.p99_ms,
                  s.p999_ms, s.achieved_qps,
                  i + 1 < latency_rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  out << "  \"max_qps\": [\n";
  for (std::size_t i = 0; i < max_rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"concurrent_ingest\", \"batch\": %d, "
                  "\"max_sustainable_qps\": %.0f}%s\n",
                  max_rows[i].batch, max_rows[i].max_sustainable_qps,
                  i + 1 < max_rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"batched_p99_latency_ratio\": %.3f\n", p99_ratio);
  out << buf;
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (p99 B=1 %.3fms, batched p99 ratio %.2f)%s\n",
              out_path.c_str(), p99_b1, p99_ratio, smoke ? " [smoke ok]" : "");
  return 0;
}

}  // namespace
}  // namespace actor

int main(int argc, char** argv) { return actor::Main(argc, argv); }
