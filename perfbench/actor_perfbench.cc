// End-to-end benchmark of the ACTOR library: the offline Algorithm 1 job,
// the streaming OnlineActor and cross-modal neighbor serving, measured from
// outside by timing calls into each module's public functions.
//
//   actor_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                   [--state_dir=<dir>] [--spans_out=<file>]
//                   [--detail_out=<file>]
//
// Workloads (perfbench/README.md has the full rationale):
//   ingest_catchup  closed-loop replay of a UTGeo-like stream in 1,000-record
//                   batches on nproc-1 ingest threads, one open-loop query
//                   worker at a low fixed rate against a ~1.1k-word catalogue.
//   serve_mixed     nproc-1 open-loop query workers against a catalogue ten
//                   times larger, one ingest thread publishing small batches
//                   on a fixed period.
//   offline_train   hotspot detection, graph build and TrainActor at
//                   nproc threads on a fixed corpus, held-out MRR, then the
//                   published model answers neighbor queries.
//
// Every run prints every metric as a table row and ends with one JSON line:
// the end-to-end metrics with --trace=0, the per-layer metrics (derived from
// spans recorded around every library call) with --trace=1. Correctness is
// checked in the same run; each mismatch counts as a failed operation.
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/actor.h"
#include "core/online_actor.h"
#include "data/corpus.h"
#include "data/synthetic.h"
#include "eval/cross_modal_model.h"
#include "eval/mrr.h"
#include "eval/prediction.h"
#include "graph/graph_builder.h"
#include "hotspot/hotspot_detector.h"
#include "load.h"
#include "stats.h"
#include "trace.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace perfbench {
namespace {

using actor::OnlineActor;
using actor::TokenizedCorpus;
using actor::TokenizedRecord;

/// The 1-in-11 floor: the MRR of a model that scores all 11 candidates
/// alike, since RankOfTruth ranks the truth last on ties. A trained model
/// must stay above it.
constexpr double kFloorMrr11 = 1.0 / 11.0;
constexpr int kNoise = 10;
// Set-up repeats at least this often, and until this much time is spent,
// so that setup_s is a median even when one set-up is short.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 9;
constexpr double kSetupBudgetS = 3.0;

bool SetUpAgain(const Samples& setups) {
  const auto reps = static_cast<int>(setups.size());
  return reps < kMinSetupReps ||
         (reps < kMaxSetupReps && setups.Sum() < kSetupBudgetS);
}
constexpr int32_t kDim = 32;

struct Run {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string state_dir;
  std::string spans_out;
  int nproc = 1;

  Report report;
  int64_t attempted = 0;
  int64_t failed = 0;
  void Fail(const char* what, int64_t n = 1) {
    if (n <= 0) return;
    failed += n;
    std::fprintf(stderr, "check failed: %s (x%lld)\n", what,
                 static_cast<long long>(n));
  }
};

template <class T>
T CheckOk(actor::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, r.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(*r);
}
void CheckOk(const actor::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(3);
  }
}

// ---------------------------------------------------------------------------
// Data

struct Corpus {
  TokenizedCorpus full;
  double generate_s = 0.0;
  double tokenize_s = 0.0;
};

Corpus MakeCorpus(const actor::SyntheticConfig& config) {
  Corpus out;
  double t0 = NowS();
  actor::SyntheticDataset ds;
  {
    Span span("data.generate");
    ds = CheckOk(actor::GenerateSynthetic(config, "perfbench"), "generate");
  }
  double t1 = NowS();
  {
    Span span("data.tokenize");
    out.full = CheckOk(TokenizedCorpus::Build(ds.corpus), "tokenize");
  }
  out.generate_s = t1 - t0;
  out.tokenize_s = NowS() - t1;
  return out;
}

/// A record stream: warm-up batches ingested during set-up, the measured
/// batches in stream order, records held out of the stream for scoring, and
/// one probe location per measured batch for location queries.
struct Stream {
  std::vector<std::vector<TokenizedRecord>> warmup;
  std::vector<std::vector<TokenizedRecord>> batches;
  TokenizedCorpus heldout;
  std::vector<actor::GeoPoint> probes;
};

/// The stream starts at a record picked by `seed` and wraps around the
/// corpus, so each seed replays a different stretch of the same city.
Stream SplitStream(const TokenizedCorpus& full, std::size_t warmup_records,
                   std::size_t warmup_batch_records, std::size_t settle_batches,
                   std::size_t batch_records, std::size_t heldout_records,
                   uint64_t seed) {
  Stream out;
  const std::size_t n = full.size();
  const std::size_t offset = actor::Rng(seed).Uniform(n);
  const auto split =
      CheckOk(actor::RandomSplit(n, 0, heldout_records, seed), "split");
  out.heldout = actor::Subset(full, split.test);
  std::vector<bool> held(n, false);
  for (std::size_t i : split.test) held[i] = true;
  std::vector<TokenizedRecord> batch;
  std::size_t seen = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (offset + k) % n;
    if (held[i]) continue;
    batch.push_back(full.record(i));
    const bool warm = seen++ < warmup_records;
    if (batch.size() == (warm ? warmup_batch_records : batch_records) ||
        seen == warmup_records) {
      if (warm) {
        out.warmup.push_back(std::move(batch));
      } else {
        out.probes.push_back(batch.front().location);
        out.batches.push_back(std::move(batch));
      }
      batch.clear();
    }
  }
  // Warm-up ends with a few batches of the measured size, so the edges of
  // large warm-up batches have decayed before the measured phase starts.
  for (std::size_t b = 0; b < settle_batches && !out.batches.empty(); ++b) {
    out.warmup.push_back(std::move(out.batches.front()));
    out.batches.erase(out.batches.begin());
    out.probes.erase(out.probes.begin());
  }
  if (out.batches.empty()) {
    std::fprintf(stderr, "stream too short for its warm-up\n");
    std::exit(3);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Quality

/// Prequential score of one batch before it is ingested: for a fixed sample
/// of its records, the rank of the record's true spatial unit against the
/// units of `kNoise` other records of the batch.
void PrequentialRanks(const OnlineActor& model,
                      const std::vector<TokenizedRecord>& batch,
                      std::size_t sample, uint64_t seed, int64_t batch_id,
                      std::vector<int>* ranks) {
  Span span("eval.prequential", batch_id);
  actor::Rng rng(seed);
  const std::size_t stride = std::max<std::size_t>(1, batch.size() / sample);
  for (std::size_t q = 0; q < batch.size(); q += stride) {
    const TokenizedRecord& rec = batch[q];
    const VertexId truth = model.SpatialUnit(rec.location);
    if (truth == actor::kInvalidVertex) continue;
    double truth_score;
    {
      Span score("eval.score_record", batch_id);
      truth_score = model.ScoreRecordAgainstUnit(rec, truth);
    }
    std::vector<double> noise;
    for (int n = 0; n < kNoise; ++n) {
      const auto& other = batch[rng.Uniform(batch.size())];
      Span score("eval.score_record", batch_id);
      noise.push_back(
          model.ScoreRecordAgainstUnit(rec, model.SpatialUnit(other.location)));
    }
    ranks->push_back(actor::RankOfTruth(truth_score, noise));
  }
}

/// Three-task held-out MRR (paper §6.2.1) of a published flat snapshot.
actor::MrrScores EvaluateSnapshot(
    std::shared_ptr<const actor::ModelSnapshot> snap,
    const TokenizedCorpus& test, std::size_t max_queries, uint64_t seed) {
  Span span("eval.mrr");
  actor::EmbeddingCrossModalModel model("perfbench", std::move(snap));
  actor::EvalOptions options;
  options.max_queries = max_queries;
  options.seed = seed;
  return CheckOk(actor::EvaluateCrossModal(model, test, options), "eval");
}

/// The prequential protocol of PrequentialRanks applied to a flat snapshot:
/// the same query vector ScoreRecordAgainstUnit builds (time unit, location
/// unit unless it is the candidate, mean word vector) against the record's
/// true spatial unit and `kNoise` other records' units.
double SnapshotRecordMrr(const actor::ModelSnapshot& snap,
                         const TokenizedCorpus& test, std::size_t sample,
                         uint64_t seed) {
  const std::size_t dim = static_cast<std::size_t>(snap.dim());
  const actor::ChunkedMatrix& center = snap.center();
  auto score = [&](const TokenizedRecord& rec, VertexId cand) -> double {
    if (cand == actor::kInvalidVertex) return -1e9;
    std::vector<float> query(dim, 0.0f), text(dim, 0.0f);
    int parts = 0, known = 0;
    const VertexId t = snap.TemporalVertexAt(rec.timestamp);
    if (t != actor::kInvalidVertex && t != cand) {
      actor::Add(center.row(t), query.data(), dim);
      ++parts;
    }
    const VertexId l = snap.SpatialVertex(rec.location);
    if (l != actor::kInvalidVertex && l != cand) {
      actor::Add(center.row(l), query.data(), dim);
      ++parts;
    }
    for (int32_t w : rec.word_ids) {
      const VertexId v = snap.WordVertex(w);
      if (v == actor::kInvalidVertex || v == cand) continue;
      actor::Add(center.row(v), text.data(), dim);
      ++known;
    }
    if (known > 0) {
      actor::Scale(1.0f / static_cast<float>(known), text.data(), dim);
      actor::Add(text.data(), query.data(), dim);
      ++parts;
    }
    if (parts == 0) return -1e9;
    return actor::Cosine(query.data(), center.row(cand), dim);
  };
  actor::Rng rng(seed);
  std::vector<int> ranks;
  const std::size_t n = std::min(sample, test.size());
  for (std::size_t q = 0; q < n; ++q) {
    const TokenizedRecord& rec = test.record(q);
    const VertexId truth = snap.SpatialVertex(rec.location);
    if (truth == actor::kInvalidVertex) continue;
    std::vector<double> noise;
    for (int k = 0; k < kNoise; ++k) {
      const auto& other = test.record(rng.Uniform(test.size()));
      noise.push_back(score(rec, snap.SpatialVertex(other.location)));
    }
    ranks.push_back(actor::RankOfTruth(score(rec, truth), noise));
  }
  return actor::MeanReciprocalRank(ranks);
}

/// Deterministic quality values must read bit-identically on every run of
/// the same build and seed. The first run records them under `state_dir`;
/// later runs compare. Returns the number of values that differ.
int CheckRepeatable(const Run& run, const std::vector<double>& values) {
  if (run.state_dir.empty()) return 0;
  mkdir(run.state_dir.c_str(), 0755);
  const std::string path = run.state_dir + "/" + run.workload + "-" +
                           std::to_string(run.seed) + ".quality";
  std::vector<double> recorded;
  {
    std::ifstream in(path);
    std::string hex;
    while (in >> hex) recorded.push_back(std::strtod(hex.c_str(), nullptr));
  }
  if (recorded.empty()) {
    std::ofstream out(path);
    char buf[64];
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), "%a\n", v);
      out << buf;
    }
    return 0;
  }
  int differ = recorded.size() == values.size() ? 0 : 1;
  for (std::size_t i = 0; i < std::min(recorded.size(), values.size()); ++i) {
    if (std::memcmp(&recorded[i], &values[i], sizeof(double)) != 0) ++differ;
  }
  return differ;
}

// ---------------------------------------------------------------------------
// Metrics

// The end-to-end metrics every run reports (BENCHMARK.json "end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ingest_records_per_s", "1/s"},
    {"freshness_p50_ms", "ms"},
    {"freshness_p90_ms", "ms"},
    {"query_p50_ms", "ms"},
    {"stream_mrr", "mrr"},
    {"train_s", "s"},
    {"offline_mrr_text", "mrr"},
    {"offline_mrr_location", "mrr"},
    {"offline_mrr_time", "mrr"},
};

// The per-layer metrics a traced run reports (BENCHMARK.json "per_layer",
// less trace.overhead_ratio, which run.py adds). A layer a workload does not
// exercise reads 0 with 0 samples.
constexpr MetricDef kPerLayer[] = {
    // End to end, but on a shared machine set by host scheduling stalls and
    // allocator fragmentation more than by the program, so they carry no
    // bound (perfbench/README.md).
    {"query_p99_ms", "ms"},
    {"max_qps_slo", "1/s"},
    {"peak_rss_mb", "MB"},
    {"data.generate_s", "s"},
    {"data.tokenize_s", "s"},
    {"data.self_s", "s"},
    {"hotspot.detect_s", "s"},
    {"hotspot.spatial_units", "count"},
    {"hotspot.temporal_units", "count"},
    {"hotspot.self_s", "s"},
    {"graph.build_s", "s"},
    {"graph.edges", "count"},
    {"graph.self_s", "s"},
    {"core.train_actor_s", "s"},
    {"core.units", "count"},
    {"core.new_units_per_batch", "count"},
    {"core.ingest_ms_p50", "ms"},
    {"core.ingest_ms_p90", "ms"},
    {"core.live_edges", "count"},
    {"core.sgd_steps_per_s", "1/s"},
    {"core.ingest_busy_share", "ratio"},
    {"core.backlog_batches_max", "count"},
    {"core.self_s", "s"},
    {"embedding.line_pretrain_s", "s"},
    {"embedding.sgd_train_s", "s"},
    {"embedding.sgd_steps_per_s", "1/s"},
    {"shard.units_max_over_mean", "ratio"},
    {"shard.remote_tile_rows", "count"},
    {"util.cpu_cores_busy", "cores"},
    {"util.ctx_switches_per_batch", "count"},
    {"serve.publish_ms_p50", "ms"},
    {"serve.publish_ms_p90", "ms"},
    {"serve.chunks_copied_per_publish", "count"},
    {"serve.chunk_share_ratio", "ratio"},
    {"serve.acquire_us_p50", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.service_ms_p50", "ms"},
    {"serve.service_ms_p99", "ms"},
    {"serve.location.service_ms_p50", "ms"},
    {"serve.hour.service_ms_p50", "ms"},
    {"serve.keyword.service_ms_p50", "ms"},
    {"serve.vector.service_ms_p50", "ms"},
    {"serve.rows_scanned_per_query", "count"},
    {"serve.scan_gb_per_s", "GB/s"},
    {"serve.staleness_ms_p50", "ms"},
    {"serve.staleness_ms_p99", "ms"},
    {"serve.self_s", "s"},
    {"eval.prequential_ms_per_batch", "ms"},
    {"eval.mrr_s", "s"},
    {"eval.self_s", "s"},
    {"loadgen.offered_qps", "1/s"},
    {"loadgen.achieved_qps", "1/s"},
    {"loadgen.lateness_ms_p99", "ms"},
    {"bench.self_s", "s"},
    {"trace.spans", "count"},
    {"failed_ratio", "ratio"},
};

/// Per-layer metrics read from the spans of the measured phase (and, for
/// data generation, of set-up).
void ReportSpans(Run& run, int64_t measure_from_ns) {
  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  const SpanSummary setup = Summarize(spans, 0);
  const SpanSummary measured = Summarize(spans, measure_from_ns);
  Report& r = run.report;
  auto samples = [](const SpanSummary& sum, const char* name) {
    Samples out;
    const auto it = sum.durations_s.find(name);
    if (it != sum.durations_s.end()) {
      for (double d : it->second) out.Add(d);
    }
    return out;
  };
  auto quantile = [&](const char* metric, const SpanSummary& sum,
                      const char* span, double q, double scale) {
    const Samples s = samples(sum, span);
    r.Layer(metric, s.Quantile(q) * scale, "", static_cast<int64_t>(s.size()));
  };
  quantile("data.generate_s", setup, "data.generate", 0.5, 1.0);
  quantile("data.tokenize_s", setup, "data.tokenize", 0.5, 1.0);
  quantile("hotspot.detect_s", measured, "hotspot.detect", 0.5, 1.0);
  quantile("graph.build_s", measured, "graph.build", 0.5, 1.0);
  quantile("core.train_actor_s", measured, "core.train_actor", 0.5, 1.0);
  quantile("core.ingest_ms_p50", measured, "core.ingest", 0.5, 1e3);
  quantile("core.ingest_ms_p90", measured, "core.ingest", 0.9, 1e3);
  quantile("serve.publish_ms_p50", measured, "serve.publish", 0.5, 1e3);
  quantile("serve.publish_ms_p90", measured, "serve.publish", 0.9, 1e3);
  quantile("serve.acquire_us_p50", measured, "serve.acquire", 0.5, 1e6);
  quantile("serve.service_ms_p50", measured, "serve.query_batch", 0.5, 1e3);
  quantile("serve.service_ms_p99", measured, "serve.query_batch", 0.99, 1e3);
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string metric =
        std::string("serve.") + kKindNames[k] + ".service_ms_p50";
    const std::string span = std::string("serve.query_") + kKindNames[k];
    quantile(metric.c_str(), measured, span.c_str(), 0.5, 1e3);
  }
  const Samples prequential = samples(measured, "eval.prequential");
  r.Layer("eval.prequential_ms_per_batch", prequential.Mean() * 1e3, "",
          static_cast<int64_t>(prequential.size()));
  const Samples mrr = samples(measured, "eval.mrr");
  r.Layer("eval.mrr_s", mrr.Sum(), "", static_cast<int64_t>(mrr.size()));
  for (const char* layer : {"data", "hotspot", "graph", "core", "serve",
                            "eval", "bench"}) {
    const SpanSummary& sum = std::string(layer) == "data" ? setup : measured;
    const auto it = sum.layer_self_s.find(layer);
    r.Layer(std::string(layer) + ".self_s",
            it == sum.layer_self_s.end() ? 0.0 : it->second, "", 1);
  }
  r.Layer("trace.spans", static_cast<double>(spans.size()), "", 1);

  if (run.spans_out.empty()) return;
  std::ofstream out(run.spans_out);
  out << "id\tparent\tname\tstart_ns\tend_ns\trequest\tthread\n";
  for (const SpanRecord& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
        << '\t' << s.end_ns << '\t' << s.request << '\t' << s.thread << '\n';
  }
}

// ---------------------------------------------------------------------------
// Serving

/// Fixed-rate window and max_qps_slo search of one measured phase.
struct ServeOutcome {
  WindowResult fixed;
  SearchResult search;
};

struct ServePlan {
  int workers = 1;
  double fixed_qps = 300.0;
  double fixed_s = 5.0;
  double search_s = 5.0;  // the search stops bisecting after this
  double search_start_qps = 1000.0;
};

// max_qps_slo search: the bracket step, a ceiling no run can reach, and a
// window of at least 1.5 s and 3,000 requests, so its slice p99s have ten
// samples beyond them.
constexpr double kSearchStep = 0.08;
constexpr double kSearchCeilingQps = 5e6;
constexpr double kSearchWindowS = 1.5;
constexpr double kSearchWindowRequests = 3000;

template <class Target>
ServeOutcome Serve(const Run& run, const Target& target,
                   const RequestPool& pool, const ServePlan& plan,
                   const PublishLog& log) {
  LoadSpec load;
  load.workers = plan.workers;
  load.rate_qps = plan.fixed_qps;
  load.duration_s = plan.fixed_s;
  load.seed = run.seed;
  ServeOutcome out;
  out.fixed = RunWindow(target, pool, load, log);
  out.search = SearchMaxQps(target, pool, load, log, Slo(),
                            plan.search_start_qps, kSearchCeilingQps,
                            kSearchStep, kSearchWindowS, kSearchWindowRequests,
                            plan.search_s);
  return out;
}

void ReportServe(Run& run, const ServeOutcome& out) {
  const WindowResult& w = out.fixed;
  run.attempted += w.served + w.verified + out.search.served;
  run.Fail("query error or sequential/batched mismatch", w.failed);
  run.Fail("query error or mismatch in the max_qps_slo search",
           out.search.failed);
  if (out.search.max_qps <= 0.0) {
    run.Fail("max_qps_slo search found no failing rate below its ceiling");
  }
  Report& r = run.report;
  const auto n = static_cast<int64_t>(w.latency_ms.size());
  r.EndToEnd("query_p50_ms", w.latency_ms.Quantile(0.5), "ms", n);
  r.Layer("query_p99_ms", w.SliceP99(kSliceRequests), "ms", n);
  r.Layer("max_qps_slo", out.search.max_qps, "1/s", out.search.levels);
  r.Layer("serve.queue_wait_ms_p50", w.queue_wait_ms.Quantile(0.5), "ms", n);
  r.Layer("serve.queue_wait_ms_p99", w.queue_wait_ms.Quantile(0.99), "ms", n);
  const auto nb = static_cast<int64_t>(w.batch_sizes.size());
  r.Layer("serve.batch_size_mean", w.batch_sizes.Mean(), "count", nb);
  r.Layer("serve.rows_scanned_per_query",
          w.served ? static_cast<double>(w.rows_scanned) / w.served : 0.0,
          "count", w.served);
  r.Layer("serve.scan_gb_per_s",
          w.service_s > 0 ? w.bytes_scanned / w.service_s * 1e-9 : 0.0, "GB/s",
          nb);
  r.Layer("serve.staleness_ms_p50", w.staleness_ms.Quantile(0.5), "ms", nb);
  r.Layer("serve.staleness_ms_p99", w.staleness_ms.Quantile(0.99), "ms", nb);
  r.Layer("loadgen.offered_qps", w.offered_qps, "1/s", 1);
  r.Layer("loadgen.achieved_qps", w.achieved_qps(), "1/s", 1);
  r.Layer("loadgen.lateness_ms_p99", w.lateness_ms.Quantile(0.99), "ms",
          static_cast<int64_t>(w.lateness_ms.size()));
}

// ---------------------------------------------------------------------------
// Online workloads

/// The parameters of one online workload.
struct OnlineSpec {
  actor::SyntheticConfig data;
  std::size_t batch_records = 1000;
  std::size_t heldout_records = 2000;
  std::size_t warmup_records = 3000;        // ingested during set-up
  std::size_t warmup_batch_records = 1000;  // in batches of this size
  std::size_t settle_batches = 0;  // then this many measured-size batches
  int ingest_threads = 1;                   // pool size; 1 = sequential
  double period_s = 0.0;                    // 0 = closed loop
  // The quality window: measured batches [quality_from, quality_end) are
  // scored prequentially, and the model after them on the held-out records.
  // It starts once the hotspot layout of the stretch has settled.
  std::size_t quality_from = 20;
  std::size_t quality_end = 60;
  std::size_t prequential_sample = 100;
  std::size_t eval_queries = 1000;
  int query_workers = 1;
  double fixed_qps = 300.0;
  double fixed_share = 0.5;  // of --seconds; the rest searches max_qps_slo
  double search_start_qps = 1000.0;
};

// Measured batches per online run, at least: freshness p90 then has ten
// samples beyond it.
constexpr std::size_t kMinBatches = 100;

// OnlineActorOptions::samples_per_edge_per_batch at its default.
constexpr double kSamplesPerEdgePerBatch = 3.0;

/// Per-batch bookkeeping of an ingest loop. Written by the ingest thread
/// only; read after it is joined.
struct IngestLog {
  Samples ingest_s;        // Ingest() wall time
  Samples publish_s;       // PublishShardedSnapshot() wall time
  Samples freshness_ms;    // due or hand-over -> publish return
  Samples backlog;         // batches due but not yet handed over
  Samples sgd_steps;       // 2 * samples_per_edge * live edges
  Samples new_units;
  Samples chunks_copied;   // per publish
  Samples chunk_share;     // shared / total chunks per publish
  std::vector<int> ranks;  // prequential ranks over the quality batches
  actor::MrrScores quality;       // held-out MRR after the quality batches
  int64_t records = 0;
  int64_t batches = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Counts chunks of the new composite snapshot copied rather than shared
/// with the previous one.
void RecordChunkSharing(const actor::ShardedModelSnapshot* prev,
                        const actor::ShardedModelSnapshot& next,
                        IngestLog* log) {
  double total = 0.0, shared = 0.0;
  for (int s = 0; s < next.num_shards(); ++s) {
    const actor::ChunkedMatrix& now = next.shard(s)->center();
    total += static_cast<double>(now.num_chunks());
    if (prev != nullptr) {
      shared += static_cast<double>(
          now.SharedChunksWith(prev->shard(s)->center()));
    }
  }
  log->chunks_copied.Add(total - shared);
  log->chunk_share.Add(total > 0 ? shared / total : 0.0);
}

/// Ingest threads run at a lower priority than query workers, so that when
/// more threads are runnable than there are cores, ingest waits rather than
/// a query. Niceness is per thread on Linux.
void LowerPriority() {
  const auto tid = static_cast<id_t>(syscall(SYS_gettid));
  if (setpriority(PRIO_PROCESS, tid, 5) != 0) {
    std::perror("setpriority");
  }
}

/// One set-up of an online workload: data, the model, its warm-up ingest
/// and first publish.
struct OnlineSetup {
  Corpus corpus;
  Stream stream;
  std::unique_ptr<actor::ThreadPool> pool;
  std::unique_ptr<OnlineActor> model;
  double seconds = 0.0;
};

OnlineSetup SetUpOnline(const Run& run, const OnlineSpec& spec) {
  OnlineSetup s;
  const double t0 = NowS();
  Span span("bench.setup");
  s.corpus = MakeCorpus(spec.data);
  s.stream = SplitStream(s.corpus.full, spec.warmup_records,
                         spec.warmup_batch_records, spec.settle_batches,
                         spec.batch_records, spec.heldout_records,
                         run.seed + 11);
  actor::OnlineActorOptions options;
  options.dim = kDim;
  options.seed = run.seed;
  options.samples_per_edge_per_batch = kSamplesPerEdgePerBatch;
  options.num_shards = run.nproc;
  options.num_threads = spec.ingest_threads;
  if (spec.ingest_threads > 1) {
    // Pool threads inherit the niceness of the thread that starts them.
    std::thread([&] {
      LowerPriority();
      s.pool = std::make_unique<actor::ThreadPool>(spec.ingest_threads);
    }).join();
    options.pool = s.pool.get();
  }
  s.model = std::make_unique<OnlineActor>(
      CheckOk(OnlineActor::Create(options), "create"));
  for (const auto& batch : s.stream.warmup) {
    Span ingest("core.ingest");
    CheckOk(s.model->Ingest(batch), "warm-up ingest");
  }
  {
    Span publish("serve.publish");
    if (s.model->PublishShardedSnapshot() == nullptr) {
      std::fprintf(stderr, "no snapshot after warm-up\n");
      std::exit(3);
    }
  }
  s.seconds = NowS() - t0;
  return s;
}

/// One ingest step: prequential scoring of the batch (excluded from the
/// timings), hand-over, Ingest(), publish. `due` is the batch's scheduled
/// time in a periodic loop; a closed loop passes a negative value and is
/// timed from hand-over. The stream is replayed from its start when it runs
/// out.
void IngestStep(const Run& run, const OnlineSpec& spec, OnlineSetup& s,
                std::size_t step, double due, PublishLog* publish_log,
                IngestLog* log) {
  OnlineActor& model = *s.model;
  const auto& batch = s.stream.batches[step % s.stream.batches.size()];
  const bool quality = step >= spec.quality_from && step < spec.quality_end;
  const auto id = static_cast<int64_t>(step);
  Span span("bench.batch", id);
  if (quality) {
    PrequentialRanks(model, batch, spec.prequential_sample,
                     run.seed * 7919 + step, id, &log->ranks);
  }
  const int32_t units_before = model.num_units();
  const auto prev = model.CurrentShardedSnapshot();
  const double t0 = NowS();
  actor::Status st;
  {
    Span ingest("core.ingest", id);
    st = model.Ingest(batch);
  }
  const double t1 = NowS();
  std::shared_ptr<const actor::ShardedModelSnapshot> snap;
  {
    Span publish("serve.publish", id);
    snap = model.PublishShardedSnapshot();
  }
  const double t2 = NowS();
  log->attempted += 2;
  if (!st.ok()) ++log->failed;
  if (snap == nullptr || snap->version() <= prev->version()) {
    ++log->failed;  // published versions must strictly increase
  } else {
    publish_log->Add(snap->version(), t2);
    RecordChunkSharing(prev.get(), *snap, log);
  }
  log->ingest_s.Add(t1 - t0);
  log->publish_s.Add(t2 - t1);
  log->freshness_ms.Add((t2 - (due >= 0 ? due : t0)) * 1e3);
  log->sgd_steps.Add(2.0 * kSamplesPerEdgePerBatch *
                     static_cast<double>(model.num_live_edges()));
  log->new_units.Add(model.num_units() - units_before);
  log->records += static_cast<int64_t>(batch.size());
  ++log->batches;
  if (step + 1 == spec.quality_end) {
    std::shared_ptr<const actor::ModelSnapshot> flat;
    {
      Span flat_publish("serve.publish_flat", id);
      flat = model.PublishSnapshot();
    }
    log->quality = EvaluateSnapshot(flat, s.stream.heldout, spec.eval_queries,
                                    run.seed + 5);
  }
}

RequestPool PoolFromSharded(const actor::ShardedModelSnapshot& snap,
                            const std::vector<actor::GeoPoint>& probes) {
  RequestPool pool;
  pool.probes = probes;
  for (const auto& [word, unit] : snap.map().word_units) {
    pool.word_units.push_back(unit);
  }
  std::sort(pool.word_units.begin(), pool.word_units.end());
  pool.num_units = snap.num_units();
  return pool;
}

void ReportIngest(Run& run, const IngestLog& log, double wall_s,
                  const Usage& u0, const Usage& u1, bool closed_loop) {
  run.attempted += log.attempted;
  run.Fail("Ingest failed or the snapshot version did not increase",
           log.failed);
  Report& r = run.report;
  const double busy = log.ingest_s.Sum() + log.publish_s.Sum();
  const auto nb = static_cast<int64_t>(log.batches);
  // Records per batch over the median batch's Ingest + publish time.
  Samples busy_per_batch;
  for (std::size_t i = 0; i < log.ingest_s.size(); ++i) {
    busy_per_batch.Add(log.ingest_s.values()[i] + log.publish_s.values()[i]);
  }
  r.EndToEnd("ingest_records_per_s",
             nb ? static_cast<double>(log.records) / nb /
                      busy_per_batch.Median()
                : 0.0,
             "1/s", nb);
  r.EndToEnd("freshness_p50_ms", log.freshness_ms.Quantile(0.5), "ms", nb);
  r.EndToEnd("freshness_p90_ms", log.freshness_ms.Quantile(0.9), "ms", nb);
  r.Layer("core.ingest_busy_share", wall_s > 0 ? busy / wall_s : 0.0, "ratio",
          nb);
  r.Layer("core.backlog_batches_max",
          closed_loop ? 0.0 : log.backlog.Quantile(1.0), "count", nb);
  const double ingest_total = log.ingest_s.Sum();
  r.Layer("core.sgd_steps_per_s",
          ingest_total > 0 ? log.sgd_steps.Sum() / ingest_total : 0.0, "1/s",
          nb);
  r.Layer("core.new_units_per_batch", log.new_units.Mean(), "count", nb);
  r.Layer("util.cpu_cores_busy",
          wall_s > 0 ? (u1.cpu_s - u0.cpu_s) / wall_s : 0.0, "cores", 1);
  r.Layer("util.ctx_switches_per_batch",
          nb ? static_cast<double>(u1.ctx_switches - u0.ctx_switches) / nb
             : 0.0,
          "count", nb);
  r.Layer("serve.chunks_copied_per_publish", log.chunks_copied.Mean(),
          "count", static_cast<int64_t>(log.chunks_copied.size()));
  r.Layer("serve.chunk_share_ratio", log.chunk_share.Mean(), "ratio",
          static_cast<int64_t>(log.chunk_share.size()));
}

void ReportModelShape(Run& run, const OnlineActor& model) {
  Report& r = run.report;
  r.Layer("hotspot.spatial_units",
          static_cast<double>(model.num_spatial_hotspots()), "count", 1);
  r.Layer("hotspot.temporal_units",
          static_cast<double>(model.num_temporal_hotspots()), "count", 1);
  r.Layer("core.units", model.num_units(), "count", 1);
  r.Layer("core.live_edges", static_cast<double>(model.num_live_edges()),
          "count", 1);
  double max_rows = 0.0, sum_rows = 0.0, tiles = 0.0;
  for (int s = 0; s < model.num_shards(); ++s) {
    const double rows = model.center_shard(s).rows();
    max_rows = std::max(max_rows, rows);
    sum_rows += rows;
    tiles += static_cast<double>(model.remote_tile_rows(s));
  }
  r.Layer("shard.units_max_over_mean",
          sum_rows > 0 ? max_rows / (sum_rows / model.num_shards()) : 0.0,
          "ratio", model.num_shards());
  r.Layer("shard.remote_tile_rows", tiles, "count", model.num_shards());
}

/// The quality metrics of a streaming run. Sharded training is
/// bit-deterministic, so they must repeat exactly for a build and seed.
void ReportStreamQuality(Run& run, const OnlineSpec& spec,
                         const IngestLog& log) {
  Report& r = run.report;
  const double stream_mrr = actor::MeanReciprocalRank(log.ranks);
  const actor::MrrScores& m = log.quality;
  r.EndToEnd("stream_mrr", stream_mrr, "mrr",
             static_cast<int64_t>(log.ranks.size()));
  // The streaming model trains one batch per Ingest(): resolve, accumulate,
  // re-embed. train_s is that step's median time.
  r.EndToEnd("train_s", log.ingest_s.Median(), "s",
             static_cast<int64_t>(log.ingest_s.size()));
  const auto q = static_cast<int64_t>(spec.eval_queries);
  r.EndToEnd("offline_mrr_text", m.text, "mrr", q);
  r.EndToEnd("offline_mrr_location", m.location, "mrr", q);
  r.EndToEnd("offline_mrr_time", m.time, "mrr", q);
  run.attempted += 1;
  if (log.batches < static_cast<int64_t>(spec.quality_end)) {
    // An incomplete window is not comparable with other runs.
    run.Fail("run ended before the prequential window was complete");
    return;
  }
  run.Fail("stream quality differs from an earlier run of this build and seed",
           CheckRepeatable(run, {stream_mrr, m.text, m.location, m.time}));
  for (double v : {stream_mrr, m.text, m.location, m.time}) {
    if (!(v > kFloorMrr11)) run.Fail("MRR at or below the 1-in-11 floor");
  }
}

/// Runs an online workload: set-up (several times; the last one is kept),
/// then the measured phase. The ingest loop runs on its own thread for the
/// whole phase while the main thread drives the fixed-rate query window and
/// then the max_qps_slo search.
void RunOnline(Run& run, const OnlineSpec& spec) {
  Samples setup_s;
  OnlineSetup s;
  while (SetUpAgain(setup_s)) {
    s.model.reset();  // before the pool it borrows
    s = SetUpOnline(run, spec);
    setup_s.Add(s.seconds);
  }
  const int64_t measure_from = NowNs();
  const Usage u0 = Usage::Now();
  const double t_begin = NowS();
  PublishLog publish_log;
  publish_log.Add(s.model->CurrentShardedSnapshot()->version(), t_begin);
  IngestLog log;
  std::atomic<bool> stop{false};
  const bool closed_loop = spec.period_s <= 0.0;
  // Ingest runs until the query phases end, and at least until the quality
  // window is complete and freshness p90 has ten samples beyond it.
  const std::size_t min_batches = std::max(kMinBatches, spec.quality_end);
  auto more = [&](std::size_t step) {
    return step < min_batches || !stop.load(std::memory_order_acquire);
  };
  std::thread ingest([&] {
    LowerPriority();
    for (std::size_t step = 0; more(step); ++step) {
      double due = -1.0;
      if (!closed_loop) {
        due = t_begin + static_cast<double>(step) * spec.period_s;
        for (double now = NowS(); now < due; now = NowS()) {
          if (!more(step)) return;
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::min(due - now, 0.02)));
        }
        log.backlog.Add(std::floor((NowS() - due) / spec.period_s));
      }
      IngestStep(run, spec, s, step, due, &publish_log, &log);
    }
  });

  ServePlan plan;
  plan.workers = spec.query_workers;
  plan.fixed_qps = spec.fixed_qps;
  plan.fixed_s = run.seconds * spec.fixed_share;
  plan.search_s = run.seconds - plan.fixed_s;
  plan.search_start_qps = spec.search_start_qps;
  const ServeOutcome served = Serve(
      run, ShardedTarget{s.model.get()},
      PoolFromSharded(*s.model->CurrentShardedSnapshot(), s.stream.probes),
      plan, publish_log);
  stop.store(true, std::memory_order_release);
  ingest.join();
  const double wall = NowS() - t_begin;
  const Usage u1 = Usage::Now();

  run.report.EndToEnd("setup_s", setup_s.Median(), "s",
                      static_cast<int64_t>(setup_s.size()));
  ReportIngest(run, log, wall, u0, u1, closed_loop);
  ReportServe(run, served);
  ReportStreamQuality(run, spec, log);
  run.report.Layer("peak_rss_mb", u1.max_rss_mb, "MB", 1);
  ReportModelShape(run, *s.model);
  if (run.traced) ReportSpans(run, measure_from);
}

// ingest_catchup: writes dominate. A long stream with a small catalogue
// (~1.1k words) replays in 1,000-record batches as fast as the pipeline
// takes them, on all cores but one; one query worker sends a low fixed rate.
OnlineSpec IngestCatchupSpec(const Run& run) {
  OnlineSpec spec;
  spec.data.seed = 20111104;
  spec.data.num_records = 80000;
  spec.data.num_users = 400;
  spec.data.num_topics = 12;
  spec.data.num_venues = 80;
  spec.data.num_communities = 8;
  spec.batch_records = 1000;
  spec.heldout_records = 3000;
  spec.warmup_records = 3000;
  spec.warmup_batch_records = 1000;
  spec.ingest_threads = std::max(1, run.nproc - 1);
  spec.period_s = 0.0;
  spec.quality_from = 20;
  spec.quality_end = 60;
  spec.prequential_sample = 200;
  spec.eval_queries = 3000;
  spec.query_workers = 1;
  spec.fixed_qps = 800.0;
  spec.fixed_share = 0.6;
  spec.search_start_qps = 16000.0;
  return spec;
}

// serve_mixed: reads dominate. nproc-1 query workers against a catalogue of
// >10k words (a working set past the per-core L2), one sequential ingest
// thread publishing small batches on a fixed period.
OnlineSpec ServeMixedSpec(const Run& run) {
  OnlineSpec spec;
  spec.data.seed = 4242;
  spec.data.num_records = 20000;
  spec.data.num_topics = 24;
  spec.data.keywords_per_topic = 1000;
  spec.data.background_vocab = 1500;
  spec.data.keyword_exponent = 0.3;
  spec.batch_records = 40;
  spec.heldout_records = 3000;
  spec.warmup_records = 2000;
  spec.warmup_batch_records = 500;
  spec.settle_batches = 10;
  spec.ingest_threads = 1;
  spec.period_s = 0.15;
  spec.quality_from = 30;
  spec.quality_end = 100;
  spec.eval_queries = 3000;
  spec.query_workers = std::max(1, run.nproc - 1);
  spec.fixed_qps = 1000.0;
  spec.fixed_share = 0.6;
  spec.search_start_qps = 2000.0;
  return spec;
}

// ---------------------------------------------------------------------------
// offline_train: Algorithm 1 as a batch job

struct OfflineSpec {
  actor::SyntheticConfig data;
  double test_fraction = 0.1;
  std::size_t eval_queries = 0;  // all held-out records
  double train_share = 0.6;  // of --seconds; the rest serves the model
  int min_reps = 3;
  double fixed_qps = 2000.0;
  double search_start_qps = 32000.0;
};

OfflineSpec OfflineTrainSpec() {
  OfflineSpec spec;
  spec.data = actor::UTGeoLikeConfig(1.0);
  return spec;
}

void RunOffline(Run& run, const OfflineSpec& spec) {
  Samples setup_s;
  Corpus corpus;
  TokenizedCorpus train, test;
  while (SetUpAgain(setup_s)) {
    const double t0 = NowS();
    Span span("bench.setup");
    corpus = MakeCorpus(spec.data);
    const std::size_t n = corpus.full.size();
    const auto test_size = static_cast<std::size_t>(spec.test_fraction * n);
    const auto split =
        CheckOk(actor::RandomSplit(n, 0, test_size, run.seed + 3), "split");
    train = actor::Subset(corpus.full, split.train);
    test = actor::Subset(corpus.full, split.test);
    setup_s.Add(NowS() - t0);
  }
  const auto vocab =
      std::make_shared<const actor::Vocabulary>(corpus.full.vocab());
  actor::ThreadPool pool(static_cast<std::size_t>(run.nproc));
  actor::ActorOptions options;
  options.dim = kDim;
  options.epochs = 8;
  options.samples_per_edge = 10;
  options.negatives = 5;
  options.num_threads = run.nproc;
  options.seed = run.seed;
  options.pool = &pool;

  const int64_t measure_from = NowNs();
  const Usage u0 = Usage::Now();
  const double t_begin = NowS();
  actor::SnapshotStore store;
  PublishLog publish_log;
  Samples train_s, freshness_ms, pretrain_s, sgd_s, sgd_rate, chunks_copied,
      mrr_text, mrr_location, mrr_time, stream_mrr;
  double edges = 0.0, units = 0.0, spatial = 0.0, temporal = 0.0;
  std::shared_ptr<const actor::ModelSnapshot> prev;
  for (int rep = 0;
       rep < spec.min_reps ||
       NowS() - t_begin < run.seconds * spec.train_share;
       ++rep) {
    Span span("bench.pipeline", rep);
    const double t0 = NowS();
    std::shared_ptr<const actor::Hotspots> hotspots;
    {
      Span detect("hotspot.detect", rep);
      hotspots = std::make_shared<const actor::Hotspots>(
          CheckOk(actor::DetectHotspots(train), "hotspots"));
    }
    std::shared_ptr<const actor::BuiltGraphs> graphs;
    {
      Span build("graph.build", rep);
      graphs = std::make_shared<const actor::BuiltGraphs>(
          CheckOk(actor::BuildGraphs(train, *hotspots), "graphs"));
    }
    actor::ActorModel model;
    {
      Span fit("core.train_actor", rep);
      model = CheckOk(actor::TrainActor(*graphs, options), "train");
    }
    const double t3 = NowS();
    std::shared_ptr<const actor::ModelSnapshot> snap;
    {
      Span publish("serve.publish", rep);
      snap = actor::PublishActorModel(model, graphs, hotspots, vocab);
    }
    const double t4 = NowS();
    run.attempted += 4;
    if (snap == nullptr) {
      run.Fail("PublishActorModel returned no snapshot");
      continue;
    }
    store.Publish(snap);
    publish_log.Add(snap->version(), t4);
    train_s.Add(t3 - t0);
    freshness_ms.Add((t4 - t0) * 1e3);
    pretrain_s.Add(model.stats.pretrain_seconds);
    sgd_s.Add(model.stats.train_seconds);
    sgd_rate.Add(static_cast<double>(model.stats.edge_steps +
                                     model.stats.record_steps) /
                 model.stats.train_seconds);
    chunks_copied.Add(static_cast<double>(
        snap->center().num_chunks() -
        (prev ? snap->center().SharedChunksWith(prev->center()) : 0)));
    edges = static_cast<double>(graphs->activity.num_directed_edges() +
                                graphs->user_graph.num_directed_edges());
    units = graphs->activity.num_vertices();
    spatial = static_cast<double>(hotspots->spatial.size());
    temporal = static_cast<double>(hotspots->temporal.size());
    const actor::MrrScores scores =
        EvaluateSnapshot(snap, test, spec.eval_queries, run.seed + 5);
    mrr_text.Add(scores.text);
    mrr_location.Add(scores.location);
    mrr_time.Add(scores.time);
    {
      Span span_mrr("eval.mrr", rep);
      stream_mrr.Add(SnapshotRecordMrr(*snap, test, test.size(),
                                       run.seed + 9));
    }
    prev = snap;
  }
  const double train_wall = NowS() - t_begin;
  const Usage u_train = Usage::Now();

  // The last published model answers neighbor queries from all cores.
  RequestPool pool_req;
  const auto snap = store.Acquire();
  for (std::size_t i = 0; i < test.size(); i += 7) {
    pool_req.probes.push_back(test.record(i).location);
  }
  pool_req.word_units = snap->VerticesOfType(VertexType::kWord);
  pool_req.num_units = snap->num_units();
  ServePlan plan;
  plan.workers = run.nproc;
  plan.fixed_qps = spec.fixed_qps;
  const double left = std::max(2.0, run.seconds - train_wall);
  plan.fixed_s = left * 0.4;
  plan.search_s = left - plan.fixed_s;
  plan.search_start_qps = spec.search_start_qps;
  const ServeOutcome served =
      Serve(run, FlatTarget{&store}, pool_req, plan, publish_log);
  const Usage u1 = Usage::Now();

  Report& r = run.report;
  const auto reps = static_cast<int64_t>(train_s.size());
  r.EndToEnd("setup_s", setup_s.Median(), "s",
             static_cast<int64_t>(setup_s.size()));
  r.EndToEnd("ingest_records_per_s", static_cast<double>(train.size()) *
                                         reps / train_s.Sum(),
             "1/s", reps);
  r.EndToEnd("freshness_p50_ms", freshness_ms.Quantile(0.5), "ms", reps);
  r.EndToEnd("freshness_p90_ms", freshness_ms.Quantile(0.9), "ms", reps);
  ReportServe(run, served);
  r.EndToEnd("stream_mrr", stream_mrr.Median(), "mrr", reps);
  r.EndToEnd("train_s", train_s.Median(), "s", reps);
  r.EndToEnd("offline_mrr_text", mrr_text.Median(), "mrr", reps);
  r.EndToEnd("offline_mrr_location", mrr_location.Median(), "mrr", reps);
  r.EndToEnd("offline_mrr_time", mrr_time.Median(), "mrr", reps);
  r.Layer("peak_rss_mb", u1.max_rss_mb, "MB", 1);
  for (const Samples* s : {&mrr_text, &mrr_location, &mrr_time, &stream_mrr}) {
    if (!(s->Quantile(0.0) > kFloorMrr11)) {
      run.Fail("MRR at or below the 1-in-11 floor");
    }
  }
  r.Layer("embedding.line_pretrain_s", pretrain_s.Median(), "s", reps);
  r.Layer("embedding.sgd_train_s", sgd_s.Median(), "s", reps);
  r.Layer("embedding.sgd_steps_per_s", sgd_rate.Median(), "1/s", reps);
  r.Layer("graph.edges", edges, "count", 1);
  r.Layer("core.units", units, "count", 1);
  r.Layer("hotspot.spatial_units", spatial, "count", 1);
  r.Layer("hotspot.temporal_units", temporal, "count", 1);
  r.Layer("serve.chunks_copied_per_publish", chunks_copied.Mean(), "count",
          reps);
  r.Layer("serve.chunk_share_ratio", 0.0, "ratio", reps);
  r.Layer("util.cpu_cores_busy", (u_train.cpu_s - u0.cpu_s) / train_wall,
          "cores", 1);
  if (run.traced) ReportSpans(run, measure_from);
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  actor::Flags flags(argc, argv);
  Run run;
  run.workload = flags.GetString("workload", "");
  run.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  run.seconds = flags.GetDouble("seconds", 10.0);
  run.traced = flags.GetInt("trace", 0) != 0;
  run.state_dir = flags.GetString("state_dir", "");
  run.spans_out = flags.GetString("spans_out", "");
  const std::string detail_out = flags.GetString("detail_out", "");
  run.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (run.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  Tracer::Get().Enable(run.traced);
  std::printf("machine: nproc=%d simd=%s\n", run.nproc,
              actor::VecBackendName(actor::ActiveVecBackend()));
  if (run.workload == "ingest_catchup") {
    RunOnline(run, IngestCatchupSpec(run));
  } else if (run.workload == "serve_mixed") {
    RunOnline(run, ServeMixedSpec(run));
  } else if (run.workload == "offline_train") {
    RunOffline(run, OfflineTrainSpec());
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", run.workload.c_str());
    return 2;
  }
  const int64_t attempted = std::max<int64_t>(1, run.attempted);
  run.report.Layer("failed_ratio",
                   static_cast<double>(run.failed) / attempted, "ratio",
                   attempted);
  if (!run.report.Complete(kEndToEnd, kPerLayer)) {
    std::fprintf(stderr, "an end-to-end metric was not measured\n");
    return 3;
  }
  if (!detail_out.empty() && !run.report.WriteDetail(detail_out)) {
    std::fprintf(stderr, "cannot write %s\n", detail_out.c_str());
    return 3;
  }
  run.report.Print(run.traced, run.failed == 0, attempted, run.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
