// Open-loop query load against a published model, and the search for the
// highest rate that meets the latency limit.
//
// Each worker is a Poisson process at rate / workers. It sleeps until the
// next scheduled arrival, acquires the current snapshot once, and serves up
// to `max_batch` due requests in one QueryBatch call. Latency is charged
// from the scheduled arrival, so time a request spends queued behind a slow
// call counts against it. A fixed sample of requests is re-run through the
// sequential Query* entry point on the same engine and must come back
// bit-identical.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/online_actor.h"
#include "serve/model_snapshot.h"
#include "serve/query_engine.h"
#include "shard/sharded_query_engine.h"
#include "shard/sharded_snapshot.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using actor::BatchQuery;
using actor::GeoPoint;
using actor::Neighbor;
using actor::VertexId;
using actor::VertexType;

/// Publish-return times by snapshot version, for query-side staleness.
class PublishLog {
 public:
  void Add(uint64_t version, double t_s) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace_back(version, t_s);
    if (entries_.size() > 4096) entries_.pop_front();
  }
  /// Publish time of `version`, or `fallback` when it was not logged (yet).
  double Find(uint64_t version, double fallback) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->first == version) return it->second;
    }
    return fallback;
  }

 private:
  mutable std::mutex mu_;
  std::deque<std::pair<uint64_t, double>> entries_;
};

/// Queries against the composite snapshots of a sharded OnlineActor.
struct ShardedTarget {
  using Snapshot = actor::ShardedModelSnapshot;
  using Engine = actor::ShardedQueryEngine;
  const actor::OnlineActor* actor = nullptr;

  std::shared_ptr<const Snapshot> Acquire() const {
    Span span("serve.acquire");
    return actor->CurrentShardedSnapshot();
  }
  static const float* Row(const Snapshot& snap, VertexId v) {
    const auto& map = snap.map();
    return snap.shard(map.owner[v])->center().row(map.local[v]);
  }
  static int64_t TypeRows(const Snapshot& snap, VertexType type) {
    int64_t rows = 0;
    for (int s = 0; s < snap.num_shards(); ++s) {
      rows += static_cast<int64_t>(snap.shard(s)->VerticesOfType(type).size());
    }
    return rows;
  }
};

/// Queries against a flat snapshot published into a SnapshotStore (the
/// batch-trained model of Algorithm 1).
struct FlatTarget {
  using Snapshot = actor::ModelSnapshot;
  using Engine = actor::QueryEngine;
  const actor::SnapshotStore* store = nullptr;

  std::shared_ptr<const Snapshot> Acquire() const {
    Span span("serve.acquire");
    return store->Acquire();
  }
  static const float* Row(const Snapshot& snap, VertexId v) {
    return snap.center().row(v);
  }
  static int64_t TypeRows(const Snapshot& snap, VertexType type) {
    return static_cast<int64_t>(snap.VerticesOfType(type).size());
  }
};

/// Request material fixed for a phase: probe points for location queries
/// and unit ids whose rows seed keyword and vector queries. Unit ids stay
/// valid in later snapshots because the unit set only grows.
struct RequestPool {
  std::vector<GeoPoint> probes;
  std::vector<VertexId> word_units;
  int32_t num_units = 0;
};

enum Kind { kLocation = 0, kHour, kKeyword, kVector, kNumKinds };
inline const char* const kKindNames[kNumKinds] = {"location", "hour",
                                                  "keyword", "vector"};

struct LoadSpec {
  double rate_qps = 100.0;
  int workers = 1;
  int max_batch = 8;
  double duration_s = 1.0;
  int k = 10;
  uint64_t seed = 1;
  // Re-run every n-th request sequentially; odd, so every kind is sampled.
  int verify_every = 31;
};

/// What one window measured, merged over its workers.
struct WindowResult {
  double offered_qps = 0.0;
  double begin_s = 0.0;
  double duration_s = 0.0;
  Samples latency_ms;     // scheduled arrival -> batch return
  std::vector<double> arrival_s;  // scheduled arrival, aligned with latency
  Samples queue_wait_ms;  // scheduled arrival -> service start
  Samples lateness_ms;    // scheduled arrival -> worker wake-up
  Samples staleness_ms;   // snapshot publish -> service start
  Samples batch_sizes;
  int64_t served = 0;
  int64_t failed = 0;  // error results and sequential/batched mismatches
  int64_t verified = 0;
  int64_t pending_at_end = 0;  // due before the end, not started by it
  int64_t rows_scanned = 0;
  double bytes_scanned = 0.0;
  double service_s = 0.0;

  void Merge(const WindowResult& o) {
    latency_ms.Append(o.latency_ms);
    arrival_s.insert(arrival_s.end(), o.arrival_s.begin(), o.arrival_s.end());
    queue_wait_ms.Append(o.queue_wait_ms);
    lateness_ms.Append(o.lateness_ms);
    staleness_ms.Append(o.staleness_ms);
    batch_sizes.Append(o.batch_sizes);
    served += o.served;
    failed += o.failed;
    verified += o.verified;
    pending_at_end += o.pending_at_end;
    rows_scanned += o.rows_scanned;
    bytes_scanned += o.bytes_scanned;
    service_s += o.service_s;
  }
  double achieved_qps() const {
    return duration_s > 0 ? static_cast<double>(served) / duration_s : 0.0;
  }
  /// The p99 of each consecutive slice of the window (by scheduled
  /// arrival) holding about `slice_requests` requests, so that each slice
  /// p99 has ten samples beyond it when slice_requests >= 1000; then the
  /// median over slices. A single stall moves one slice's tail, not the
  /// window's. Slices with fewer than half the requests are left out.
  double SliceP99(double slice_requests) const {
    const double slice_s = slice_requests / offered_qps;
    std::vector<Samples> slices;
    for (std::size_t i = 0; i < arrival_s.size(); ++i) {
      const auto k =
          static_cast<std::size_t>((arrival_s[i] - begin_s) / slice_s);
      if (k >= slices.size()) slices.resize(k + 1);
      slices[k].Add(latency_ms.values()[i]);
    }
    Samples p99s;
    for (const Samples& s : slices) {
      if (s.size() >= slice_requests / 2) p99s.Add(s.Quantile(0.99));
    }
    return p99s.empty() ? latency_ms.Quantile(0.99) : p99s.Median();
  }
};

inline bool SameResult(const actor::Result<std::vector<Neighbor>>& a,
                       const actor::Result<std::vector<Neighbor>>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  if (a->size() != b->size()) return false;
  for (std::size_t i = 0; i < a->size(); ++i) {
    const double sa = (*a)[i].similarity, sb = (*b)[i].similarity;
    if ((*a)[i].vertex != (*b)[i].vertex ||
        std::memcmp(&sa, &sb, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

template <class Target>
actor::Result<std::vector<Neighbor>> ServeSequential(
    const typename Target::Engine& engine, const BatchQuery& q, Kind kind) {
  static const char* const kSpanNames[kNumKinds] = {
      "serve.query_location", "serve.query_hour", "serve.query_keyword",
      "serve.query_vector"};
  Span span(kSpanNames[kind]);
  switch (q.kind) {
    case BatchQuery::Kind::kLocation:
      return engine.QueryByLocation(q.location, q.result_type, q.k);
    case BatchQuery::Kind::kHour:
      return engine.QueryByHour(q.hour, q.result_type, q.k);
    case BatchQuery::Kind::kKeyword:
      return engine.QueryByKeyword(q.keyword, q.result_type, q.k);
    case BatchQuery::Kind::kVector:
      break;
  }
  return engine.QueryByVector(q.vector, q.result_type, q.k, q.exclude);
}

/// Request `seq` of `worker`: rotates location, hour, keyword-as-vector and
/// vector queries. Keyword requests score a word unit's row, which is the
/// work QueryByKeyword does after resolution (streaming snapshots resolve
/// word ids, not strings), and rank locations; the other three rank words.
/// Scanning the word block costs far more than the location block, so with
/// three word scans in four the median request is a word scan, not a
/// request on the boundary between the two costs.
template <class Target>
Kind MakeRequest(const typename Target::Snapshot& snap,
                 const RequestPool& pool, const LoadSpec& spec, int worker,
                 uint64_t seq, std::vector<BatchQuery>* out) {
  uint64_t key = spec.seed * 0x9e3779b97f4a7c15ULL +
                 seq * 0xbf58476d1ce4e5b9ULL + worker * 0x94d049bb133111ebULL;
  key = (key ^ (key >> 31)) * 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 29;
  const Kind kind = static_cast<Kind>((seq + worker) % kNumKinds);
  switch (kind) {
    case kLocation:
      out->push_back(BatchQuery::Location(
          pool.probes[key % pool.probes.size()], VertexType::kWord, spec.k));
      break;
    case kHour:
      out->push_back(BatchQuery::Hour(static_cast<double>(key % 96) * 0.25,
                                      VertexType::kWord, spec.k));
      break;
    case kKeyword: {
      const VertexId w = pool.word_units[key % pool.word_units.size()];
      out->push_back(BatchQuery::Vector(Target::Row(snap, w),
                                        VertexType::kLocation, spec.k, w));
      break;
    }
    default: {
      const VertexId v = static_cast<VertexId>(
          key % static_cast<uint64_t>(pool.num_units));
      out->push_back(BatchQuery::Vector(Target::Row(snap, v),
                                        VertexType::kWord, spec.k, v));
      break;
    }
  }
  return kind;
}

template <class Target>
void RunWorker(const Target& target, const RequestPool& pool,
               const LoadSpec& spec, const PublishLog& log, int worker,
               double t_begin, double t_end, WindowResult* out) {
  actor::Rng rng(spec.seed * 1000003ULL + static_cast<uint64_t>(worker));
  const double rate = spec.rate_qps / spec.workers;
  double next = t_begin + rng.Exponential() / rate;
  uint64_t seq = 0;
  uint64_t last_version = 0;
  std::vector<BatchQuery> batch;
  std::vector<Kind> kinds;
  std::vector<double> arrivals;
  int64_t cycle = 0;
  while (next < t_end) {
    double now = NowS();
    if (now < next) {
      std::this_thread::sleep_for(std::chrono::duration<double>(next - now));
      now = NowS();
      out->lateness_ms.Add((now - next) * 1e3);
    }
    Span span("bench.serve_cycle", cycle++);
    auto snap = target.Acquire();
    if (snap == nullptr) {
      ++out->failed;
      next += rng.Exponential() / rate;
      continue;
    }
    if (snap->version() < last_version) ++out->failed;  // went backwards
    last_version = snap->version();
    const typename Target::Engine engine(snap);
    batch.clear();
    kinds.clear();
    arrivals.clear();
    const double start = NowS();
    while (static_cast<int>(batch.size()) < spec.max_batch && next <= start &&
           next < t_end) {
      arrivals.push_back(next);
      kinds.push_back(MakeRequest<Target>(*snap, pool, spec, worker, seq++,
                                          &batch));
      next += rng.Exponential() / rate;
    }
    if (batch.empty()) continue;
    out->staleness_ms.Add((start - log.Find(snap->version(), start)) * 1e3);
    std::vector<actor::Result<std::vector<Neighbor>>> results;
    {
      Span query("serve.query_batch", cycle);
      results = engine.QueryBatch(batch);
    }
    const double done = NowS();
    out->service_s += done - start;
    out->batch_sizes.Add(static_cast<double>(batch.size()));
    bool types_seen[actor::kNumVertexTypes] = {};
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out->latency_ms.Add((done - arrivals[i]) * 1e3);
      out->arrival_s.push_back(arrivals[i]);
      out->queue_wait_ms.Add((start - arrivals[i]) * 1e3);
      if (start > t_end && arrivals[i] <= t_end) ++out->pending_at_end;
      if (!results[i].ok()) ++out->failed;
      const int64_t rows =
          Target::TypeRows(*snap, batch[i].result_type);
      out->rows_scanned += rows;
      // One blocked sweep per result type per batch.
      const int t = static_cast<int>(batch[i].result_type);
      if (!types_seen[t]) {
        types_seen[t] = true;
        out->bytes_scanned +=
            static_cast<double>(rows) * snap->dim() * sizeof(float);
      }
    }
    out->served += static_cast<int64_t>(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const uint64_t id = seq - batch.size() + i;
      if (id % static_cast<uint64_t>(spec.verify_every) != 0) continue;
      ++out->verified;
      if (!SameResult(ServeSequential<Target>(engine, batch[i], kinds[i]),
                      results[i])) {
        ++out->failed;
      }
    }
  }
}

/// One open-loop window of `spec.duration_s` at `spec.rate_qps`.
template <class Target>
WindowResult RunWindow(const Target& target, const RequestPool& pool,
                       const LoadSpec& spec, const PublishLog& log) {
  std::vector<WindowResult> parts(static_cast<std::size_t>(spec.workers));
  const double t_begin = NowS() + 0.002;
  const double t_end = t_begin + spec.duration_s;
  std::vector<std::thread> threads;
  for (int w = 0; w < spec.workers; ++w) {
    threads.emplace_back([&, w] {
      RunWorker(target, pool, spec, log, w, t_begin, t_end,
                &parts[static_cast<std::size_t>(w)]);
    });
  }
  for (auto& t : threads) t.join();
  WindowResult out;
  out.offered_qps = spec.rate_qps;
  out.begin_s = t_begin;
  out.duration_s = spec.duration_s;
  for (const auto& p : parts) out.Merge(p);
  return out;
}

/// The latency limit and the run-validity bounds a rate must meet.
struct Slo {
  double p99_ms = 20.0;
  double lateness_p99_ms = 10.0;
};

// Requests per slice for SliceP99.
constexpr double kSliceRequests = 1000;

/// A rate is sustainable when p99 latency meets the limit, nothing failed,
/// the generator kept its schedule, and at most one batch per worker was
/// still queued when the window ended (no growing backlog).
inline bool Sustainable(const WindowResult& w, const LoadSpec& spec,
                        const Slo& slo) {
  return w.served > 0 && w.failed == 0 &&
         w.SliceP99(kSliceRequests) <= slo.p99_ms &&
         w.lateness_ms.Quantile(0.99) <= slo.lateness_p99_ms &&
         w.pending_at_end <=
             static_cast<int64_t>(spec.workers) * spec.max_batch;
}

struct SearchResult {
  double max_qps = 0.0;  // achieved rate of the best level; 0 if none
  int levels = 0;
  int64_t served = 0;
  int64_t failed = 0;  // error results and mismatches in its windows
};

/// Highest sustainable rate: grows the rate by 1.5x from `start_qps` until
/// a level fails (or shrinks it until one passes), then bisects
/// geometrically until the bracket is narrower than `step` (a share of the
/// rate) or `budget_s` has passed, and reports the rate the best passing
/// window achieved. Each window holds at least `min_samples` requests so its
/// p99 has ten or more samples beyond it. A search that never finds a
/// failing rate below `max_qps` reports 0 rather than the top of its range.
template <class Target>
SearchResult SearchMaxQps(const Target& target, const RequestPool& pool,
                          LoadSpec spec, const PublishLog& log, const Slo& slo,
                          double start_qps, double max_qps, double step,
                          double min_window_s, double min_samples,
                          double budget_s) {
  SearchResult out;
  const double deadline = NowS() + budget_s;
  constexpr double kGrow = 1.5;
  // A failing window is confirmed by a second one at the same rate, so a
  // single stall does not decide a level.
  // Every passing level becomes the new lower end of the bracket, so the
  // rate achieved by the last passing window is that of the result.
  double achieved = 0.0;
  auto passes = [&](double rate) {
    spec.rate_qps = rate;
    spec.duration_s = std::max(min_window_s, min_samples / rate);
    ++out.levels;
    for (int attempt = 0; attempt < 2; ++attempt) {
      spec.seed += 1;
      const WindowResult w = RunWindow(target, pool, spec, log);
      out.served += w.served;
      out.failed += w.failed;
      if (Sustainable(w, spec, slo)) {
        achieved = w.achieved_qps();
        return true;
      }
    }
    return false;
  };
  double lo = 0.0, hi = 0.0;
  if (passes(start_qps)) {
    lo = start_qps;
    for (double r = lo * kGrow; hi == 0.0; r *= kGrow) {
      if (r > max_qps) return out;
      (passes(r) ? lo : hi) = r;
    }
  } else {
    hi = start_qps;
    for (double r = hi / kGrow; lo == 0.0; r /= kGrow) {
      if (r < 1.0) return out;
      (passes(r) ? lo : hi) = r;
    }
  }
  while (hi / lo > 1.0 + step && NowS() < deadline) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  out.max_qps = achieved;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
