// Streaming ingest-throughput harness: times the full OnlineActor
// Ingest() cycle (decay -> resolve -> accumulate -> sampler refresh ->
// re-embed) on a synthetic activity stream and emits BENCH_online.json so
// the streaming path's perf trajectory is tracked across PRs, alongside
// BENCH_sgd.json for the batch trainer.
//
// "throughput" rows, all on one shard and one thread: full-rebuild mode
// (the pre-port behavior, via incremental_sampler=false), the
// incremental-sampler path, and the sparse-stream pure-decay column (empty
// Ingest() ticks, where the version-stamped sampler cache short-circuits
// every rebuild). The "sharding" section carries the parallel column: the
// same steady-state ingest at 1/2/4 shards, one worker per shard (its
// 1-shard row is the incremental row). Every row is the median of
// kRepeats runs, with the min/max batches/s beside it; the repeats run
// round-robin across configurations, so slow drift on a shared host
// lands on every row alike instead of on whichever ran last. See
// EXPERIMENTS.md for the machine-drift caveat before comparing against
// committed numbers.
//
// Usage: online_throughput [--records=12000] [--batches=12] [--dim=32]
//                          [--pure_decay_ticks=6] [--out=BENCH_online.json]

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/online_actor.h"
#include "data/corpus.h"
#include "data/synthetic.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/vec_math.h"

namespace actor {
namespace {

/// Runs per configuration; each row reports their median.
constexpr int kRepeats = 5;

struct Workload {
  std::vector<std::vector<TokenizedRecord>> stream;
};

/// One run's rates; batches_per_sec < 0 marks a failed run.
struct Rate {
  double batches_per_sec = -1.0;
  double records_per_sec = 0.0;
};

/// Median of kRepeats runs plus the batches/s spread.
struct OnlineRow {
  std::string sampler;  // "full_rebuild", "incremental" or "pure_decay"
  int shards = 1;
  double batches_per_sec = 0.0;
  double records_per_sec = 0.0;
  double batches_per_sec_min = 0.0;
  double batches_per_sec_max = 0.0;
};

OnlineActorOptions StreamOptions(int32_t dim, bool incremental, int shards) {
  OnlineActorOptions options;
  options.dim = dim;
  options.decay_per_batch = 0.7;
  options.samples_per_edge_per_batch = 3.0;
  options.incremental_sampler = incremental;
  options.num_shards = shards;
  options.num_threads = shards;
  return options;
}

/// One timed run over the shared stream. Warm-up ingests bootstrap the
/// unit catalogue and edge store so the timed section measures the
/// steady-state decay -> refresh -> re-embed cycle, not cold growth.
Rate MeasureIngest(const Workload& work, const OnlineActorOptions& options) {
  Rate rate;
  auto model = OnlineActor::Create(options);
  if (!model.ok()) {
    std::fprintf(stderr, "create: %s\n", model.status().ToString().c_str());
    return rate;
  }
  const int batches = static_cast<int>(work.stream.size());
  const int warm = batches / 3;
  std::size_t timed_records = 0;
  for (int i = 0; i < warm; ++i) {
    if (auto st = model->Ingest(work.stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return rate;
    }
  }
  Stopwatch timer;
  for (int i = warm; i < batches; ++i) {
    if (auto st = model->Ingest(work.stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return rate;
    }
    timed_records += work.stream[i].size();
  }
  const double secs = timer.ElapsedSeconds();
  if (secs > 0.0) {
    rate.batches_per_sec = static_cast<double>(batches - warm) / secs;
    rate.records_per_sec = static_cast<double>(timed_records) / secs;
  }
  return rate;
}

/// Times `ticks` empty Ingest() calls — sparse-stream mode, where a time
/// slice passes with no observations. The full stream is ingested first so
/// the decay ticks run against a realistic edge population. Uniform decay
/// keeps the cached samplers exact, so each tick is decay + training only
/// (no alias rebuild); the contrast with the incremental rows is the cost
/// of the accumulate + refresh phases. records_per_sec stays 0 — a decay
/// tick carries no records.
Rate MeasurePureDecay(const Workload& work, const OnlineActorOptions& options,
                      int ticks) {
  Rate rate;
  auto model = OnlineActor::Create(options);
  if (!model.ok()) {
    std::fprintf(stderr, "create: %s\n", model.status().ToString().c_str());
    return rate;
  }
  for (const auto& batch : work.stream) {
    if (auto st = model->Ingest(batch); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return rate;
    }
  }
  Stopwatch timer;
  for (int i = 0; i < ticks; ++i) {
    if (auto st = model->Ingest({}); !st.ok()) {
      std::fprintf(stderr, "decay tick: %s\n", st.ToString().c_str());
      return rate;
    }
  }
  const double secs = timer.ElapsedSeconds();
  if (secs > 0.0) {
    rate.batches_per_sec = static_cast<double>(ticks) / secs;
  }
  return rate;
}

/// One benchmarked configuration.
struct Series {
  std::string sampler;
  int shards = 1;
  std::function<Rate()> measure;
};

/// Runs every series kRepeats times, one run per series per round, so
/// host drift is spread across all configurations. Returns each series'
/// runs; a series stops at its first failed run.
std::vector<std::vector<Rate>> RunRoundRobin(
    const std::vector<Series>& series) {
  std::vector<std::vector<Rate>> runs(series.size());
  for (int round = 0; round < kRepeats; ++round) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (!runs[i].empty() && runs[i].back().batches_per_sec < 0.0) continue;
      runs[i].push_back(series[i].measure());
    }
  }
  return runs;
}

/// Folds a series' runs into one row: the median rates and the batches/s
/// range. A failed run zeroes the row.
OnlineRow Fold(const Series& series, const std::vector<Rate>& runs) {
  OnlineRow row;
  row.sampler = series.sampler;
  row.shards = series.shards;
  for (const Rate& r : runs) {
    if (r.batches_per_sec < 0.0) return row;
  }
  auto median = [&runs](double Rate::*field) {
    std::vector<double> v;
    for (const Rate& r : runs) v.push_back(r.*field);
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  row.batches_per_sec = median(&Rate::batches_per_sec);
  row.records_per_sec = median(&Rate::records_per_sec);
  const auto [lo, hi] = std::minmax_element(
      runs.begin(), runs.end(), [](const Rate& a, const Rate& b) {
        return a.batches_per_sec < b.batches_per_sec;
      });
  row.batches_per_sec_min = lo->batches_per_sec;
  row.batches_per_sec_max = hi->batches_per_sec;
  return row;
}

void WriteRows(std::ofstream& out, const char* section,
               const std::vector<OnlineRow>& rows, bool with_sampler) {
  char buf[256];
  out << "  \"" << section << "\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OnlineRow& r = rows[i];
    std::string identity =
        with_sampler ? "\"sampler\": \"" + r.sampler + "\", " : "";
    std::snprintf(buf, sizeof(buf),
                  "    {%s\"shards\": %d, \"batches_per_sec\": %.3f, "
                  "\"records_per_sec\": %.1f, \"batches_per_sec_min\": %.3f, "
                  "\"batches_per_sec_max\": %.3f}%s\n",
                  identity.c_str(), r.shards, r.batches_per_sec,
                  r.records_per_sec, r.batches_per_sec_min,
                  r.batches_per_sec_max, i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 12000));
  const int batches = static_cast<int>(flags.GetInt("batches", 12));
  const int32_t dim = static_cast<int32_t>(flags.GetInt("dim", 32));
  // Number of timed empty-Ingest ticks for the pure-decay column; 0
  // disables the column. Kept modest by default: with decay 0.7/batch the
  // edge set thins as ticks accumulate, and the column should measure the
  // well-populated regime.
  const int decay_ticks =
      static_cast<int>(flags.GetInt("pure_decay_ticks", 6));
  const std::string out_path = flags.GetString("out", "BENCH_online.json");
  if (records < batches || batches < 3 || dim < 1 || decay_ticks < 0) {
    std::fprintf(stderr,
                 "invalid flags: --records=%d --batches=%d --dim=%d "
                 "--pure_decay_ticks=%d (need records >= batches >= 3, "
                 "dim >= 1, ticks >= 0)\n",
                 records, batches, dim, decay_ticks);
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
  auto ds = GenerateSynthetic(config, "online-throughput");
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
  Workload work;
  work.stream.resize(static_cast<std::size_t>(batches));
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    work.stream[i * static_cast<std::size_t>(batches) / corpus->size()]
        .push_back(corpus->record(i));
  }

  const OnlineActorOptions full = StreamOptions(dim, false, 1);
  const OnlineActorOptions incremental = StreamOptions(dim, true, 1);
  std::vector<Series> series;
  series.push_back({"full_rebuild", 1,
                    [&] { return MeasureIngest(work, full); }});
  series.push_back({"incremental", 1,
                    [&] { return MeasureIngest(work, incremental); }});
  if (decay_ticks > 0) {
    series.push_back({"pure_decay", 1, [&] {
                        return MeasurePureDecay(work, incremental,
                                                decay_ticks);
                      }});
  }
  const std::size_t num_throughput = series.size();
  for (int shards : {2, 4}) {
    series.push_back({"incremental", shards,
                      [&work, options = StreamOptions(dim, true, shards)] {
                        return MeasureIngest(work, options);
                      }});
  }
  const std::vector<std::vector<Rate>> runs = RunRoundRobin(series);

  std::vector<OnlineRow> rows;
  std::vector<OnlineRow> shard_rows;
  for (std::size_t i = 0; i < series.size(); ++i) {
    OnlineRow row = Fold(series[i], runs[i]);
    if (i < num_throughput) {
      std::printf("sampler=%-12s shards=1  %.3f batches/s (%.3f..%.3f)  "
                  "%.1f records/s\n",
                  row.sampler.c_str(), row.batches_per_sec,
                  row.batches_per_sec_min, row.batches_per_sec_max,
                  row.records_per_sec);
      // The 1-shard point of the sharding column is the incremental row.
      if (row.sampler == "incremental") shard_rows.push_back(row);
      rows.push_back(std::move(row));
    } else {
      std::printf("sharded ingest shards=%d  %.3f batches/s (%.3f..%.3f)  "
                  "%.1f records/s\n",
                  row.shards, row.batches_per_sec, row.batches_per_sec_min,
                  row.batches_per_sec_max, row.records_per_sec);
      shard_rows.push_back(std::move(row));
    }
  }

  auto find = [&rows](const std::string& sampler) {
    for (const auto& r : rows) {
      if (r.sampler == sampler) return r.batches_per_sec;
    }
    return 0.0;
  };
  const double full1 = find("full_rebuild");
  const double inc1 = find("incremental");
  const double decay1 = find("pure_decay");
  const double incremental_speedup = full1 > 0.0 ? inc1 / full1 : 0.0;
  const double pure_decay_speedup = inc1 > 0.0 ? decay1 / inc1 : 0.0;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"online_throughput\",\n";
  out << "  \"records\": " << records << ",\n";
  out << "  \"batches\": " << batches << ",\n";
  out << "  \"dim\": " << dim << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"simd_available\": " << (Avx2Available() ? "true" : "false")
      << ",\n";
  out << "  \"repeats\": " << kRepeats << ",\n";
  WriteRows(out, "throughput", rows, /*with_sampler=*/true);
  WriteRows(out, "sharding", shard_rows, /*with_sampler=*/false);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  \"incremental_sampler_speedup_1t\": %.3f,\n",
                incremental_speedup);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"pure_decay_speedup_vs_ingest_1t\": %.3f\n",
                pure_decay_speedup);
  out << buf;
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (incremental sampler x%.2f, pure decay x%.2f)\n",
              out_path.c_str(), incremental_speedup, pure_decay_speedup);
  return 0;
}

}  // namespace
}  // namespace actor

int main(int argc, char** argv) { return actor::Main(argc, argv); }
