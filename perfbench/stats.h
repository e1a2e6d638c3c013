// Sample sets, process resource usage and the metric report the harness
// prints (a human-readable table, then one JSON line).
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// A set of measurements. Quantiles use the nearest-rank rule, so a
/// quantile q of n samples has n - ceil(q * n) samples beyond it.
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
  }
  double Median() const { return Quantile(0.5); }
  double Sum() const {
    double s = 0.0;
    for (double x : values_) s += x;
    return s;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / size(); }

 private:
  std::vector<double> values_;
};

/// CPU time and context switches of the whole process.
struct Usage {
  double cpu_s = 0.0;
  int64_t ctx_switches = 0;
  double max_rss_mb = 0.0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
    u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
    u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;  // measurements behind the value
};

/// The metrics of one run, end-to-end and per-layer.
class Report {
 public:
  void EndToEnd(std::string name, double value, std::string unit,
                int64_t samples) {
    end_to_end_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Layer(std::string name, double value, std::string unit,
             int64_t samples) {
    layer_.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Puts the metrics in the order of `end_to_end` and `layer` and takes
  /// their units from there. A per-layer metric nobody reported is a layer
  /// the workload does not exercise: it reads 0 from 0 samples. A missing
  /// end-to-end metric is an error (returns false).
  bool Complete(std::span<const MetricDef> end_to_end,
                std::span<const MetricDef> layer) {
    bool ok = true, unused = true;
    end_to_end_ = Ordered(end_to_end_, end_to_end, &ok);
    layer_ = Ordered(layer_, layer, &unused);
    return ok;
  }

  /// Prints the metrics of the chosen tier (end-to-end, or per-layer when
  /// `traced`) as table rows with their sample counts, then the result
  /// object as the last line.
  void Print(bool traced, bool correct, int64_t attempted,
             int64_t failed) const {
    for (const Metric& m : traced ? layer_ : end_to_end_) {
      std::printf("%-36s %16.6g %-6s n=%lld\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
    std::printf("%s\n", ResultJson(traced, correct, attempted, failed).c_str());
    std::fflush(stdout);
  }

  /// Writes both tiers, with sample counts, as one JSON object.
  bool WriteDetail(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{");
    const char* sep = "";
    for (const auto* group : {&end_to_end_, &layer_}) {
      for (const Metric& m : *group) {
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::fprintf(f,
                     "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                     "\"samples\": %lld}",
                     sep, m.name.c_str(), value, m.unit.c_str(),
                     static_cast<long long>(m.samples));
        sep = ",";
      }
    }
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::string ResultJson(bool traced, bool correct, int64_t attempted,
                         int64_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    const auto& chosen = traced ? layer_ : end_to_end_;
    char buf[96];
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(chosen[i].value) ? chosen[i].value : 0.0);
      json += (i ? ", \"" : "\"") + chosen[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + chosen[i].unit + "\"}";
    }
    json += "}}";
    return json;
  }

  static std::vector<Metric> Ordered(const std::vector<Metric>& have,
                                     std::span<const MetricDef> defs,
                                     bool* ok) {
    std::vector<Metric> out;
    for (const MetricDef& def : defs) {
      Metric m{def.name, 0.0, def.unit, 0};
      bool found = false;
      for (const Metric& h : have) {
        if (h.name == def.name) {
          m.value = h.value;
          m.samples = h.samples;
          found = true;
        }
      }
      if (!found) *ok = false;
      out.push_back(std::move(m));
    }
    return out;
  }

  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
