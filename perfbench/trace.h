// In-memory span recorder for the benchmark's traced runs.
//
// A span is recorded around each call the harness makes into a library
// module: name ("<layer>.<call>"), start, end, parent span and a request or
// batch id. Each thread appends to its own buffer, so recording takes no
// lock on the hot path; buffers are merged and written out after the run.
// With tracing off a Span costs one relaxed atomic load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
inline int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t request = -1;
  int thread = 0;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(SpanRecord span) {
    thread_local std::vector<SpanRecord>* buffer = nullptr;
    thread_local int thread_index = 0;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
      buffer = buffers_.back().get();
      buffer->reserve(1 << 14);
      thread_index = static_cast<int>(buffers_.size()) - 1;
    }
    span.thread = thread_index;
    buffer->push_back(span);
  }

  /// All spans recorded so far, by thread then start order. Call after
  /// every recording thread has been joined.
  std::vector<SpanRecord> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
    return all;
  }

  /// The calling thread's current span id (parent of the next span).
  static uint64_t& Current() {
    thread_local uint64_t current = 0;
    return current;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/// RAII span: records [construction, destruction) when tracing is on.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return;
    on_ = true;
    record_.name = name;
    record_.request = request;
    record_.id = tracer.NextId();
    record_.parent = Tracer::Current();
    Tracer::Current() = record_.id;
    record_.start_ns = NowNs();
  }
  ~Span() {
    if (!on_) return;
    record_.end_ns = NowNs();
    Tracer::Current() = record_.parent;
    Tracer::Get().Record(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
  SpanRecord record_;
};

/// Per-name durations and per-layer self time derived from a span set.
/// A span's self time is its duration minus its children's durations
/// (children run on the span's own thread, nested inside it).
struct SpanSummary {
  std::map<std::string, std::vector<double>> durations_s;  // by span name
  std::map<std::string, double> layer_self_s;              // by layer
};

inline SpanSummary Summarize(const std::vector<SpanRecord>& spans,
                             int64_t from_ns) {
  std::unordered_map<uint64_t, double> child_s;
  child_s.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) {
      child_s[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  SpanSummary out;
  for (const SpanRecord& s : spans) {
    if (s.start_ns < from_ns) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const std::string name = s.name;
    out.durations_s[name].push_back(dur);
    const auto it = child_s.find(s.id);
    const double self = dur - (it == child_s.end() ? 0.0 : it->second);
    out.layer_self_s[name.substr(0, name.find('.'))] += self > 0 ? self : 0.0;
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
