#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); the one clock every benchmark
/// timestamp, span and latency is taken on.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. `parent` is the span that caused it (0 at
/// the root); spans of one round, checkpoint, attach or batch share a
/// `trace_id`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace_id = 0;
  std::string name;  // "<layer>.<call>", e.g. "net.Publish"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark's own code around its calls into each layer; the program
/// itself is not instrumented. Per-record calls are sampled by the caller.
/// Thread-safe. A disabled tracer records nothing and returns id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(std::string_view name, uint64_t parent, uint64_t trace_id,
                  int64_t start_ns, int64_t end_ns);

  /// Opens a span whose end is filled in by End (for parents whose
  /// children are recorded while it is open).
  uint64_t Begin(std::string_view name, uint64_t parent, uint64_t trace_id);
  void End(uint64_t id);

  /// Fresh identifier for a request, batch or round.
  uint64_t NewTraceId() { return next_trace_.fetch_add(1) + 1; }

  std::vector<Span> spans() const;

  /// Writes one JSON object per span, one per line.
  streamline::Status WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_trace_{0};
  mutable streamline::Mutex mu_;
  std::vector<Span> spans_ STREAMLINE_GUARDED_BY(mu_);
};

/// RAII span: records [construction, destruction) when `tracer` is
/// enabled; free otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint64_t parent = 0,
             uint64_t trace_id = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name, parent, trace_id)
                               : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// running past its parent's end is clipped). Parallel to `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: count, total and self time.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
