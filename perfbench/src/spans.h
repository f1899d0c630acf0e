// In-memory span recorder for the traced benchmark run. Every call the traced pipeline makes
// into a layer of the system is wrapped in a span (name "layer.operation", start, end, parent
// span, window and boundary id). Spans stay in memory while the run measures and are written
// out once it ends, so recording costs two steady_clock reads and one vector append per span.
//
// Calls too frequent to span one by one (a transport Send per wire frame) are folded into an
// aggregate child span: the parent's layer code accumulates their time, and the aggregate is
// recorded under the enclosing span with the summed duration and the call count.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // "layer.operation"; string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    // index into the recorder's spans, -1 for a root
  int32_t window = -1;    // window index in the run (-1: set-up)
  int32_t boundary = 0;   // segment boundary the span belongs to (1-based; 0: window open)
  uint32_t calls = 1;     // > 1 for aggregate spans
};

class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 16); }

  void set_window(int32_t window) { window_ = window; }
  void set_boundary(int32_t boundary) { boundary_ = boundary; }

  int32_t Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.window = window_;
    span.boundary = boundary_;
    spans_.push_back(span);
    const auto id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    spans_[static_cast<size_t>(id)].start_ns = NowNs();
    return id;
  }

  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  // Records `ns` of time spent in `calls` calls under the innermost open span.
  void Aggregate(const char* name, int64_t ns, uint32_t calls) {
    if (calls == 0 || open_.empty()) {
      return;
    }
    Span span;
    span.name = name;
    span.parent = open_.back();
    span.window = window_;
    span.boundary = boundary_;
    span.start_ns = spans_[static_cast<size_t>(span.parent)].start_ns;
    span.end_ns = span.start_ns + ns;
    span.calls = calls;
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the durations of its direct children.
  std::vector<int64_t> SelfTimesNs() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
      }
    }
    return self;
  }

  // Tab-separated dump: id, parent, window, boundary, name, start_ns, end_ns, calls, after one
  // "# key=value ..." line carrying `header`. Start/end are relative to the first span so the
  // file reads as one run's timeline.
  bool WriteTsv(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "# %s\n", header.c_str());
    std::fprintf(f, "id\tparent\twindow\tboundary\tname\tstart_ns\tend_ns\tcalls\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%d\t%d\t%s\t%lld\t%lld\t%u\n", i, s.parent, s.window,
                   s.boundary, s.name, static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin), s.calls);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int32_t window_ = -1;
  int32_t boundary_ = 0;
};

// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
