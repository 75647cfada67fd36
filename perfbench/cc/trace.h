#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are opened and
/// closed by the benchmark around its own calls into each engine layer
/// (the engine carries no tracing of its own yet), kept in memory while
/// the run measures, and written out once at exit. Single-threaded: only
/// the load-generating thread records spans.
class Tracer {
 public:
  struct Span {
    uint32_t name;
    int64_t parent;  ///< Index of the enclosing span, -1 for a root.
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Per-name aggregate. Self time is a span's duration minus the part
  /// its child spans cover.
  struct LayerTime {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<double> dur_ns;
  };

  uint32_t Intern(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.push_back(name);
    return ids_[name] = static_cast<uint32_t>(names_.size() - 1);
  }

  size_t Begin(uint32_t name) {
    const int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(Span{name, parent, NowNs(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t span) {
    spans_[span].end_ns = NowNs();
    open_.pop_back();
  }

  /// Aggregates the spans whose root span is named `root`.
  std::map<std::string, LayerTime> Aggregate(const std::string& root) const {
    std::vector<int64_t> self(spans_.size());
    std::vector<size_t> root_of(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      root_of[i] = i;
      if (spans_[i].parent >= 0) {
        const size_t p = static_cast<size_t>(spans_[i].parent);
        self[p] -= spans_[i].end_ns - spans_[i].start_ns;
        root_of[i] = root_of[p];  // Parents precede their children.
      }
    }
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (names_[spans_[root_of[i]].name] != root) continue;
      LayerTime& lt = out[names_[spans_[i].name]];
      const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      lt.total_ns += dur;
      lt.self_ns += self[i];
      lt.dur_ns.push_back(static_cast<double>(dur));
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), with
  /// each span's index and parent index in args. Writes the first
  /// `max_spans` spans and counts the rest in "droppedSpans".
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    const size_t n = std::min(max_spans, spans_.size());
    std::fprintf(f, "{\"droppedSpans\":%zu,\"traceEvents\":[\n", spans_.size() - n);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld}}\n",
                   i == 0 ? "" : ",", names_[s.name].c_str(),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   static_cast<long long>(s.parent));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }

 private:
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Opens a span for the enclosing scope; a null tracer records nothing,
/// so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name)
      : tracer_(tracer), span_(tracer ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
