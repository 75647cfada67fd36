#ifndef TCQ_TELEMETRY_METRICS_H_
#define TCQ_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tcq {

/// Engine-wide telemetry (ROADMAP: observe before you optimize; the
/// paper's §4.3 adaptivity loop is driven by exactly these statistics).
///
/// Design contract (DESIGN.md §10):
///  * Updates on the dataflow hot path are allocation-free: a relaxed
///    atomic add for counters/gauges, two relaxed adds plus one for the
///    bucket for histograms. Registration (naming) happens once at setup
///    and is the only place that locks or allocates.
///  * The registry is process-global and append-only: a metric, once
///    registered, lives for the process (Prometheus-style). Components
///    cache the returned pointer and never look names up again.
///  * Purely observational call sites compile out under
///    -DTCQ_DISABLE_METRICS (the TCQ_METRIC macro below); counters that
///    double as engine state (eddy routing statistics, SteM stats views)
///    stay live in every build because adaptivity reads them.

/// Wraps one relaxed atomic so that per-component statistics structs can
/// keep field-style call sites (`++s.routed`, `s.produced += n`) while
/// becoming thread-safe and snapshot-consistent. Copying reads the source
/// atomically (used by snapshot/view structs; concurrent updates during a
/// copy land in whichever side the race favors — fine for statistics).
class Counter {
 public:
  constexpr Counter() = default;
  Counter(const Counter& o) : v_(o.value()) {}
  Counter& operator=(const Counter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }

  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  /// Field-idiom shims so existing stats call sites keep reading naturally.
  Counter& operator++() {
    Add(1);
    return *this;
  }
  Counter& operator+=(uint64_t n) {
    Add(n);
    return *this;
  }
  operator uint64_t() const { return value(); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A settable signed instantaneous value (queue depth, active queries).
class Gauge {
 public:
  constexpr Gauge() = default;
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket latency/size histogram: bucket i counts values whose
/// bit-width is i (0, 1, 2-3, 4-7, ...), so Record() is branch-light and
/// allocation-free. 40 buckets cover values up to ~5e11.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  constexpr Histogram() = default;

  void Record(uint64_t v) {
    size_t b = BucketOf(v);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound of values landing in bucket i (inclusive).
  static uint64_t BucketBound(size_t i) {
    return i == 0 ? 0 : (uint64_t{1} << i) - 1;
  }
  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v != 0 && b + 1 < kNumBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  /// Approximate quantile (q in [0,1]): the bucket upper bound at which the
  /// cumulative count crosses q * count. Exact for 0/1-valued data, within
  /// a factor of 2 otherwise — good enough for queue depths and hop counts.
  uint64_t ApproxQuantile(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind;
  double value = 0.0;  ///< Counter/gauge value; histogram count.
  // Histogram extras (kind == kHistogram only).
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Process-wide, thread-safe metric registry. Names follow the scheme
/// `tcq.<component>.<metric>` (lowercase, dot-separated). Re-registering a
/// name returns the existing metric (so same-named components — e.g. two
/// SteMs called "left" in different tests — share an aggregate); asking
/// for a name under a different kind is a programming error and aborts.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-global registry the engine instruments against.
  static MetricRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Indexed-family access for per-shard / per-partition metrics:
  /// GetCounter("tcq.shard", 3, "routed") names "tcq.shard.3.routed".
  /// Keeps the family naming scheme in one place so dashboards can glob
  /// `tcq.shard.*.<metric>` reliably.
  Counter* GetCounter(const std::string& family, size_t index,
                      const std::string& metric);
  Gauge* GetGauge(const std::string& family, size_t index,
                  const std::string& metric);

  /// Consistent-enough snapshot of every registered metric, sorted by
  /// name. (Each value is read atomically; the set is cut under the
  /// registration lock.)
  std::vector<MetricSample> Snapshot() const;

  /// Snapshot as a JSON object: {"name": value, ...}; histograms expand to
  /// {"count":…,"sum":…,"p50":…,"p99":…}.
  std::string ToJson() const;

  size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

/// Appends `"name": <json>` material for one sample to `out` (shared by
/// the registry and Server::SnapshotMetrics). `out` must be inside an
/// object; the caller manages commas.
void AppendSampleJson(const MetricSample& sample, std::string* out);

/// Escapes a string for inclusion in JSON (quotes added by the caller).
std::string JsonEscape(const std::string& s);

/// Wraps a purely observational instrumentation expression so that
/// -DTCQ_DISABLE_METRICS compiles it out entirely (the CI overhead job
/// builds both ways and bounds the enabled-mode cost).
#ifdef TCQ_METRICS_DISABLED
#define TCQ_METRIC(expr) ((void)0)
#else
#define TCQ_METRIC(expr) (expr)
#endif

}  // namespace tcq

#endif  // TCQ_TELEMETRY_METRICS_H_
