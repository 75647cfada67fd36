#include "telemetry/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace tcq {

uint64_t Histogram::ApproxQuantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += bucket(i);
    if (static_cast<double>(cumulative) >= target) return BucketBound(i);
  }
  return BucketBound(kNumBuckets - 1);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    TCQ_CHECK(it->second.kind == MetricKind::kCounter)
        << "metric '" << name << "' already registered with another kind";
    return it->second.counter.get();
  }
  Entry e;
  e.kind = MetricKind::kCounter;
  e.counter = std::make_unique<Counter>();
  Counter* out = e.counter.get();
  metrics_.emplace(name, std::move(e));
  return out;
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    TCQ_CHECK(it->second.kind == MetricKind::kGauge)
        << "metric '" << name << "' already registered with another kind";
    return it->second.gauge.get();
  }
  Entry e;
  e.kind = MetricKind::kGauge;
  e.gauge = std::make_unique<Gauge>();
  Gauge* out = e.gauge.get();
  metrics_.emplace(name, std::move(e));
  return out;
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    TCQ_CHECK(it->second.kind == MetricKind::kHistogram)
        << "metric '" << name << "' already registered with another kind";
    return it->second.histogram.get();
  }
  Entry e;
  e.kind = MetricKind::kHistogram;
  e.histogram = std::make_unique<Histogram>();
  Histogram* out = e.histogram.get();
  metrics_.emplace(name, std::move(e));
  return out;
}

Counter* MetricRegistry::GetCounter(const std::string& family, size_t index,
                                    const std::string& metric) {
  return GetCounter(family + "." + std::to_string(index) + "." + metric);
}

Gauge* MetricRegistry::GetGauge(const std::string& family, size_t index,
                                const std::string& metric) {
  return GetGauge(family + "." + std::to_string(index) + "." + metric);
}

std::vector<MetricSample> MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(metrics_.size());
  for (const auto& [name, e] : metrics_) {
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricKind::kGauge:
        s.value = static_cast<double>(e.gauge->value());
        break;
      case MetricKind::kHistogram:
        s.value = static_cast<double>(e.histogram->count());
        s.sum = static_cast<double>(e.histogram->sum());
        s.p50 = static_cast<double>(e.histogram->ApproxQuantile(0.5));
        s.p99 = static_cast<double>(e.histogram->ApproxQuantile(0.99));
        break;
    }
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration is already name-sorted.
}

size_t MetricRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {
/// Formats a double that is logically an integer count without a trailing
/// ".000000", keeping snapshots diff-friendly.
std::string NumberJson(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return std::to_string(v);
}
}  // namespace

void AppendSampleJson(const MetricSample& sample, std::string* out) {
  *out += "\"" + JsonEscape(sample.name) + "\":";
  if (sample.kind == MetricKind::kHistogram) {
    *out += "{\"count\":" + NumberJson(sample.value) +
            ",\"sum\":" + NumberJson(sample.sum) +
            ",\"p50\":" + NumberJson(sample.p50) +
            ",\"p99\":" + NumberJson(sample.p99) + "}";
  } else {
    *out += NumberJson(sample.value);
  }
}

std::string MetricRegistry::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const MetricSample& s : Snapshot()) {
    if (!first) out += ",";
    first = false;
    AppendSampleJson(s, &out);
  }
  out += "}";
  return out;
}

}  // namespace tcq
