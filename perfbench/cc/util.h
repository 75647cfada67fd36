#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finalizer: the row fingerprint of the reference check.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// splitmix64 stream. Written out rather than taken from <random> so the
/// inputs a seed produces do not depend on the standard library build.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return Mix64(s_ += 0x9E3779B97F4A7C15ULL); }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The best of a sample: its maximum if higher is better, else its minimum.
inline double Best(const std::vector<double>& v, bool higher_is_better) {
  return higher_is_better ? Quantile(v, 1.0) : Quantile(v, 0.0);
}

/// Resets this process's peak resident set (VmHWM) to its resident set
/// now, so VmHWM then reads the peak since. Where the kernel refuses the
/// reset, VmHWM keeps reading the peak since the process started.
inline void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// A memory field of this process's /proc status, in MiB: "VmRSS" for
/// the resident set now, "VmHWM" for its peak so far.
inline double ProcStatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  const std::string key = field + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Flat JSON object writer for the result line (numbers and strings only).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    std::ostringstream s;
    s.precision(17);
    s << (std::isfinite(v) ? v : 0.0);
    return Raw(key, s.str());
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    std::string esc = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += c;
    }
    return Raw(key, esc + "\"");
  }
  JsonObject& Nums(const std::string& key, const std::vector<double>& v) {
    std::string arr = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      std::ostringstream e;
      e.precision(6);
      e << (std::isfinite(v[i]) ? v[i] : 0.0);
      if (i != 0) arr += ",";
      arr += e.str();
    }
    return Raw(key, arr + "]");
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
