#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {
Clock::time_point Epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch())
      .count();
}

Clock::time_point TimePointOf(int64_t ns) {
  return Epoch() + std::chrono::nanoseconds(ns);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Report& r) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << JsonEscape(r.metrics[i].first) << "\": {\"value\": "
       << Num(r.metrics[i].second) << ", \"unit\": \""
       << JsonEscape(r.units[i].second) << "\"}";
  }
  os << "}";
  return os.str();
}

std::string PairsJson(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << JsonEscape(pairs[i].first) << "\": \""
       << JsonEscape(pairs[i].second) << "\"";
  }
  os << "}";
  return os.str();
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.emplace_back(name, value);
  units.emplace_back(name, unit);
}

void Report::Config(const std::string& key, const std::string& value) {
  config.emplace_back(key, value);
}

void Report::Config(const std::string& key, int64_t value) {
  config.emplace_back(key, std::to_string(value));
}

void Report::Note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

void Report::Samples(const std::string& key,
                     const std::vector<double>& values) {
  std::string joined;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", joined.empty() ? "" : " ", v);
    joined += buf;
  }
  notes.emplace_back(key, joined);
}

int64_t Report::attempted() const {
  int64_t n = 0;
  for (const Phase& p : phases) n += p.sent;
  return n;
}

int64_t Report::failed() const {
  int64_t n = mismatches;
  for (const Phase& p : phases) n += p.failed;
  return n;
}

std::string Report::DetailJson() const {
  std::ostringstream os;
  os << "{\"config\": " << PairsJson(config) << ", \"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i) os << ", ";
    os << "{\"name\": \"" << JsonEscape(phases[i].name)
       << "\", \"sent\": " << phases[i].sent << ", \"ok\": " << phases[i].ok
       << ", \"failed\": " << phases[i].failed << "}";
  }
  os << "], \"mismatches\": " << mismatches
     << ", \"notes\": " << PairsJson(notes)
     << ", \"metrics\": " << MetricsJson(*this) << "}";
  return os.str();
}

std::string Report::ResultJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (mismatches == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<int64_t>(attempted(), 1)
     << ", \"failed\": " << failed() << ", \"metrics\": " << MetricsJson(*this)
     << "}";
  return os.str();
}

}  // namespace perfbench
