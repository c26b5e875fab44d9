// Result bookkeeping shared by every workload: named metrics with units,
// per-phase sent/ok/failed counts, the run configuration, and the JSON
// lines the benchmark prints.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds on the steady clock since the first call in the process.
int64_t NowNs();
// The steady-clock time point of a NowNs() reading.
Clock::time_point TimePointOf(int64_t ns);

double Median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

struct Phase {
  std::string name;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

struct Report {
  // Workload outcome.
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> units;
  std::vector<Phase> phases;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, std::string>> notes;
  int64_t mismatches = 0;

  void Add(const std::string& name, double value, const std::string& unit);
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, int64_t value);
  void Note(const std::string& key, const std::string& value);
  // Records the samples a median was taken over, as a note.
  void Samples(const std::string& key, const std::vector<double>& values);
  void AddPhase(const Phase& phase) { phases.push_back(phase); }

  int64_t attempted() const;
  int64_t failed() const;  // failed phase operations plus mismatches

  // One JSON object with everything above (the detailed record).
  std::string DetailJson() const;
  // The contract's last line: correct / attempted / failed / metrics.
  std::string ResultJson() const;
};

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
