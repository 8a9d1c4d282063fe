#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <utility>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// 0: end-to-end metrics with tracing off. 1: traced windows alternate
  /// with untraced ones and per-layer metrics are reported.
  bool trace = false;
  /// Small fleet, short run: exercises every correctness check in seconds.
  bool smoke = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_path;
};

/// Deterministic generator (splitmix64): every input derives from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports: the correctness verdict with the reasons
/// for any mismatch, attempted/failed operation counts, the end-to-end and
/// per-layer metrics, and details (sample counts, parameters) printed on
/// the line before the result.
struct Report {
  bool correct = true;
  std::vector<std::string> mismatches;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, std::string>> params;

  void Mismatch(std::string what) {
    correct = false;
    if (mismatches.size() < 20) mismatches.push_back(std::move(what));
  }
  void E2e(std::string name, double value, std::string unit) {
    e2e.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Sets a per-layer metric, replacing an earlier value of that name.
  void Layer(std::string name, double value, std::string unit);
  void Detail(std::string name, double value, std::string unit) {
    detail.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Param(std::string name, double value);
  void Param(std::string name, const std::string& value);
  /// Reports a latency percentile: the median over the run's groups of
  /// each group's nearest-rank percentile, with the sample count, the
  /// group count, the percentile used and the whole-run percentile as
  /// details.
  void E2eLatency(const std::string& name, const GroupedSamples& samples,
                  double requested, const std::string& unit);
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Prints the detail line and then, last, the result line
/// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics
/// when `traced` is false, per-layer metrics when it is true.
void PrintReport(const Report& report, const Options& options, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
