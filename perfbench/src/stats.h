#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// A failed operation's latency: it never completed, so it misses every
/// limit. Sorts after every finite sample.
inline constexpr double kInfinite = std::numeric_limits<double>::infinity();

/// Samples that must lie strictly beyond a percentile before it is
/// reported; below that the percentile is the run's noise, not a measure.
inline constexpr size_t kTailSupport = 10;

/// One reported percentile: what was asked for, what the sample count
/// supported, and the nearest-rank value at the supported percentile.
struct Percentile {
  double requested = 0;  ///< e.g. 99
  double used = 0;       ///< highest supported percentile <= requested
  double value = 0;      ///< nearest-rank sample (kInfinite for failures)
  size_t samples = 0;    ///< sample count the percentile was taken over
  size_t rank = 0;       ///< 1-based nearest rank of `value`
  bool supported = false;  ///< false when fewer than kTailSupport+1 samples
};

/// Nearest-rank index (1-based) of percentile `p` over `n` samples: the
/// smallest rank r with r/n >= p/100. Always in [1, n] for n >= 1.
inline size_t NearestRank(double p, size_t n) {
  if (n == 0) return 0;
  // The epsilon keeps exact products (e.g. 50% of 10) from rounding up.
  double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// The percentile of `sorted` (ascending) at `requested`, lowered to the
/// highest percentile with at least kTailSupport samples beyond its rank.
inline Percentile PercentileOf(const std::vector<double>& sorted,
                               double requested) {
  Percentile out;
  out.requested = requested;
  out.samples = sorted.size();
  size_t n = sorted.size();
  if (n <= kTailSupport) return out;  // no rank has 10 samples beyond it
  size_t rank = NearestRank(requested, n);
  size_t max_rank = n - kTailSupport;
  out.used = requested;
  if (rank > max_rank) {
    rank = max_rank;
    // The largest percentile whose nearest rank is max_rank.
    out.used = 100.0 * static_cast<double>(max_rank) / static_cast<double>(n);
  }
  out.rank = rank;
  out.value = sorted[rank - 1];
  out.supported = true;
  return out;
}

/// Sorts a copy and takes the percentile (see PercentileOf).
inline Percentile PercentileOfUnsorted(std::vector<double> samples,
                                       double requested) {
  std::sort(samples.begin(), samples.end());
  return PercentileOf(samples, requested);
}

/// Width of the sub-windows closed-loop throughput is measured over.
inline constexpr int64_t kSubWindowNs = 500'000'000;

/// The sub-window of a run holding time `t_ns`, for a measurement window
/// that began at `begin_ns` and whose first sub-window is `first`.
inline size_t SubWindowOf(int64_t t_ns, int64_t begin_ns, size_t first) {
  int64_t offset = t_ns > begin_ns ? t_ns - begin_ns : 0;
  return first + static_cast<size_t>(offset / kSubWindowNs);
}

/// Samples per latency group: the fewest in which p99 has kTailSupport
/// samples beyond it.
inline constexpr size_t kGroupSize = 1000;

/// Latency samples in the order their events started, cut into
/// consecutive groups of kGroupSize. The reported percentile is the
/// median over groups of each group's percentile. On a shared machine the
/// run is hit by stalls of a few milliseconds (host preemption); a stall
/// moves the percentile of the few groups it falls in, and the median
/// over groups hardly at all. The whole-run percentile goes into the
/// details.
class GroupedSamples {
 public:
  void Add(double value) { samples_.push_back(value); }
  size_t size() const { return samples_.size(); }
  size_t groups() const { return samples_.size() / kGroupSize; }

  /// The percentile over every sample of the run.
  Percentile Overall(double requested) const {
    return PercentileOfUnsorted(samples_, requested);
  }
  /// The median over full groups of each group's percentile (the whole
  /// run's percentile when there is no full group). `rank` reports the
  /// number of groups.
  Percentile MedianOfGroups(double requested) const;

 private:
  std::vector<double> samples_;
};

/// Work completed per second, by sub-window: each closed-loop round adds
/// its work and its loop time (its start to the next round's start) to
/// the sub-window it started in. Reported as the median over sub-windows.
class RateBins {
 public:
  void Add(size_t bin, double work, int64_t ns) {
    if (work_.size() <= bin) {
      work_.resize(bin + 1, 0);
      ns_.resize(bin + 1, 0);
    }
    work_[bin] += work;
    ns_[bin] += ns;
  }
  size_t bins() const { return work_.size(); }
  /// Median over sub-windows with loop time of work per second.
  double MedianRate() const;

 private:
  std::vector<double> work_;
  std::vector<int64_t> ns_;
};

/// The middle value (mean of the two middle values for an even count);
/// 0 for no samples. Used for repeated set-up times, where every sample
/// is reported and the tail rule does not apply.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

inline double RateBins::MedianRate() const {
  std::vector<double> rates;
  for (size_t i = 0; i < work_.size(); ++i) {
    if (ns_[i] > 0) rates.push_back(work_[i] / (static_cast<double>(ns_[i]) / 1e9));
  }
  return Median(rates);
}

inline Percentile GroupedSamples::MedianOfGroups(double requested) const {
  if (groups() == 0) return Overall(requested);
  Percentile out;
  out.requested = requested;
  out.samples = samples_.size();
  out.used = requested;
  std::vector<double> values;
  for (size_t g = 0; g < groups(); ++g) {
    auto first = samples_.begin() + static_cast<std::ptrdiff_t>(g * kGroupSize);
    Percentile p = PercentileOfUnsorted(
        std::vector<double>(first, first + kGroupSize), requested);
    values.push_back(p.value);
    out.used = std::min(out.used, p.used);
  }
  out.value = Median(values);
  out.rank = values.size();
  out.supported = true;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
