// Unit tests of the benchmark's statistics (nearest-rank percentiles, the
// ten-samples-beyond rule, failures as infinite latency, medians and
// group medians, sub-windows) and of the tracer's self-time and coverage
// accounting. Exits non-zero if any expectation fails.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> Range(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

void TestNearestRank() {
  EXPECT(perfbench::NearestRank(50, 10) == 5);
  EXPECT(perfbench::NearestRank(50, 11) == 6);
  EXPECT(perfbench::NearestRank(99, 100) == 99);
  EXPECT(perfbench::NearestRank(99, 1000) == 990);
  EXPECT(perfbench::NearestRank(0, 7) == 1);
  EXPECT(perfbench::NearestRank(100, 7) == 7);
  EXPECT(perfbench::NearestRank(50, 0) == 0);
}

void TestSupportedPercentile() {
  // 1000 samples: rank 990 leaves exactly 10 beyond, so p99 is reported.
  auto p = perfbench::PercentileOf(Range(1000), 99);
  EXPECT(p.supported);
  EXPECT(p.used == 99);
  EXPECT(p.rank == 990);
  EXPECT(p.value == 990);
  EXPECT(p.samples == 1000);

  auto median = perfbench::PercentileOf(Range(1000), 50);
  EXPECT(median.value == 500);
}

void TestUnsupportedPercentileFallsBack() {
  // 100 samples: p99 (rank 99) has 1 sample beyond it; the highest
  // supported rank is 90, i.e. p90.
  auto p = perfbench::PercentileOf(Range(100), 99);
  EXPECT(p.supported);
  EXPECT(p.rank == 90);
  EXPECT(p.value == 90);
  EXPECT(std::fabs(p.used - 90.0) < 1e-9);
  // The fallback percentile's own nearest rank is the rank reported.
  EXPECT(perfbench::NearestRank(p.used, 100) == p.rank);

  // 10 samples support nothing.
  auto none = perfbench::PercentileOf(Range(10), 50);
  EXPECT(!none.supported);
  // 11 samples support exactly rank 1.
  auto one = perfbench::PercentileOf(Range(11), 50);
  EXPECT(one.supported && one.rank == 1 && one.value == 1);
}

void TestFailuresCountAsInfinite() {
  std::vector<double> samples = Range(980);
  for (int i = 0; i < 20; ++i) samples.push_back(perfbench::kInfinite);
  auto p99 = perfbench::PercentileOfUnsorted(samples, 99);
  EXPECT(std::isinf(p99.value));  // rank 990 lands among the failures
  auto p50 = perfbench::PercentileOfUnsorted(samples, 50);
  EXPECT(p50.value == 500);
}

void TestMedian() {
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
  EXPECT(perfbench::Median({}) == 0);
}

void TestSubWindows() {
  using perfbench::kSubWindowNs;
  EXPECT(perfbench::SubWindowOf(1000, 1000, 0) == 0);
  EXPECT(perfbench::SubWindowOf(1000 + kSubWindowNs - 1, 1000, 0) == 0);
  EXPECT(perfbench::SubWindowOf(1000 + kSubWindowNs, 1000, 3) == 4);
  EXPECT(perfbench::SubWindowOf(0, 1000, 2) == 2);  // before the window
}

void TestGroupedSamples() {
  using perfbench::kGroupSize;
  // Three groups; p99 per group is the group's 990th value: 990, 1980
  // (the disturbed group, scaled by 2) and 990. The median ignores the
  // disturbed group.
  perfbench::GroupedSamples samples;
  for (size_t g = 0; g < 3; ++g) {
    for (size_t i = 1; i <= kGroupSize; ++i) {
      samples.Add(static_cast<double>(i) * (g == 1 ? 2.0 : 1.0));
    }
  }
  samples.Add(1e9);  // a partial group is left out of the median
  EXPECT(samples.groups() == 3);
  auto p99 = samples.MedianOfGroups(99);
  EXPECT(p99.supported);
  EXPECT(p99.value == 990);
  EXPECT(p99.used == 99);
  EXPECT(p99.rank == 3);
  EXPECT(p99.samples == 3 * kGroupSize + 1);
  EXPECT(samples.MedianOfGroups(50).value == 500);
  // The whole run: rank 2971 of 3001 lands in the disturbed group.
  EXPECT(samples.Overall(99).value == 1942);

  // With no full group the whole-run percentile is used, with the
  // tail-support fallback.
  perfbench::GroupedSamples small;
  for (int i = 1; i <= 100; ++i) small.Add(i);
  auto fallback = small.MedianOfGroups(99);
  EXPECT(fallback.supported && fallback.value == 90);
  perfbench::GroupedSamples tiny;
  tiny.Add(1);
  EXPECT(!tiny.MedianOfGroups(50).supported);
}

void TestRateBins() {
  perfbench::RateBins rates;
  rates.Add(0, 100, 1'000'000'000);  // 100/s
  rates.Add(1, 300, 1'000'000'000);  // 300/s
  rates.Add(1, 100, 1'000'000'000);  // window 1 total: 400 over 2 s
  rates.Add(2, 50, 1'000'000'000);   // 50/s
  EXPECT(rates.bins() == 3);
  EXPECT(rates.MedianRate() == 100);
  EXPECT(perfbench::RateBins().MedianRate() == 0);
}

void TestTracerSelfTimeAndCoverage() {
  perfbench::Tracer tracer;
  tracer.set_driver_thread(std::this_thread::get_id());
  {
    perfbench::Tracer::Span off(tracer, perfbench::SpanName::kDrive);
  }
  EXPECT(tracer.spans_recorded() == 0);  // disabled: nothing recorded

  tracer.set_enabled(true);
  int64_t begin = perfbench::NowNs();
  {
    perfbench::Tracer::Span drive(tracer, perfbench::SpanName::kDrive, 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      perfbench::Tracer::Span handler(tracer, perfbench::SpanName::kHandler, 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  int64_t wall = perfbench::NowNs() - begin;
  auto drive = tracer.totals(perfbench::SpanName::kDrive);
  auto handler = tracer.totals(perfbench::SpanName::kHandler);
  EXPECT(drive.count == 1 && handler.count == 1);
  EXPECT(handler.self_ns == handler.total_ns);
  EXPECT(drive.self_ns == drive.total_ns - handler.total_ns);
  EXPECT(drive.self_ns >= 2'000'000);
  // Only the top-level span counts toward coverage, once.
  EXPECT(tracer.driver_top_level_ns() == drive.total_ns);
  EXPECT(tracer.driver_top_level_ns() <= wall);
  EXPECT(tracer.spans_kept() == 2);

  // Bench bookkeeping is recorded but does not count toward coverage.
  {
    perfbench::Tracer::Span check(tracer, perfbench::SpanName::kCheck);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT(tracer.totals(perfbench::SpanName::kCheck).count == 1);
  EXPECT(tracer.driver_top_level_ns() == drive.total_ns);
}

}  // namespace

int main() {
  TestNearestRank();
  TestSupportedPercentile();
  TestUnsupportedPercentileFallsBack();
  TestFailuresCountAsInfinite();
  TestMedian();
  TestSubWindows();
  TestGroupedSamples();
  TestRateBins();
  TestTracerSelfTimeAndCoverage();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_stats_test: all passed\n");
  return 0;
}
