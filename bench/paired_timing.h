// Paired wall-clock comparison for the bench gates.
//
// A gate compares two sides of one operation (say, a crossing without and
// with two disabled tracepoints). Best-of-N per side lets one quiet window
// on one side decide the verdict, so a loaded host fails a gate on noise
// alone. Here the two sides run in alternating short windows (A B, then
// B A, ...), each pair gives one B/A ratio, and the gate reads the median
// ratio: a noise burst spoils the one or two pairs it lands in, while a real
// slowdown of B moves every pair.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/compiler.h"

namespace lxfibench {

struct PairedTiming {
  double a_ns = 0;   // median A window, per op
  double b_ns = 0;   // median B window, per op
  double ratio = 0;  // median of the per-pair B/A ratios
  double OverheadPct() const { return (ratio - 1.0) * 100.0; }
};

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// `sample(i)` takes pair i: an (A, B) timing measured back to back.
template <typename Sample>
PairedTiming MedianPairedRatio(int pairs, Sample&& sample) {
  std::vector<double> a, b, ratio;
  for (int i = 0; i < pairs; ++i) {
    std::pair<double, double> ab = sample(i);
    a.push_back(ab.first);
    b.push_back(ab.second);
    ratio.push_back(ab.second / ab.first);
  }
  return PairedTiming{Median(a), Median(b), Median(ratio)};
}

// Per-op time of one window of `ops` calls of `op(i)`. Each side gets its
// own out-of-line loop, so one side's code never shapes the other's
// register allocation; an op marked always_inline compiles into it whole.
template <typename Op>
LXFI_NOINLINE double TimeWindow(Op& op, uint64_t ops) {
  uint64_t t0 = lxfi::MonotonicNowNs();
  for (uint64_t i = 0; i < ops; ++i) {
    op(i);
  }
  return static_cast<double>(lxfi::MonotonicNowNs() - t0) / static_cast<double>(ops);
}

// Times `a(i)` and `b(i)` over `ops` iterations per window, after one
// warm-up window each; odd pairs run B first so drift favors neither side.
template <typename A, typename B>
PairedTiming TimePaired(int pairs, uint64_t ops, A& a, B& b) {
  TimeWindow(a, ops);
  TimeWindow(b, ops);
  std::vector<std::pair<double, double>> samples;
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      double ta = TimeWindow(a, ops);
      samples.emplace_back(ta, TimeWindow(b, ops));
    } else {
      double tb = TimeWindow(b, ops);
      samples.emplace_back(TimeWindow(a, ops), tb);
    }
  }
  return MedianPairedRatio(pairs, [&samples](int i) { return samples[i]; });
}

}  // namespace lxfibench
