// Measurement primitives of the benchmark: the clock, the seeded
// input generator, the per-op latency histogram, peak RSS and the host
// parallelism probe.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

namespace lxbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// SplitMix64. The benchmark owns its generator so that its inputs depend
// only on the seed and on this file, never on the system under test.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream) : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream << 32)) {
    Next();
  }

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// Fills `out` with `n` seeded payload bytes.
void FillPattern(uint64_t seed, uint64_t stream, uint8_t* out, size_t n);

// Log-linear latency histogram with 64 sub-buckets per power of two (exact
// below 128 ns, buckets 1.6% wide above, interpolated by rank within a
// bucket).
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
  }
  uint64_t count() const { return count_; }

  // The q-quantile (0 < q < 1) in ns; 0 when empty.
  double Quantile(double q) const;
  // Samples in buckets above the q-quantile's bucket.
  uint64_t Beyond(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = 1ull << kSubBits;
  static constexpr uint64_t kMaxNs = (1ull << 40) - 1;
  // Indexes reach (40 - kSubBits + 1) * kSub + kSub - 1 at kMaxNs.
  static constexpr size_t kBuckets = (40 - kSubBits + 2) * kSub;

  static size_t Index(uint64_t v) {
    if (v > kMaxNs) {
      v = kMaxNs;
    }
    if (v < 2 * kSub) {
      return static_cast<size_t>(v);
    }
    int e = std::bit_width(v) - (kSubBits + 1);
    return static_cast<size_t>(static_cast<uint64_t>(e) * kSub + (v >> e));
  }
  // Bucket holding the rank-th smallest sample (1-based), and the samples
  // in the buckets below it.
  size_t BucketOfRank(uint64_t rank, uint64_t* below) const;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// Process peak resident set (VmHWM) in MiB; 0 if unavailable.
double PeakRssMiB();

// Host record: online CPUs, how many of them a spinning-thread probe
// actually ran in parallel (nproc x one-thread time / all-threads time),
// and the CPU the benchmark pinned itself to. The development host's vCPUs
// differ in speed: one of four ran a fixed spin at half the speed of the
// others for minutes at a time, and an unpinned run that lands on it is
// twice as slow. ProbeHost times the spin on every allowed CPU and pins the
// process to the fastest before anything is set up.
struct HostRecord {
  int nproc = 0;
  double spin_parallelism = 0;
  int pinned_cpu = -1;
  std::vector<double> cpu_spin_us;  // per allowed CPU, in CPU order
};
HostRecord ProbeHost();

// Times a short fixed spin on every allowed CPU and pins the calling
// thread to the fastest; the per-CPU times go to *spin_us when non-null.
// Returns the CPU, or -1 when affinity is unavailable.
int PinToFastestCpu(std::vector<double>* spin_us);

// Median of a non-empty sample.
double Median(std::vector<double> v);

}  // namespace lxbench
