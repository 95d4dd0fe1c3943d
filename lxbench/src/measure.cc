#include "lxbench/src/measure.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace lxbench {

void FillPattern(uint64_t seed, uint64_t stream, uint8_t* out, size_t n) {
  Rng rng(seed, stream);
  for (size_t i = 0; i < n; i += 8) {
    uint64_t v = rng.Next();
    std::memcpy(out + i, &v, std::min<size_t>(8, n - i));
  }
}

size_t LatencyHistogram::BucketOfRank(uint64_t rank, uint64_t* below) const {
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (seen + buckets_[i] >= rank) {
      *below = seen;
      return i;
    }
    seen += buckets_[i];
  }
  *below = seen;
  return buckets_.size() - 1;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t below = 0;
  size_t i = BucketOfRank(rank, &below);
  if (i < 2 * kSub) {
    return static_cast<double>(i);
  }
  uint64_t e = i / kSub - 1;
  double lo = static_cast<double>((i - e * kSub) << e);
  double width = static_cast<double>(1ull << e);
  // Linear interpolation: the k-th of n samples in a bucket sits at
  // lo + width * (k - 0.5) / n.
  double k = static_cast<double>(rank - below);
  return lo + width * (k - 0.5) / static_cast<double>(buckets_[i]);
}

uint64_t LatencyHistogram::Beyond(double q) const {
  if (count_ == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t below = 0;
  size_t i = BucketOfRank(rank, &below);
  return count_ - below - buckets_[i];
}

double PeakRssMiB() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double mib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long kib = 0;
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) {
      mib = static_cast<double>(kib) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mib;
}

namespace {

// A fixed amount of dependent integer work; the result is published so
// the loop cannot be folded away.
std::atomic<uint64_t> g_spin_sink{0};

void Spin(int iterations) {
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

constexpr int kParallelSpin = 20'000'000;
constexpr int kCpuSpin = 500'000;

}  // namespace

HostRecord ProbeHost() {
  HostRecord host;
  host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (host.nproc < 1) {
    host.nproc = 1;
  }
  uint64_t t0 = NowNs();
  Spin(kParallelSpin);
  uint64_t one = NowNs() - t0;
  std::vector<std::thread> threads;
  t0 = NowNs();
  for (int i = 0; i < host.nproc; ++i) {
    threads.emplace_back(Spin, kParallelSpin);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  uint64_t all = NowNs() - t0;
  host.spin_parallelism =
      static_cast<double>(host.nproc) * static_cast<double>(one) / static_cast<double>(all);

  host.pinned_cpu = PinToFastestCpu(&host.cpu_spin_us);
  return host;
}

int PinToFastestCpu(std::vector<double>* spin_us) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  // A previous pin narrowed the set to one CPU; probe every online CPU.
  if (CPU_COUNT(&allowed) == 1) {
    CPU_ZERO(&allowed);
    for (int cpu = 0; cpu < static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); ++cpu) {
      CPU_SET(cpu, &allowed);
    }
  }
  int chosen = -1;
  double best = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      continue;
    }
    double fastest = 0;
    for (int round = 0; round < 2; ++round) {
      uint64_t t0 = NowNs();
      Spin(kCpuSpin);
      double us = static_cast<double>(NowNs() - t0) / 1e3;
      fastest = round == 0 ? us : std::min(fastest, us);
    }
    if (spin_us != nullptr) {
      spin_us->push_back(fastest);
    }
    if (chosen < 0 || fastest < best) {
      best = fastest;
      chosen = cpu;
    }
  }
  if (chosen < 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return -1;
  }
  cpu_set_t pin;
  CPU_ZERO(&pin);
  CPU_SET(chosen, &pin);
  sched_setaffinity(0, sizeof(pin), &pin);
  return chosen;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace lxbench
