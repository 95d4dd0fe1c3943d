// Clocks.
//
// MonotonicClock reads the host's steady clock; the benches time with it
// (Figure 13 per-guard nanoseconds are bench_guards loops). CycleNow is the
// stamp lxfi-trace and the crossing metrics take on the hot path, converted
// to MonotonicNowNs's timebase only when read. SimClock is a virtual
// cycle-accounted clock used by the netperf simulation: simulated kernel work
// advances it by modeled cycle costs so the benchmark can report throughput
// and CPU utilization the way the paper does, independent of host load.
#pragma once

#include <atomic>
#include <cstdint>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace lxfi {

// Nanoseconds from the host's steady clock.
uint64_t MonotonicNowNs();

// Nanoseconds of CPU time consumed by the calling thread. Used by the SMP
// scaling harness: on hosts with fewer cores than simulated CPUs the wall
// clock measures timesharing, while per-thread CPU time still measures the
// true per-packet cost each CPU pays (including contention), which is what
// the Figure 12-style machine model scales to hardware speed.
uint64_t ThreadCpuNowNs();

// Cycle-counter ticks for hot-path stamps: __rdtsc on x86-64 when the TSC
// is invariant (CPUID 0x80000007 EDX bit 8: one rate in every P/C-state),
// else MonotonicNowNs() itself. The source is chosen once per process.
bool HasInvariantTsc();
inline bool CycleNowIsTsc() {
  static const bool tsc = HasInvariantTsc();
  return tsc;
}
inline uint64_t CycleNow() {
#if defined(__x86_64__)
  if (CycleNowIsTsc()) {
    return __rdtsc();
  }
#endif
  return MonotonicNowNs();
}

// A reading of both clocks, and the ticks -> ns line through one.
struct TickAnchor { uint64_t ticks, ns; };
struct TickLine {
  TickAnchor at;
  double ns_per_tick;
  uint64_t ToNs(uint64_t ticks) const {
    auto delta = static_cast<double>(static_cast<int64_t>(ticks - at.ticks));
    return at.ns + static_cast<uint64_t>(static_cast<int64_t>(delta * ns_per_tick));
  }
};

// Maps CycleNow() ticks onto MonotonicNowNs()'s timebase. Reanchor fits the
// slope from the origin (taken at construction) to a fresh anchor, so its
// error is the anchors' read jitter over the whole baseline, and returns the
// line through the fresh anchor (without a TSC: the identity). The slope is
// the only state shared between threads.
class TickCalibration {
 public:
  static TickAnchor ReadAnchor();
  static TickCalibration& Global();  // first slope fitted over a 20 µs spin

  explicit TickCalibration(TickAnchor origin) : origin_(origin) {}
  TickLine Reanchor(TickAnchor now = ReadAnchor());
  // A tick delta (later minus earlier) in ns; a negative one reads 0.
  uint64_t DeltaToNs(uint64_t ticks) const {
    auto t = static_cast<double>(static_cast<int64_t>(ticks));
    return t > 0 ? static_cast<uint64_t>(t * ns_per_tick_.load(std::memory_order_relaxed)) : 0;
  }

 private:
  const TickAnchor origin_;
  std::atomic<double> ns_per_tick_{1.0};
};

// A virtual clock advanced explicitly by the simulation.
class SimClock {
 public:
  SimClock() = default;

  uint64_t now_ns() const { return now_ns_; }
  void Advance(uint64_t ns) { now_ns_ += ns; }
  void Reset() { now_ns_ = 0; }

 private:
  uint64_t now_ns_ = 0;
};

// Scoped wall-time measurement helper.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(uint64_t* out) : out_(out), start_(MonotonicNowNs()) {}
  ~ScopedTimerNs() { *out_ += MonotonicNowNs() - start_; }

  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  uint64_t* out_;
  uint64_t start_;
};

}  // namespace lxfi
