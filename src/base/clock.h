// Clocks.
//
// MonotonicClock reads the host's steady clock; the benches time with it
// (Figure 13 per-guard nanoseconds are bench_guards loops). SimClock is a virtual
// cycle-accounted clock used by the netperf simulation: simulated kernel work
// advances it by modeled cycle costs so the benchmark can report throughput
// and CPU utilization the way the paper does, independent of host load.
#pragma once

#include <cstdint>

namespace lxfi {

// Nanoseconds from the host's steady clock.
uint64_t MonotonicNowNs();

// Nanoseconds of CPU time consumed by the calling thread. Used by the SMP
// scaling harness: on hosts with fewer cores than simulated CPUs the wall
// clock measures timesharing, while per-thread CPU time still measures the
// true per-packet cost each CPU pays (including contention), which is what
// the Figure 12-style machine model scales to hardware speed.
uint64_t ThreadCpuNowNs();

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
