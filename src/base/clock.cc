#include "src/base/clock.h"

#include <ctime>

#include <chrono>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace lxfi {

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t ThreadCpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

bool HasInvariantTsc() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx) != 0 && (edx & (1u << 8)) != 0;
#else
  return false;
#endif
}

TickAnchor TickCalibration::ReadAnchor() {
  // With a TSC the ns read is bracketed by two tick reads: take the midpoint
  // of the narrowest of three brackets, so a preempted read is not used.
  TickAnchor best{};
  for (uint64_t i = 0, width = UINT64_MAX; i < 3; ++i) {
    uint64_t t0 = CycleNow(), ns = MonotonicNowNs(), t1 = CycleNow();
    if (t1 - t0 < width) {
      width = t1 - t0;
      best = {t0 + (t1 - t0) / 2, ns};
    }
  }
  return CycleNowIsTsc() ? best : TickAnchor{best.ns, best.ns};
}

TickCalibration& TickCalibration::Global() {
  static TickCalibration* instance = [] {
    auto* calibration = new TickCalibration(ReadAnchor());
    for (uint64_t until = MonotonicNowNs() + 20000; MonotonicNowNs() < until;) {
    }
    calibration->Reanchor();
    return calibration;
  }();
  return *instance;
}

TickLine TickCalibration::Reanchor(TickAnchor now) {
  double slope = ns_per_tick_.load(std::memory_order_relaxed);
  if (now.ticks > origin_.ticks && now.ns > origin_.ns) {
    slope = static_cast<double>(now.ns - origin_.ns) /
            static_cast<double>(now.ticks - origin_.ticks);
    ns_per_tick_.store(slope, std::memory_order_relaxed);
  }
  return {now, slope};
}

}  // namespace lxfi
