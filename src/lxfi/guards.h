// Guard accounting (Figure 13).
//
// Every runtime check ("guard") increments a per-CPU counter by type (a TLS
// load and a plain increment, src/base/counters.h). Counts are all the
// runtime keeps: bench_guards reads them for the guards-per-packet column of
// the UDP_STREAM TX workload and times each guard's entry point itself, so
// no guard pays for a clock read. The runtime registers them with its
// kernel's counter registry as "guard.<CounterName>".
#pragma once

#include "src/base/counters.h"

namespace lxfi {

enum class GuardType : int {
  kAnnotationAction = 0,  // copy/transfer/check action executed
  kFunctionEntry,         // wrapper entry (shadow push, principal switch)
  kFunctionExit,          // wrapper exit (shadow pop/validate)
  kMemWrite,              // module store check
  kIndCallAll,            // kernel indirect-call guard, any outcome
  kIndCallFull,           // kernel indirect-call guard that took the slow path
  kIndCallModule,         // indirect calls whose target is module text
                          // (Figure 13's "Kernel ind-call e1000" row)
  kCount,
};

// The name table (PerCpuCounters finds it as CounterName).
inline const char* CounterName(GuardType type) {
  return CounterNameIn(type, {"annotation-action", "function-entry", "function-exit",
                              "mem-write-check", "kernel-indcall-all", "kernel-indcall-full",
                              "kernel-indcall-module"});
}

// Counters only grow: a caller that wants the guards of one run subtracts a
// count taken before it.
using GuardStats = PerCpuCounters<GuardType>;

}  // namespace lxfi
