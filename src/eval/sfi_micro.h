// SFI microbenchmarks (Figure 11): hotlist, lld, MD5 from the MiSFIT suite,
// each built as a kernel module and run bare vs LXFI-instrumented.
//
// The instrumented variants execute the same guards the module rewriter
// inserts: a WRITE-capability check before each store (with the hoisting
// optimizations the paper's compiler plugin performs — a single check for a
// run of constant-offset stores into one object, which is why MD5 stays
// cheap; lxfi::StoreEach in src/lxfi/mem.h is the same hoisting for module
// code), and wrapper entry/exit guards around internal helper calls for
// lld. "Code size" is reported as the ratio of inserted guard sites to
// baseline operations, the binary-free analogue of the paper's code-size
// column.
#pragma once

#include <cstdint>
#include <string>

namespace eval {

struct MicroResult {
  std::string name;
  double base_ns = 0;          // uninstrumented runtime
  double instrumented_ns = 0;  // with LXFI guards
  double code_size_ratio = 0;  // instrumented "sites" / baseline ops, +1.0
  // Deterministic counts over every instrumented run: benchmark operations
  // (searches, list edits, buffer updates), module stores those operations
  // made, and store guards the runtime executed for them. guards / stores
  // is 1 where every store is checked and far below 1 where the checks are
  // hoisted out of the loop.
  uint64_t ops = 0;
  uint64_t stores = 0;
  uint64_t guards = 0;
};

// Runs all three microbenchmarks; `scale` multiplies iteration counts.
MicroResult RunHotlist(int scale = 1);
MicroResult RunLld(int scale = 1);
MicroResult RunMd5(int scale = 1);

}  // namespace eval
