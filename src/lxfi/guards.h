// Guard accounting (Figure 13).
//
// Every runtime check ("guard") increments a counter by type. Counts are all
// the runtime keeps: bench_guards reads them for the guards-per-packet
// column of the UDP_STREAM TX workload and times each guard's entry point
// itself, so no guard pays for a clock read.
#pragma once

#include <array>
#include <cstdint>

#include "src/base/compiler.h"
#include "src/base/sync.h"

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

const char* GuardTypeName(GuardType type);

// Sharded per-CPU: each simulated CPU increments its own cache-line-aligned
// shard (plain single-writer increments — no lock prefix, so single-core
// cost is identical to a flat array), and readers sum shards. Reads are
// race-free (RelaxedCell) but not a linearizable snapshot; callers read
// after a CpuSet barrier for exact totals, which is what every bench and
// eval harness does. Counters only grow: a caller that wants the guards of
// one run subtracts a count taken before it.
class GuardStats {
 public:
  void Count(GuardType type) { ++shards_[ThisShardIndex()].counts[static_cast<size_t>(type)]; }

  uint64_t count(GuardType type) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.counts[static_cast<size_t>(type)];
    }
    return total;
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    std::array<RelaxedCell, static_cast<size_t>(GuardType::kCount)> counts;
  };

  std::array<Shard, kMaxCpuShards> shards_;
};

}  // namespace lxfi
