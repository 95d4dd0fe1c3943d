// lxfi-trace: per-CPU lock-free enforcement tracing (ftrace-style).
//
// Fixed-width binary records land in per-CPU single-writer ring buffers:
// each simulated CPU (lxfi::ThisShardIndex()) appends to its own ring with
// plain stores published by one release store of the head, and a reader
// thread drains all rings under the drain lock by advancing each tail. A
// full ring *drops* (and counts the drop) rather than overwrite, so a
// drained stream plus the drop counters accounts for every emitted record
// exactly — the property the storm test asserts.
//
// Cost when disabled: TRACE_EVENT compiles to one relaxed load of a
// process-wide flag plus a predictable not-taken branch — the static-key
// discipline. Argument expressions are not evaluated when tracing is off.
//
// Writer discipline (same as GuardStats / EnforcementContext shards): a
// shard is written only by the thread that owns its shard index. Threads
// that never call SetThisShardIndex share shard 0 with the host main
// thread; only one of them may emit at a time (true everywhere in this
// codebase: shard 0 is the single-threaded setup/teardown context).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/clock.h"
#include "src/base/compiler.h"
#include "src/base/sync.h"

namespace lxfi {

// Event types threaded through every enforcement layer. Argument meanings
// are documented in docs/observability.md (and next to each tracepoint).
enum class TraceEvent : uint16_t {
  kNone = 0,
  // Wrapper crossings + violations (runtime.cc).
  kGuardEnter,       // arg0 = frame token, arg1 = shadow depth after push
  kGuardExit,        // arg0 = frame token, arg1 = crossing ns (0 if untimed)
  kViolation,        // arg0 = ViolationKind, arg1 = faulting address/target
  // Capability lifecycle (runtime.cc).
  kCapGrant,         // arg0 = cap addr, arg1 = cap size (CALL/REF: 0)
  kCapRevoke,        // arg0 = cap addr, arg1 = cap size
  kCapTransfer,      // arg0 = cap addr, arg1 = cap size
  kEpochBump,        // arg0 = new revocation epoch (cap_table.h)
  kMemoInvalidate,   // arg0 = &EnforcementContext, arg1 = stale epoch
  // RCU-style reclamation (sync.cc).
  kEpochRetire,      // arg0 = retirement epoch, arg1 = pending retirees
  kEpochReclaim,     // arg0 = min seen epoch, arg1 = deleters run
  // Module / principal lifecycle.
  kModuleLoad,       // arg0 = imports granted, arg1 = functions wrapped
  kModuleUnload,     // arg0 = partitions torn down
  kPrincipalCreate,  // arg0 = principal name (pointer value)
  kPrincipalDrop,    // arg0 = principal name
  kPrincipalAlias,   // arg0 = existing name, arg1 = alias name
  kHeapSeal,         // arg0 = arena lo, arg1 = arena hi
  // Dcache / page cache (src/kernel/fs).
  kDcacheHit,
  kDcacheMiss,
  kDcacheRetry,
  kPagecacheHit,
  kPagecacheMiss,
  // Block layer (src/kernel/block).
  kBioSubmit,        // arg0 = sector, arg1 = size | (write << 63)
  kBioComplete,      // arg0 = sector, arg1 = status (two's complement)
  // Containment / microreboot (containment.cc).
  kQuarantine,       // arg0 = ViolationKind, arg1 = fallback objects revoked
  kMicroreboot,      // arg0 = reboot attempt (1-based), arg1 = module reboots total
  kRebootFailed,     // arg0 = attempts consumed, arg1 = 1 if retired (breaker)
  kArenaFallback,    // arg0 = object addr, arg1 = size (shared-heap fallback)
  kCount,
};

const char* TraceEventName(TraceEvent event);

// 32-byte fixed-width record. `principal` is the emitting principal's
// minted trace id (see MintPrincipalTraceId; 0 = trusted kernel context).
struct TraceRecord {
  uint64_t ts_ns;
  uint32_t principal;
  uint16_t cpu;
  uint16_t event;
  uint64_t arg0;
  uint64_t arg1;
};
static_assert(sizeof(TraceRecord) == 32, "trace records are fixed-width");

// Mints a process-unique id for a principal (attribution in trace records
// and the violation flight recorder). Ids start at 1; 0 means "kernel".
uint32_t MintPrincipalTraceId();

class TraceBuffer {
 public:
  // Per-CPU capacity in records (power of two). 4096 × 32 B × 8 shards =
  // 1 MiB — bounded by construction, like the flight recorder.
  static constexpr size_t kRingCapacity = 4096;

  static TraceBuffer& Global();

  // The static-key gate: one relaxed load, branch predictable when off.
  static bool EnabledRelaxed() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_seq_cst); }

  // Appends one record to the calling CPU's ring (single writer per shard).
  // A full ring drops the record and counts it; records are never torn:
  // the slot is written with plain stores, then the head is published with
  // a release store the drainer acquires.
  void Emit(TraceEvent event, uint32_t principal, uint64_t arg0, uint64_t arg1) {
    Shard& shard = shards_[ThisShardIndex()];
    uint64_t head = shard.head.load(std::memory_order_relaxed);
    uint64_t tail = shard.tail.load(std::memory_order_acquire);
    if (LXFI_UNLIKELY(head - tail >= kRingCapacity)) {
      ++shard.drops;
      return;
    }
    TraceRecord& rec = shard.slots[head & (kRingCapacity - 1)];
    rec.ts_ns = MonotonicNowNs();
    rec.principal = principal;
    rec.cpu = static_cast<uint16_t>(ThisShardIndex());
    rec.event = static_cast<uint16_t>(event);
    rec.arg0 = arg0;
    rec.arg1 = arg1;
    shard.head.store(head + 1, std::memory_order_release);
  }

  // Drains every shard's pending records into `out` (appended, per-shard
  // order preserved); safe against concurrent writers — this is the
  // epoch-safe snapshot side of the SPSC protocol. Returns records drained.
  // Serialized against other drainers by the drain lock.
  size_t Drain(std::vector<TraceRecord>* out);

  // Drains up to `max` records (round-robin across shards) into a caller
  // buffer — the kernel-export form a monitoring module polls through.
  size_t DrainInto(TraceRecord* out, size_t max);

  uint64_t drops(int shard) const { return shards_[shard].drops.value(); }
  uint64_t TotalDrops() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.drops.value();
    }
    return total;
  }

  // Discards pending records and zeroes drop counters. Only valid while no
  // writer is emitting (test setup/teardown between storms).
  void ResetForTest();

 private:
  struct alignas(kCacheLineSize) Shard {
    TraceRecord slots[kRingCapacity];
    // Head on its own line (written by the owning CPU every emit); tail on
    // another (written by the drainer) so emit never bounces a drain line.
    alignas(kCacheLineSize) std::atomic<uint64_t> head{0};
    RelaxedCell drops;  // owner-written, exact per shard
    alignas(kCacheLineSize) std::atomic<uint64_t> tail{0};
  };

  Shard shards_[kMaxCpuShards];
  Spinlock drain_mu_;  // serializes drainers (tail writers)

  static inline std::atomic<bool> enabled_{false};
};

// The tracepoint. Arguments are NOT evaluated when tracing is disabled.
#define TRACE_EVENT(event, principal, arg0, arg1)                            \
  do {                                                                       \
    if (LXFI_UNLIKELY(::lxfi::TraceBuffer::EnabledRelaxed())) {              \
      ::lxfi::TraceBuffer::Global().Emit((event), (principal), (arg0),       \
                                         (arg1));                            \
    }                                                                        \
  } while (0)

}  // namespace lxfi
