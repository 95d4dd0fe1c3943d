// Per-(CPU, principal) enforcement state, fused (§4–§5, Figure 13).
//
// The reference monitor's hot path — a store guard on every module write, a
// CALL check on every boundary crossing — used to touch three separately
// allocated structures (capability table, writer set, guard stats). This
// record fuses the per-principal, per-CPU portion into one cache-resident
// shard:
//
//   * a 1-entry last-hit WRITE-range memo: module code overwhelmingly
//     re-checks the same object it just wrote (memset loops, field-by-field
//     struct initialization), so remembering the granted range that
//     satisfied the last check turns the common store guard into three
//     compares against data on the same cache lines;
//   * a 2-entry CALL memo for the same reason: a wrapper import calls the
//     same kernel entry point back-to-back on packet paths. Two entries
//     because the dominant crossing patterns come in pairs (spin_lock /
//     spin_unlock, kmalloc/kfree) whose targets alternate — a 1-entry memo
//     ping-pongs and never hits;
//   * a 2-entry guard-program pre-check memo: a compiled pre section that is
//     pure checks (GuardProgram::pre_memoizable) run with the same argument
//     values can only repeat the answer it just gave, so the lock-style
//     crossing pair (spin_lock(&l); ...; spin_unlock(&l)) skips guard
//     evaluation entirely after the first pass — again two entries, because
//     the pair alternates two programs;
//   * per-shard guard counters (checks and memo hits), cheap enough to
//     keep always-on and the raw material for the Figure 13 breakdown.
//
// Sharding (SMP): each Principal owns one EnforcementContext per simulated
// CPU (lxfi::kMaxCpuShards; Principal::ctx() indexes by ThisShardIndex()).
// A shard is written only by its CPU, so the memo fields need no atomics
// and never bounce between cores; the counters are single-writer
// RelaxedCells so cross-CPU aggregation reads are race-free. The shared
// capability table itself lives on the Principal (see principal.h), guarded
// by the per-principal writer lock with lock-free concurrent probes.
//
// Memo soundness: memos cache *positive* answers only, and every capability
// removal anywhere bumps the process-wide RevocationEpoch, which invalidates
// all memos at once (see cap_table.h). Grants never invalidate — more
// authority cannot make a cached "allowed" wrong. Under SMP the fill
// protocol records the epoch observed *before* the validating table probe:
// if a revoke interleaves with the probe, the memo is created already
// stale instead of wrongly outliving the revoke.
#pragma once

#include <cstdint>

#include "src/base/compiler.h"
#include "src/base/sync.h"
#include "src/base/trace.h"
#include "src/lxfi/cap_table.h"

namespace lxfi {

struct alignas(kCacheLineSize) EnforcementContext {
  // Last-hit WRITE memo: the granted range [write_lo, write_hi) that
  // contained the previous successful check. Invalid when epoch is stale
  // (or at rest: lo > hi matches nothing).
  uintptr_t write_lo = 1;
  uintptr_t write_hi = 0;
  uint64_t write_epoch = 0;

  // Last-allowed CALL memo (2 entries, LRU of two).
  uintptr_t call_target[2] = {0, 0};
  uint64_t call_epoch[2] = {0, 0};
  uint8_t call_mru = 0;
  uint8_t pre_mru = 0;  // pre_memo's LRU bit; sits in this line's padding

  // Guard counters (always on; single-writer per shard, race-free reads).
  RelaxedCell write_checks;
  RelaxedCell write_memo_hits;
  // Store guards satisfied by the principal's own heap-partition span (the
  // partitioned-heaps fast path, resolved before the memo).
  RelaxedCell arena_span_hits;
  RelaxedCell call_checks;
  RelaxedCell call_memo_hits;
  RelaxedCell pre_checks;
  RelaxedCell pre_memo_hits;

  // Per-principal crossing metrics (lxfi_stats): wrapper entries attributed
  // to this principal, total crossing nanoseconds, and a log2 latency
  // histogram. They live here — in the per-(CPU, principal) shard the
  // crossing's CALL check already touched — so enabling metrics adds no new
  // cache miss to the hot path. Updated by Runtime::WrapperExit only when
  // LxfiStats collection is enabled.
  static constexpr size_t kCrossingHistBuckets = 16;
  RelaxedCell crossings;
  RelaxedCell crossing_ns;
  RelaxedCell crossing_hist[kCrossingHistBuckets];

  static size_t CrossingBucket(uint64_t ns) {
    // Bucket k holds crossings with ns in [2^k, 2^(k+1)); 0 ns lands in 0,
    // everything >= 2^15 ns (32.8 µs) saturates into the last bucket.
    size_t bucket = 0;
    while (ns > 1 && bucket + 1 < kCrossingHistBuckets) {
      ns >>= 1;
      ++bucket;
    }
    return bucket;
  }

  void CountCrossing(uint64_t ns) {
    ++crossings;
    crossing_ns.Add(ns);
    ++crossing_hist[CrossingBucket(ns)];
  }

  // Last clean pure-check pre-section memos: program identity plus the exact
  // argument values it passed with. Bounded arg count keeps the compare
  // cheap; calls with more arguments simply skip the memo. Kept after the
  // counters so the store-guard memo and its counters stay on the leading
  // cache line.
  static constexpr size_t kPreMemoArgs = 4;
  struct PreMemoEntry {
    const void* program = nullptr;
    uint64_t args[kPreMemoArgs] = {};
    uint32_t nargs = 0;
    uint64_t epoch = 0;
  };
  PreMemoEntry pre_memo[2];

  // Shared-heap fallbacks (partition slot exhausted or none carved): each
  // is also traced (kArenaFallback) and revoked at quarantine. Cold, so it
  // takes the tail slot and leaves the hot fields where they were.
  RelaxedCell arena_fallbacks;

  bool WriteMemoHit(uintptr_t addr, size_t size) {
    if (LXFI_UNLIKELY(write_epoch != RevocationEpoch::CurrentRelaxed())) {
      // Lazy invalidation observed: the memo was filled under an epoch a
      // revocation has since bumped. Reset it to the at-rest sentinel so the
      // invalidation traces exactly once instead of on every subsequent
      // probe (behavior-neutral: a stale memo never hits anyway).
      if (write_lo <= write_hi) {
        TRACE_EVENT(TraceEvent::kMemoInvalidate, 0, reinterpret_cast<uintptr_t>(this),
                    write_epoch);
        write_lo = 1;
        write_hi = 0;
      }
      return false;
    }
    return addr >= write_lo && addr <= write_hi && size <= write_hi - addr;
  }

  // `epoch` must be the RevocationEpoch read *before* the table probe that
  // produced [lo, hi): a revoke that raced with the probe then leaves the
  // memo already invalid rather than freshly poisoned.
  void FillWriteMemo(uintptr_t lo, uintptr_t hi, uint64_t epoch) {
    if (lo < hi) {  // never memoize an empty range (zero-size checks)
      write_lo = lo;
      write_hi = hi;
      write_epoch = epoch;
    }
  }

  bool CallMemoHit(uintptr_t target) {
    uint64_t now = RevocationEpoch::CurrentRelaxed();
    for (uint8_t e = 0; e < 2; ++e) {
      if (call_epoch[e] == now && call_target[e] == target) {
        call_mru = e;
        return true;
      }
      if (LXFI_UNLIKELY(call_epoch[e] != now && call_epoch[e] != 0)) {
        // Same lazy-invalidation trace as the WRITE memo: fire once per
        // stale entry, then park it (epoch 0 never validates — the live
        // epoch counter starts at 1).
        TRACE_EVENT(TraceEvent::kMemoInvalidate, 0, reinterpret_cast<uintptr_t>(this),
                    call_epoch[e]);
        call_epoch[e] = 0;
      }
    }
    return false;
  }

  void FillCallMemo(uintptr_t target, uint64_t epoch) {
    uint8_t victim = call_mru ^ 1;
    call_target[victim] = target;
    call_epoch[victim] = epoch;
    call_mru = victim;
  }

  // Memo soundness mirrors the WRITE/CALL memos: only *clean* passes are
  // cached (a violation never fills), checks depend solely on the argument
  // values and the principal's capabilities, grants cannot invalidate a
  // positive answer, and every revocation bumps the epoch.
  bool PreMemoHit(const void* program, const uint64_t* args, size_t nargs) {
    uint64_t now = RevocationEpoch::CurrentRelaxed();
    for (uint8_t e = 0; e < 2; ++e) {
      const PreMemoEntry& m = pre_memo[e];
      if (m.epoch != now || m.program != program || m.nargs != nargs) {
        continue;
      }
      bool match = true;
      for (size_t i = 0; i < nargs; ++i) {
        match = match && m.args[i] == args[i];
      }
      if (match) {
        pre_mru = e;
        return true;
      }
    }
    return false;
  }

  void FillPreMemo(const void* program, const uint64_t* args, size_t nargs, uint64_t epoch) {
    uint8_t victim = pre_mru ^ 1;
    PreMemoEntry& m = pre_memo[victim];
    m.program = program;
    m.nargs = static_cast<uint32_t>(nargs);
    for (size_t i = 0; i < nargs; ++i) {
      m.args[i] = args[i];
    }
    m.epoch = epoch;
    pre_mru = victim;
  }
};

}  // namespace lxfi
