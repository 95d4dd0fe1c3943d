// Per-principal capability tables (§5).
//
// One hash structure per capability kind. WRITE capabilities are identified
// by an address *range*; to keep lookups constant-time the table inserts each
// range into every 4 KiB-masked bucket it covers (the paper masks the low 12
// bits of the address when computing hash keys), so a containment query
// probes exactly one bucket. The paper found this beats a balanced tree for
// the ≤page-sized objects kernel modules manipulate; bench_captable measures
// that claim against an ordered interval map and against the node-based
// std::unordered_map layout this table replaced.
//
// All three structures are open-addressing flat tables (src/base/flat_table.h):
// WRITE ranges live in an interleaved FlatRangeMap (bucket key and range in
// one 32-byte slot; a bucket covered by several ranges owns several slots on
// one probe chain), CALL and REF in key sets (FlatTable<void>, no value
// array), so the common probe touches one short run of contiguous memory.
//
// Every probe is lock-free and seqlock-validated, so checks from any
// simulated CPU may run while grants and revokes proceed; mutation must be
// serialized by the owning principal's lock (or run single-threaded).
// Replaced slot arrays are retired through the global EpochReclaimer.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/hash.h"
#include "src/base/trace.h"
#include "src/lxfi/cap.h"

namespace lxfi {

// Process-wide generation counter bumped on every capability removal (revoke
// or table clear) anywhere. EnforcementContext memos (last-hit WRITE range,
// last-checked CALL target) record the generation observed *before* the
// validating table probe; a bump anywhere invalidates every memo, which is
// the conservative direction — a stale *positive* memo could otherwise
// outlive the grant that justified it. Grants never bump it: adding
// capabilities cannot turn a cached "allowed" into "denied". Revocation is
// rare (transfer() actions, module unload), so the cost is an extra full
// lookup right after one, never a missed check.
//
// SMP ordering: Bump() is acq_rel and Current() is acquire, so any thread
// that observes (via any release/acquire chain) that a revoke has returned
// also observes an epoch at least as new as that revoke's bump — its memos
// filled under the old epoch can never validate. Combined with the rule
// that revokes mutate the table *before* bumping, a revoke that has
// returned is never passed by any CPU afterwards (the concurrent stress
// test asserts exactly this).
class RevocationEpoch {
 public:
  // Acquire: the fill-protocol reads that must not sink past the table
  // probe (WriteTableProbe and friends read the epoch *before* probing).
  static uint64_t Current() { return counter_.load(std::memory_order_acquire); }
  // Relaxed: memo-hit validation. The cross-CPU guarantee does not need
  // ordering here — whoever observes (through any release/acquire chain)
  // that a revoke returned also has the bump in their happens-before past,
  // and coherence then forbids a relaxed load from returning the pre-bump
  // value. Keeping this relaxed lets the compiler schedule the hit path
  // exactly as the pre-SMP code did.
  static uint64_t CurrentRelaxed() { return counter_.load(std::memory_order_relaxed); }
  static void Bump() {
    uint64_t now = counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Revocation is rare by design (see above), so the tracepoint sits on a
    // cold path; when tracing is off it costs one relaxed load + branch.
    TRACE_EVENT(TraceEvent::kEpochBump, 0, now, 0);
  }

 private:
  static inline std::atomic<uint64_t> counter_{1};
};

class CapTable {
 public:
  static constexpr uintptr_t kBucketShift = 12;

  CapTable() = default;
  // Destroying a table that still holds capabilities is a removal event for
  // memo purposes: a global principal's memo may have been satisfied by an
  // instance table that is being dropped (principal teardown, module unload).
  ~CapTable() {
    if (!write_buckets_.empty() || !call_.empty()) {
      RevocationEpoch::Bump();
    }
  }

  // --- WRITE --------------------------------------------------------------
  void GrantWrite(uintptr_t addr, size_t size);
  // Removes all WRITE ranges overlapping [addr, addr+size); returns true if
  // anything was removed.
  bool RevokeWriteOverlapping(uintptr_t addr, size_t size);
  // True iff some granted range fully contains [addr, addr+size).
  // Inline: this is the store-guard probe, called on every module write.
  bool CheckWrite(uintptr_t addr, size_t size) const {
    uintptr_t lo, hi;
    return FindWriteRange(addr, size, &lo, &hi);
  }
  // Like CheckWrite, but also reports the containing granted range
  // [*lo, *hi) so callers can memoize it (EnforcementContext fast path).
  bool FindWriteRange(uintptr_t addr, size_t size, uintptr_t* lo, uintptr_t* hi) const {
    if (size == 0) {
      // Vacuously allowed; memoize nothing ([addr, addr) contains no byte).
      *lo = addr;
      *hi = addr;
      return true;
    }
    uintptr_t qend = RangeEnd(addr, size);
    return write_buckets_.FindContaining(BucketKey(BucketOf(addr)), addr, qend, lo, hi);
  }
  // Enumerates distinct granted ranges, deduplicated and sorted by
  // (addr, size) — deterministic for snapshots and writer-set seeding.
  std::vector<Capability> WriteRanges() const;

  // --- CALL ---------------------------------------------------------------
  void GrantCall(uintptr_t target) { call_.Insert(target); }
  bool RevokeCall(uintptr_t target) {
    if (!call_.Erase(target)) {
      return false;
    }
    RevocationEpoch::Bump();
    return true;
  }
  bool CheckCall(uintptr_t target) const { return call_.Contains(target); }

  // --- REF ----------------------------------------------------------------
  void GrantRef(RefTypeId type, uintptr_t addr) { ref_.Insert(RefKey(type, addr)); }
  bool RevokeRef(RefTypeId type, uintptr_t addr) { return ref_.Erase(RefKey(type, addr)); }
  bool CheckRef(RefTypeId type, uintptr_t addr) const { return ref_.Contains(RefKey(type, addr)); }

  // --- generic ------------------------------------------------------------
  void Grant(const Capability& cap);
  bool Check(const Capability& cap) const;
  // Revokes `cap` (range-overlap semantics for WRITE); returns true if held.
  bool Revoke(const Capability& cap);

  void Clear();

  // Revoke pre-filter: true when this table might hold state that
  // Revoke(cap) would remove. Lock-free, so RevokeEverywhere only locks
  // principals that can actually be affected; a false positive costs a
  // locked no-op revoke, a false negative can only happen for a capability
  // granted concurrently with the revoke (the two were unordered anyway).
  // Inline: RevokeEverywhere runs it for every holder the index lists.
  bool MightHold(const Capability& cap) const {
    switch (cap.kind) {
      case CapKind::kWrite: {
        if (cap.size == 0) {
          return false;
        }
        uintptr_t qend = RangeEnd(cap.addr, cap.size);
        uintptr_t first = BucketOf(cap.addr);
        uintptr_t last = BucketOf(qend - 1);
        // Huge ranges would probe hundreds of buckets; just take the locked
        // revoke path for those (they are module-lifetime events, not
        // per-packet transfers).
        if (last - first > 8) {
          return true;
        }
        for (uintptr_t b = first; b <= last; ++b) {
          if (write_buckets_.AnyOverlap(BucketKey(b), cap.addr, qend)) {
            return true;
          }
        }
        return false;
      }
      case CapKind::kCall:
        return call_.Contains(cap.addr);
      case CapKind::kRef:
        return ref_.Contains(RefKey(cap.ref_type, cap.addr));
    }
    return false;
  }

  // True when some WRITE range touches bucket `bucket` (4 KiB index).
  bool HoldsWriteInBucket(uintptr_t bucket) const {
    uintptr_t lo = bucket << kBucketShift;
    return write_buckets_.AnyOverlap(BucketKey(bucket), lo,
                                     RangeEnd(lo, uintptr_t{1} << kBucketShift));
  }

  size_t write_count() const;
  size_t call_count() const { return call_.size(); }
  size_t ref_count() const { return ref_.size(); }

  // Key helpers, shared with the runtime's HolderIndex so both agree on
  // which REF key and which WRITE buckets a capability occupies.
  static uint64_t RefKey(RefTypeId type, uintptr_t addr) {
    return HashCombine(type, static_cast<uint64_t>(addr));
  }

  static uintptr_t BucketOf(uintptr_t addr) { return addr >> kBucketShift; }

  // End of [addr, addr+size), saturated so a range touching the top of the
  // address space cannot wrap to bucket 0 and strand stale copies.
  static uintptr_t RangeEnd(uintptr_t addr, size_t size) {
    uintptr_t end = addr + size;
    return end < addr ? ~uintptr_t{0} : end;
  }

 private:
  // FlatRangeMap keys must be non-zero; bucket 0 (user-space base) is real.
  static uint64_t BucketKey(uintptr_t bucket) { return bucket + 1; }

  // bucket -> ranges that intersect the bucket's 4 KiB span, stored
  // interleaved (key and range in one slot) so the store-guard probe is a
  // single dependent load chain.
  FlatRangeMap write_buckets_;
  FlatTable<void> call_;
  FlatTable<void> ref_;
};

}  // namespace lxfi
