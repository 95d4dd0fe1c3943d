// Reverse holder index for transfer revocation (§3.3).
//
// transfer() revokes a capability from every principal that holds it. A
// walk over every principal of every loaded module makes that cost grow
// with the number of unrelated modules loaded (about 520 principals on the
// 128-tenant churn workload, six transfers per operation). The index maps
// each capability key to the principals that may hold it, so
// Runtime::RevokeEverywhere locks only those:
//
//   CALL   the call target;
//   REF    CapTable::RefKey(type, addr);
//   WRITE  each 4 KiB bucket the range covers (CapTable's buckets). Ranges
//          spanning more than kWideBuckets buckets — the user window, large
//          module sections — go in one short list of distinct (lo, hi)
//          ranges with their holders instead, so neither a grant nor a
//          revoke ever iterates hundreds of buckets.
//
// Invariants. An entry may be stale: a listed principal that no longer
// holds the capability costs the revoker one lock-free MightHold probe. An
// entry may never be missing: Runtime::Grant records the keys under the
// principal's lock *before* the table insert, so any capability a table
// holds is reachable from the index. A revoke leaves its holders' entries
// in place unless their lists are long (Prune), so steady-state re-grants
// of keys a principal already holds (recycled skb pages, kmalloc'd objects
// in a principal's own pages) find every key in the principal's HolderKeys
// record and take no global lock. All of a principal's entries go away
// when the principal does (Forget), which instance drop and module unload
// run *before* their EpochReclaimer grace period — a revoker still walking
// an older holder list therefore never touches a freed principal.
//
// Locking. Lock order is principal lock, then the index lock. Revokers copy
// the holder list under the index lock, release it, and then lock each
// holder in turn — never both at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/small_vector.h"
#include "src/base/sync.h"
#include "src/lxfi/cap.h"

namespace lxfi {

class Principal;

// Holders of one key: almost always one principal, sometimes shared plus an
// instance.
using HolderVec = SmallVector<Principal*, 2>;
// A revoke's merged holder list (the user window alone lists one shared
// principal per loaded module).
using HolderList = SmallVector<Principal*, 16>;

// The keys one principal is already recorded under, guarded by the
// principal's lock: the same role Principal::writer_pages() plays for the
// writer set. Wide ranges are not recorded here; they are rare enough to
// take the index lock on every grant. Recording a key already recorded —
// the common case — is one probe and no store (FlatTable<void>::Insert).
struct HolderKeys {
  FlatTable<void> calls;
  FlatTable<void> refs;
  FlatTable<void> buckets;
  bool forgotten = false;  // dropped from the index: record nothing more
};

class HolderIndex {
 public:
  // WRITE ranges covering more buckets than this are indexed as ranges.
  static constexpr uintptr_t kWideBuckets = 8;
  // A revoke range covering more buckets than this scans the bucket map
  // instead of probing each of its buckets.
  static constexpr uintptr_t kMaxProbedBuckets = 64;
  // A revoke whose keyed holder lists name more principals than this
  // prunes the stale ones (see Prune).
  static constexpr size_t kPruneAbove = 8;

  HolderIndex() = default;
  HolderIndex(const HolderIndex&) = delete;
  HolderIndex& operator=(const HolderIndex&) = delete;

  // Records `p` as a holder of `cap` before `cap` enters p's table. The
  // caller holds p->lock(); keys p already recorded cost a probe of its
  // private HolderKeys record and no index lock.
  void Note(Principal* p, const Capability& cap);

  // Appends (without duplicates) every principal that may hold state
  // CapTable::Revoke(cap) would remove. Returns how many entries came from
  // keyed (CALL, REF, bucket) lists, the ones Prune can shorten.
  size_t Collect(const Capability& cap, HolderList* out) const;

  // Drops the entries of `cap`'s keys whose principal no longer holds
  // anything under them. Stale entries accumulate where many principals
  // take turns on the same key — shared-heap slab pages recycled between
  // tenants — and each costs every later revoke of the key a probe. A
  // revoke prunes only when its lists are long, so a key one principal
  // keeps re-granting (its own pages) is never pruned and its re-grants
  // stay lock-free. Takes each holder's lock in turn, then the index lock;
  // `holders` must still be alive (the revoker's grace period).
  void Prune(const Capability& cap, const HolderList& holders);

  // Drops every entry naming `p` and stops indexing it: later grants to p
  // (in-flight crossings of a module being unloaded) leave the index alone.
  // Takes p->lock(). Call before the grace period that frees p.
  void Forget(Principal* p);

  // Distinct (key, holder) entries, wide ranges included; diagnostics.
  size_t entries() const;

 private:
  struct WideRange {
    uintptr_t lo;
    uintptr_t hi;
    std::vector<Principal*> holders;
  };

  static void AddLocked(FlatTable<HolderVec>& map, uint64_t key, Principal* p);
  static void EraseLocked(FlatTable<HolderVec>& map, uint64_t key, Principal* p);
  static size_t Append(const HolderVec* holders, HolderList* out);

  mutable Spinlock mu_;
  FlatTable<HolderVec> calls_;    // target -> holders
  FlatTable<HolderVec> refs_;     // RefKey -> holders
  FlatTable<HolderVec> buckets_;  // WRITE bucket -> holders
  std::vector<WideRange> wide_;   // distinct wide WRITE ranges
};

}  // namespace lxfi
