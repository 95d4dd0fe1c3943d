// Lock-free RCU-walk dentry cache.
//
// Before this existed, every path-walk component serialized on one global
// Vfs spinlock and paid an O(n) strcmp scan over a singly-linked child
// list. The dcache now gives each directory its own open-addressing child
// index (a FlatTable keyed by FNV-1a of the component name, published
// through the atomic-Rep + seqlock protocol from src/base/flat_table.h),
// so the walk hit path — positive and cached-negative — takes no lock and
// performs no allocation: one seqlock-validated probe per component, a
// word-wise name compare, and relaxed-atomic flag loads.
//
// Concurrency discipline (mirrors the cap-table read path,
// docs/smp_enforcement.md):
//
//   readers   Lookup() probes the parent's index with
//             FlatTable::FindValueConcurrent (seqlock-validated relaxed
//             loads, retrying only when a writer overlapped), then walks
//             the same-hash collision chain comparing the four NUL-padded
//             name words. Dentry names are immutable after creation and
//             every dentry reachable from a validated probe was published
//             before the probe validated, so the compares are plain data
//             reads under established happens-before; the mutable fields
//             (inode, flags, hash_next, open_count) are accessed with
//             relaxed/acquire atomics on both sides.
//
//   writers   serialize per parent directory on Dentry::child_lock (no
//             global lock, so two CPUs mutating different directories
//             never contend), mutate the index through the FlatTable
//             write API (which bumps the seqlock), and maintain the
//             module-visible child/sibling iteration list alongside.
//
//   lifetime  unlinked dentries and replaced index slot arrays are
//             retired through the process-wide quiescent-state
//             EpochReclaimer: a reader still probing a superseded array
//             or holding a just-unlinked dentry never touches freed
//             memory. Dentries that were never published skip the grace
//             period.
#pragma once

#include <cstdint>
#include <string_view>

#include "src/base/counters.h"
#include "src/base/flat_table.h"
#include "src/base/hash.h"
#include "src/base/sync.h"

namespace kern {

class Kernel;
struct Inode;
struct SuperBlock;

inline constexpr size_t kVfsNameMax = 27;  // component name bytes (+ NUL)

// Dentry::flags bits (atomic: release-stored by writers, acquire-loaded by
// the lock-free walk).
inline constexpr uint32_t kDentryPositive = 1u << 0;  // inode attached
inline constexpr uint32_t kDentryDir = 1u << 1;       // inode is a directory
inline constexpr uint32_t kDentryDying = 1u << 2;     // unlink/rmdir in flight
inline constexpr uint32_t kDentryMoving = 1u << 3;    // rename in flight

// Dentries are kernel-owned: modules receive REF capabilities for them and
// mutate the dcache only through d_alloc/d_instantiate, never by store.
// The name doubles as four NUL-padded 64-bit words so the lock-free walk
// compares it without byte loops; it is immutable after NewDentry. The
// child/sibling list is the module-visible iteration order (ramfs walks it
// in statfs/kill_sb); the FlatTable is the kernel's walk index. Both are
// maintained under the parent's child_lock.
struct Dentry {
  union {
    uint64_t name_words[4] = {};     // NUL-padded mirror for word compares
    char name[kVfsNameMax + 1];
  };
  uint64_t name_hash = 0;            // FNV-1a of name: the child-index key
  Inode* inode = nullptr;            // null => negative (atomic on the walk)
  Dentry* parent = nullptr;
  SuperBlock* sb = nullptr;
  Dentry* child = nullptr;           // first child (iteration list)
  Dentry* sibling = nullptr;         // next sibling (iteration list)
  Dentry* hash_next = nullptr;       // same-hash collision chain (atomic)
  // flags and open_count form one 8-byte-aligned lockref pair: the flag
  // transitions that must be atomic against open (dying, moving) and the
  // open-count increment that must be atomic against them are single 64-bit
  // CASes over both words (TryOpenRef / TryFlagIfUnopened below), closing
  // the open-vs-unlink TOCTOU without adding a lock to the walk.
  uint32_t flags = 0;                // kDentry* bits (atomic)
  uint32_t open_count = 0;           // open Files (atomic); blocks unlink
  uint32_t pos_children = 0;         // positive children (under child_lock)
  uint32_t neg_children = 0;         // cached negatives (under child_lock)
  uint32_t depth = 0;                // tree depth; immutable (lock ordering)
  lxfi::Spinlock child_lock;         // writer lock for this directory
  lxfi::FlatTable<Dentry*> children; // child index: name_hash -> chain head
};

enum class DcacheCounter { kSeqlockRetries, kNegativeHits, kCount };
inline const char* CounterName(DcacheCounter c) {
  return lxfi::CounterNameIn(c, {"seqlock_retries", "negative_hits"});
}

class Dcache {
 public:
  // Registers the counters as "dcache" with the kernel's registry.
  explicit Dcache(Kernel* kernel);
  ~Dcache();

  // Cached negative dentries per directory. Misses beyond the bound still
  // dispatch the module lookup every time (bounded memory beats unbounded
  // negative growth on miss-heavy workloads).
  static constexpr uint32_t kMaxNegativePerDir = 16;

  // --- dentry allocation / reclamation ---------------------------------
  Dentry* NewDentry(SuperBlock* sb, Dentry* parent, const char* name);
  // For dentries that were never linked into an index (lookup probes that
  // lost a race, failed creates): no reader can hold them.
  void FreeNow(Dentry* dentry);
  // For dentries that were published: destruction waits out a grace
  // period of the global EpochReclaimer.
  void Retire(Dentry* dentry);
  // Retires `root` and everything still linked under it (rmdir victims
  // carry cached negative children; unmount retires whole trees).
  void RetireTree(Dentry* root);
  // Teardown-only immediate variant (no reader can exist).
  void FreeTreeNow(Dentry* root);

  // --- read side ---------------------------------------------------------
  // Lock-free child lookup; returns the child (positive, negative or
  // dying — callers decode flags) or null. Never allocates.
  Dentry* Lookup(Dentry* parent, std::string_view name);

  // --- write side --------------------------------------------------------
  // The lock serializing mutations of `parent`'s children. Lock order: multi-
  // lock holders (rename's two parents, rmdir's parent -> victim nesting)
  // acquire in ascending (depth, address) order — depth is immutable for
  // directories (they never move), so the order is a total one and the
  // nesting cannot deadlock.
  lxfi::Spinlock& writer_lock(Dentry* parent) { return parent->child_lock; }

  // The *Locked entry points require writer_lock(parent) to be held.
  Dentry* FindChildLocked(Dentry* parent, const char* name) const;
  void LinkChildLocked(Dentry* parent, Dentry* child);
  void UnlinkChildLocked(Dentry* parent, Dentry* child);

  // Publishes `inode` on a (so far negative, unreachable-or-linked)
  // dentry: inode pointer first, then the flags release-store that makes
  // lock-free walkers trust the inode's own fields.
  static void SetPositive(Dentry* dentry, Inode* inode);
  static void SetDying(Dentry* dentry, bool dying) {
    if (dying) {
      __atomic_fetch_or(&dentry->flags, kDentryDying, __ATOMIC_RELEASE);
    } else {
      __atomic_fetch_and(&dentry->flags, ~kDentryDying, __ATOMIC_RELEASE);
    }
  }
  static uint32_t FlagsOf(const Dentry* dentry) {
    return __atomic_load_n(&dentry->flags, __ATOMIC_ACQUIRE);
  }
  static Inode* InodeOf(const Dentry* dentry) {
    return __atomic_load_n(&dentry->inode, __ATOMIC_RELAXED);
  }
  static uint32_t OpenCount(const Dentry* dentry) {
    return __atomic_load_n(&dentry->open_count, __ATOMIC_RELAXED);
  }
  static void AddOpenCount(Dentry* dentry, int delta) {
    __atomic_add_fetch(&dentry->open_count, static_cast<uint32_t>(delta), __ATOMIC_RELAXED);
  }

  // --- lockref (single-CAS flags+open_count transitions) -----------------
  // Takes an open reference iff the dentry is neither dying nor moving:
  // one 64-bit CAS over the pair, so an unlink/rename that marked the
  // dentry in the same instant can never race a reference in (and vice
  // versa an in-flight open can never be overtaken by the mark).
  static bool TryOpenRef(Dentry* dentry);
  // Sets `bit` (kDentryDying / kDentryMoving) iff open_count == 0 and no
  // dying/moving mark is already present; the unlink/rename side of the
  // same CAS protocol.
  static bool TryFlagIfUnopened(Dentry* dentry, uint32_t bit);
  static void ClearFlag(Dentry* dentry, uint32_t bit) {
    __atomic_fetch_and(&dentry->flags, ~bit, __ATOMIC_RELEASE);
  }

  // --- stats / test hooks ------------------------------------------------
  uint64_t seqlock_retries() const { return stats_.count(DcacheCounter::kSeqlockRetries); }
  uint64_t negative_hits() const { return stats_.count(DcacheCounter::kNegativeHits); }
  void CountNegativeHit() { stats_.Count(DcacheCounter::kNegativeHits); }

  // Collapses the name hash into `buckets` distinct nonzero keys, forcing
  // same-key collision chains the differential test can exercise (1 =
  // every name collides); 0 restores the full 64-bit FNV-1a key.
  void set_hash_buckets_for_test(uint64_t buckets) { hash_buckets_ = buckets; }

  uint64_t HashName(std::string_view name) const {
    uint64_t h = lxfi::Fnv1a64(name);
    if (LXFI_UNLIKELY(hash_buckets_ != 0)) {
      h = h % hash_buckets_ + 1;
    }
    return h;
  }

 private:
  Kernel* kernel_;
  uint64_t hash_buckets_ = 0;
  lxfi::PerCpuCounters<DcacheCounter> stats_;
};

}  // namespace kern
