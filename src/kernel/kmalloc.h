// Slab allocator (kmalloc/kfree) for the simulated kernel.
//
// Mirrors the properties of Linux's SLUB that matter to LXFI and to the
// exploits from the paper's §8.1:
//  - power-of-two-ish size classes backed by 4 KiB slab pages,
//  - objects of one class packed contiguously in a page, so two consecutive
//    allocations of the same class are usually adjacent (the CAN BCM
//    integer-overflow exploit depends on overwriting the *next* slab object),
//  - ksize()-style introspection so capability annotations can revoke the
//    exact granted range on kfree.
//
// SMP: the shared structures are always guarded by one spinlock
// (uncontended on one CPU), and an optional per-CPU object cache
// (EnableSmpCache — the analogue of SLUB's per-CPU partial lists) recycles
// same-size objects entirely within one simulated CPU: a cached object
// stays "live" in the global map with an unchanged
// requested size, so ksize/AllocSize introspection and the capability
// annotations built on it keep working, while the per-packet alloc/free
// pair on the parallel netperf path touches no global lock at all. The
// cache is off by default — allocation adjacency and double-free panics
// behave exactly as before for tests and exploits.
//
// Partitioned heaps (opt-in via EnablePartitions): a contiguous region is
// carved from the arena and divided into fixed-size slots; each partition
// owns one slot, so a partition's every object lies inside one contiguous
// [lo, hi) span and address->partition classification is a subtraction and
// a divide. The LXFI runtime gives each principal a partition, which turns
// WRITE-ownership of a module's own allocations into a range compare and
// module unload into one bulk slot teardown (see docs/enforcement_path.md).
// Slot placement is deterministic: slots are handed out in ascending
// address order (optionally rotated by a fixed seed) and recycled LIFO, so
// partition spans — reported as offsets from the region base — reproduce
// across runs regardless of where the OS mapped the arena.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/arena.h"
#include "src/base/flat_table.h"
#include "src/base/sync.h"
#include "src/kernel/types.h"

namespace kern {

class SlabAllocator {
 public:
  explicit SlabAllocator(lxfi::Arena* arena);
  ~SlabAllocator();

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Allocates `size` bytes; returns nullptr when the arena is exhausted or
  // size is 0. Memory is zeroed (kzalloc semantics keep module state
  // deterministic; Linux modules in this repo all use kzalloc-style init).
  void* Alloc(size_t size);

  // Frees a pointer previously returned by Alloc. Freeing nullptr is a no-op;
  // freeing an unknown pointer panics (slab corruption in a real kernel).
  void Free(void* ptr);

  // Requested size of a live allocation (what the caller asked for).
  // Returns 0 for unknown pointers.
  size_t AllocSize(const void* ptr) const;

  // Usable size of a live allocation: the size class capacity, like ksize().
  size_t UsableSize(const void* ptr) const;

  bool IsLive(const void* ptr) const;

  // Turns on the per-CPU recycling cache (simulated-CPU harnesses only).
  // Note: cached objects report IsLive() true between free and reuse.
  void EnableSmpCache() { smp_cache_ = true; }

  // --- partitioned heaps -----------------------------------------------------
  static constexpr int kNoPartition = -1;

  // Carves a partition region out of the arena and divides it into
  // region_bytes/slot_bytes fixed-size slots. Idempotent; returns false when
  // the arena cannot supply the region. `seed` deterministically rotates the
  // slot hand-out order (never randomizes it): the i-th partition created
  // always lands on slot (i + seed) % nslots.
  bool EnablePartitions(size_t region_bytes, size_t slot_bytes, uint64_t seed = 0);
  bool partitions_enabled() const { return region_lo_ != 0; }

  // Claims a free slot as a new partition; returns its id, or kNoPartition
  // when every slot is taken (callers fall back to the shared heap).
  int CreatePartition();

  // The partition's slot span [*lo, *hi); false for unknown/torn-down ids.
  bool PartitionSpan(int id, uintptr_t* lo, uintptr_t* hi) const;

  // Allocates inside partition `id`'s slot. Falls back to the shared heap
  // when the slot's pages are exhausted (the object then simply isn't
  // covered by the partition span). Returns nullptr when the partition is
  // sealed: a quarantined principal cannot acquire fresh memory. id ==
  // kNoPartition degrades to Alloc().
  void* AllocIn(int id, size_t size);

  // Marks the partition sealed: AllocIn fails, frees still work. Returns
  // false for unknown/torn-down ids.
  bool SealPartition(int id);

  // Bulk teardown: drops every live object, slab page and per-CPU magazine
  // entry belonging to the slot in one sweep — no per-object work for the
  // caller — and returns the slot to the free list (LIFO recycle). Returns
  // the number of live objects reclaimed. Must run from a quiescent context
  // (module unload): it touches every CPU's magazine.
  size_t TeardownPartition(int id);

  // Which partition owns `ptr`'s address, or kNoPartition.
  int PartitionOf(const void* ptr) const;

  // Live objects currently inside the partition's slot.
  size_t partition_live_objects(int id) const;

  size_t partition_count() const {
    lxfi::SpinGuard guard(mu_);
    return partitions_.size();
  }

  // Region base, for reporting partition spans as stable offsets.
  uintptr_t region_base() const { return region_lo_; }

  // Stats.
  size_t live_objects() const {
    lxfi::SpinGuard guard(mu_);
    return live_.size();
  }
  size_t pages_allocated() const { return pages_allocated_; }

  static constexpr std::array<size_t, 8> kClassSizes = {32, 64, 128, 256, 512, 1024, 2048, 4096};

 private:
  struct Partition;

  struct SlabPage {
    size_t class_index;
    std::vector<void*> freelist;
    Partition* part = nullptr;  // owning partition (nullptr: shared heap)
  };

  struct LiveObject {
    size_t requested;
    size_t class_index;  // class index, or SIZE_MAX for a large (multi-page) allocation
    size_t large_bytes;  // only for large allocations
  };

  // A freed large allocation's page run, kept for the next large allocation
  // of exactly as many bytes in the same heap (the arena cannot reclaim).
  struct FreeRun {
    size_t bytes;
    void* base;
  };

  // One fixed slot of the partition region. Pages are bump-allocated from
  // the slot, so every object the partition ever hands out stays inside
  // [lo, hi) and teardown is a single range sweep.
  struct Partition {
    int id = kNoPartition;
    size_t slot = 0;  // slot index in the region
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    uintptr_t bump = 0;  // next unallocated byte in the slot
    bool sealed = false;
    bool torn_down = false;
    size_t live = 0;  // live_ entries inside the slot
    std::array<std::vector<SlabPage*>, kClassSizes.size()> partial;
    std::vector<FreeRun> free_large;
  };

  // Per-CPU magazine: a few exact-size bins of recycled objects plus the
  // ptr->size record that lets Free() classify a recycled pointer without
  // the global lock. Only ever touched by its shard's thread. With the
  // magazine on, a freed slab object's first word holds FreeMark() until a
  // kmalloc hands it out again (objects are 32-byte aligned, so the mark's
  // low byte is 0x1f, which the zeroing memset clears). Every CPU sees the
  // object's memory, so a double kfree panics like the uncached path
  // whichever CPU's bin, or the shared freelist, the first kfree reached,
  // and the mark adds no shared cache line to the per-packet pair. The
  // cache is only enabled by SMP harnesses, never for the exploit or
  // regression suites. With partitions enabled a bin is keyed by (requested
  // size, partition), so recycled objects never migrate across principals;
  // the record encodes the partition id alongside the size.
  static uint64_t FreeMark(const void* obj) {
    return reinterpret_cast<uintptr_t>(obj) ^ 0xf4ee5ab1f4ee5a1full;
  }
  static constexpr uint64_t kCachePidShift = 32;
  static constexpr uint64_t kCacheSizeMask = (1ull << kCachePidShift) - 1;
  static constexpr size_t kCacheBins = 4;
  static constexpr size_t kCacheBinCap = 128;
  struct alignas(lxfi::kCacheLineSize) CpuCache {
    struct Bin {
      size_t requested = 0;
      int pid = kNoPartition;  // meaningful only while requested != 0
      std::vector<void*> objs;
    };
    std::array<Bin, kCacheBins> bins;
    lxfi::FlatTable<uint64_t> cached_size;  // ptr -> requested | (pid+1)<<32
  };

  static int ClassIndexFor(size_t size);
  void* AllocFromClass(Partition* part, size_t class_index, size_t requested);
  void* AllocLarge(Partition* part, size_t size);
  // Bump-allocates `bytes` of page-aligned slot memory; nullptr when the
  // slot is exhausted. Caller holds mu_.
  void* SlotPages(Partition* part, size_t bytes);
  // The non-cached free path (locks internally).
  void FreeGlobal(void* ptr);
  // Address classification; caller holds mu_.
  Partition* PartitionOfLocked(uintptr_t addr) const;

  lxfi::Arena* arena_;
  mutable lxfi::Spinlock mu_;  // guards partial_/page_of_/live_/partitions_/arena
  bool smp_cache_ = false;
  // Per-class list of pages that still have free objects (shared heap).
  std::array<std::vector<SlabPage*>, kClassSizes.size()> partial_;
  std::vector<FreeRun> free_large_;  // shared-heap large runs awaiting reuse
  std::unordered_map<uintptr_t, SlabPage*> page_of_;  // page base -> slab page
  std::unordered_map<uintptr_t, LiveObject> live_;
  size_t pages_allocated_ = 0;
  std::array<CpuCache, lxfi::kMaxCpuShards> caches_;
  // Partition region state.
  uintptr_t region_lo_ = 0;
  uintptr_t region_hi_ = 0;
  size_t slot_bytes_ = 0;
  std::vector<std::unique_ptr<Partition>> partitions_;  // by id
  std::vector<Partition*> slot_owner_;                  // slot index -> partition (or nullptr)
  std::vector<size_t> free_slots_;                      // LIFO; pre-seeded deterministically
};

// Allocator exports. kzalloc and the coherent-DMA pair share the slab
// implementation of kmalloc/kfree.
inline constexpr KernelSymbol<void*(size_t size)> kKmalloc{"kmalloc"};
inline constexpr KernelSymbol<void*(size_t size)> kKzalloc{"kzalloc"};
inline constexpr KernelSymbol<void*(size_t size)> kDmaAllocCoherent{"dma_alloc_coherent"};
inline constexpr KernelSymbol<void*(void* ptr, size_t size)> kKrealloc{"krealloc"};
inline constexpr KernelSymbol<void(void* ptr)> kKfree{"kfree"};
inline constexpr KernelSymbol<void(void* ptr)> kDmaFreeCoherent{"dma_free_coherent"};
inline constexpr KernelSymbol<size_t(const void* ptr)> kKsize{"ksize"};

}  // namespace kern
