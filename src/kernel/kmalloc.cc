#include "src/kernel/kmalloc.h"

#include <cstring>

#include "src/kernel/panic.h"
#include "src/kernel/types.h"

namespace kern {

SlabAllocator::SlabAllocator(lxfi::Arena* arena) : arena_(arena) {}

SlabAllocator::~SlabAllocator() {
  // Page backing memory belongs to the arena; the SlabPage bookkeeping
  // records are ours.
  for (auto& [base, slab] : page_of_) {
    delete slab;
  }
}

int SlabAllocator::ClassIndexFor(size_t size) {
  for (size_t i = 0; i < kClassSizes.size(); ++i) {
    if (size <= kClassSizes[i]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// --- partitions ---------------------------------------------------------------

bool SlabAllocator::EnablePartitions(size_t region_bytes, size_t slot_bytes, uint64_t seed) {
  lxfi::SpinGuard guard(mu_);
  if (region_lo_ != 0) {
    return true;
  }
  if (slot_bytes == 0 || slot_bytes % kPageSize != 0 || region_bytes < slot_bytes) {
    return false;
  }
  void* region = arena_->Allocate(region_bytes, kPageSize);
  if (region == nullptr) {
    return false;
  }
  region_lo_ = reinterpret_cast<uintptr_t>(region);
  region_hi_ = region_lo_ + (region_bytes / slot_bytes) * slot_bytes;
  slot_bytes_ = slot_bytes;
  size_t nslots = (region_hi_ - region_lo_) / slot_bytes;
  slot_owner_.assign(nslots, nullptr);
  // Hand-out order is (i + seed) % nslots for the i-th CreatePartition: push
  // in reverse so pop_back yields ascending creation order. The layout is a
  // pure function of (nslots, seed) — never of the mapping address.
  free_slots_.clear();
  free_slots_.reserve(nslots);
  for (size_t i = nslots; i > 0; --i) {
    free_slots_.push_back((i - 1 + seed) % nslots);
  }
  return true;
}

int SlabAllocator::CreatePartition() {
  lxfi::SpinGuard guard(mu_);
  if (region_lo_ == 0 || free_slots_.empty()) {
    return kNoPartition;
  }
  size_t slot = free_slots_.back();
  free_slots_.pop_back();
  auto part = std::make_unique<Partition>();
  part->id = static_cast<int>(partitions_.size());
  part->slot = slot;
  part->lo = region_lo_ + slot * slot_bytes_;
  part->hi = part->lo + slot_bytes_;
  part->bump = part->lo;
  slot_owner_[slot] = part.get();
  partitions_.push_back(std::move(part));
  return partitions_.back()->id;
}

bool SlabAllocator::PartitionSpan(int id, uintptr_t* lo, uintptr_t* hi) const {
  lxfi::SpinGuard guard(mu_);
  if (id < 0 || static_cast<size_t>(id) >= partitions_.size() || partitions_[id]->torn_down) {
    return false;
  }
  *lo = partitions_[id]->lo;
  *hi = partitions_[id]->hi;
  return true;
}

bool SlabAllocator::SealPartition(int id) {
  lxfi::SpinGuard guard(mu_);
  if (id < 0 || static_cast<size_t>(id) >= partitions_.size() || partitions_[id]->torn_down) {
    return false;
  }
  partitions_[id]->sealed = true;
  return true;
}

int SlabAllocator::PartitionOf(const void* ptr) const {
  lxfi::SpinGuard guard(mu_);
  Partition* part = PartitionOfLocked(reinterpret_cast<uintptr_t>(ptr));
  return part == nullptr ? kNoPartition : part->id;
}

SlabAllocator::Partition* SlabAllocator::PartitionOfLocked(uintptr_t addr) const {
  if (addr < region_lo_ || addr >= region_hi_) {
    return nullptr;
  }
  return slot_owner_[(addr - region_lo_) / slot_bytes_];
}

size_t SlabAllocator::partition_live_objects(int id) const {
  lxfi::SpinGuard guard(mu_);
  if (id < 0 || static_cast<size_t>(id) >= partitions_.size()) {
    return 0;
  }
  return partitions_[id]->live;
}

void* SlabAllocator::SlotPages(Partition* part, size_t bytes) {
  if (part->bump + bytes > part->hi) {
    return nullptr;
  }
  void* p = reinterpret_cast<void*>(part->bump);
  part->bump += bytes;
  return p;
}

size_t SlabAllocator::TeardownPartition(int id) {
  lxfi::SpinGuard guard(mu_);
  if (id < 0 || static_cast<size_t>(id) >= partitions_.size()) {
    return 0;
  }
  Partition* part = partitions_[id].get();
  if (part->torn_down) {
    return 0;
  }
  // Purge every CPU's magazine of objects in the slot: whole bins keyed to
  // this partition, plus in-circulation records for recycled objects. Safe
  // only because teardown runs from a quiescent context.
  for (CpuCache& cache : caches_) {
    for (CpuCache::Bin& bin : cache.bins) {
      if (bin.requested != 0 && bin.pid == id) {
        for (void* obj : bin.objs) {
          cache.cached_size.Erase(reinterpret_cast<uintptr_t>(obj));
        }
        bin.objs.clear();
        bin.requested = 0;
        bin.pid = kNoPartition;
      }
    }
    std::vector<uint64_t> stale;
    cache.cached_size.ForEach([&](uint64_t key, uint64_t) {
      if (key >= part->lo && key < part->hi) {
        stale.push_back(key);
      }
    });
    for (uint64_t key : stale) {
      cache.cached_size.Erase(key);
    }
  }
  // Drop live objects and slab pages in one range sweep — the bulk analogue
  // of a per-object kfree storm.
  size_t reclaimed = 0;
  for (auto it = live_.begin(); it != live_.end();) {
    if (it->first >= part->lo && it->first < part->hi) {
      it = live_.erase(it);
      ++reclaimed;
    } else {
      ++it;
    }
  }
  for (uintptr_t base = part->lo; base < part->hi; base += kPageSize) {
    auto pit = page_of_.find(base);
    if (pit != page_of_.end()) {
      delete pit->second;
      page_of_.erase(pit);
    }
  }
  for (auto& list : part->partial) {
    list.clear();
  }
  part->free_large.clear();
  part->live = 0;
  part->torn_down = true;
  // LIFO slot recycle keeps the layout deterministic: the next partition
  // reuses this exact span.
  slot_owner_[part->slot] = nullptr;
  free_slots_.push_back(part->slot);
  return reclaimed;
}

// --- allocation ---------------------------------------------------------------

void* SlabAllocator::Alloc(size_t size) { return AllocIn(kNoPartition, size); }

void* SlabAllocator::AllocIn(int id, size_t size) {
  if (size == 0) {
    return nullptr;
  }
  if (smp_cache_) {
    // Per-CPU magazine hit: the object is already recorded live with this
    // exact requested size (and partition), so no global state changes at
    // all.
    CpuCache& cache = caches_[lxfi::ThisShardIndex()];
    for (CpuCache::Bin& bin : cache.bins) {
      if (bin.requested == size && bin.pid == id && !bin.objs.empty()) {
        void* p = bin.objs.back();
        bin.objs.pop_back();
        std::memset(p, 0, size);  // clears the free mark too
        return p;
      }
    }
  }
  int ci = ClassIndexFor(size);
  void* p;
  {
    lxfi::SpinGuard guard(mu_);
    Partition* part = nullptr;
    if (id != kNoPartition) {
      if (id < 0 || static_cast<size_t>(id) >= partitions_.size() || partitions_[id]->torn_down) {
        return nullptr;
      }
      part = partitions_[id].get();
      if (part->sealed) {
        return nullptr;  // a quarantined principal gets no fresh memory
      }
    }
    p = ci >= 0 ? AllocFromClass(part, static_cast<size_t>(ci), size) : AllocLarge(part, size);
    if (p == nullptr && part != nullptr) {
      // Slot exhausted: fall back to the shared heap. The object is simply
      // outside the partition span, so only per-object capabilities cover it.
      p = ci >= 0 ? AllocFromClass(nullptr, static_cast<size_t>(ci), size)
                  : AllocLarge(nullptr, size);
    }
  }
  if (p != nullptr) {
    std::memset(p, 0, size);
  }
  return p;
}

void* SlabAllocator::AllocFromClass(Partition* part, size_t class_index, size_t requested) {
  auto& partial = part != nullptr ? part->partial[class_index] : partial_[class_index];
  if (partial.empty()) {
    void* page =
        part != nullptr ? SlotPages(part, kPageSize) : arena_->Allocate(kPageSize, kPageSize);
    if (page == nullptr) {
      return nullptr;
    }
    ++pages_allocated_;
    auto* slab = new SlabPage{class_index, {}, part};
    size_t object_size = kClassSizes[class_index];
    size_t count = kPageSize / object_size;
    // Populate the freelist back-to-front so allocations come out in
    // ascending address order, giving the adjacency the slab exploits need.
    for (size_t i = count; i > 0; --i) {
      slab->freelist.push_back(static_cast<char*>(page) + (i - 1) * object_size);
    }
    page_of_[reinterpret_cast<uintptr_t>(page)] = slab;
    partial.push_back(slab);
  }
  SlabPage* slab = partial.back();
  void* obj = slab->freelist.back();
  slab->freelist.pop_back();
  if (slab->freelist.empty()) {
    partial.pop_back();
  }
  live_[reinterpret_cast<uintptr_t>(obj)] = LiveObject{requested, class_index, 0};
  if (part != nullptr) {
    ++part->live;
  }
  return obj;
}

void* SlabAllocator::AllocLarge(Partition* part, size_t size) {
  size_t pages = (size + kPageSize - 1) / kPageSize;
  size_t bytes = pages * kPageSize;
  // Reuse the most recently freed run of exactly this size in this heap, so
  // a steady alloc/free cycle of one large size stops consuming pages.
  std::vector<FreeRun>& runs = part != nullptr ? part->free_large : free_large_;
  void* p = nullptr;
  for (size_t i = runs.size(); i > 0; --i) {
    if (runs[i - 1].bytes == bytes) {
      p = runs[i - 1].base;
      runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(i - 1));
      break;
    }
  }
  if (p == nullptr) {
    p = part != nullptr ? SlotPages(part, bytes) : arena_->Allocate(bytes, kPageSize);
    if (p == nullptr) {
      return nullptr;
    }
    pages_allocated_ += pages;
  }
  live_[reinterpret_cast<uintptr_t>(p)] = LiveObject{size, SIZE_MAX, bytes};
  if (part != nullptr) {
    ++part->live;
  }
  return p;
}

void SlabAllocator::Free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  if (smp_cache_) {
    CpuCache& cache = caches_[lxfi::ThisShardIndex()];
    uint64_t* rec = cache.cached_size.Find(reinterpret_cast<uintptr_t>(ptr));
    uint64_t fresh = 0;
    if (rec == nullptr) {
      // First sighting on this shard: classify under the lock. The live_
      // entry stays (same requested size), so introspection stays truthful.
      lxfi::SpinGuard guard(mu_);
      auto it = live_.find(reinterpret_cast<uintptr_t>(ptr));
      if (it == live_.end()) {
        Panic("kfree of unknown or already-freed pointer (slab corruption)");
      }
      if (it->second.class_index != SIZE_MAX) {
        Partition* part = PartitionOfLocked(reinterpret_cast<uintptr_t>(ptr));
        fresh = it->second.requested |
                (static_cast<uint64_t>((part == nullptr ? kNoPartition : part->id) + 1)
                 << kCachePidShift);
      }
    }
    // A known slab object (recorded here, or live): its first word is safe
    // to read, and carries the mark if any CPU already freed it.
    uint64_t record = rec != nullptr ? *rec : fresh;
    if (record != 0) {
      auto* mark = static_cast<uint64_t*>(ptr);
      if (*mark == FreeMark(ptr)) {
        Panic("kfree of pointer already free in a per-CPU slab cache (double free)");
      }
      *mark = FreeMark(ptr);
      size_t requested = static_cast<size_t>(record & kCacheSizeMask);
      int pid = static_cast<int>(record >> kCachePidShift) - 1;
      for (CpuCache::Bin& bin : cache.bins) {
        if (((bin.requested == requested && bin.pid == pid) ||
             (rec == nullptr && bin.requested == 0)) &&
            bin.objs.size() < kCacheBinCap) {
          bin.requested = requested;
          bin.pid = pid;
          bin.objs.push_back(ptr);
          if (rec == nullptr) {
            cache.cached_size.Insert(reinterpret_cast<uintptr_t>(ptr), fresh);
          }
          return;
        }
      }
      // No bin: really free it (the mark stays until the next kmalloc), and
      // drop the record so a reallocation with a different size cannot
      // alias it.
      cache.cached_size.Erase(reinterpret_cast<uintptr_t>(ptr));
    }
  }
  FreeGlobal(ptr);
}

void SlabAllocator::FreeGlobal(void* ptr) {
  lxfi::SpinGuard guard(mu_);
  auto it = live_.find(reinterpret_cast<uintptr_t>(ptr));
  if (it == live_.end()) {
    Panic("kfree of unknown or already-freed pointer (slab corruption)");
  }
  LiveObject obj = it->second;
  live_.erase(it);
  Partition* part = PartitionOfLocked(reinterpret_cast<uintptr_t>(ptr));
  if (part != nullptr && part->live > 0) {
    --part->live;
  }
  if (obj.class_index == SIZE_MAX) {
    // Large allocation: a bump arena cannot take the pages back, so the run
    // waits for the next large allocation of the same size in the same heap
    // (AllocLarge). Partition slot pages come back wholesale at
    // TeardownPartition.
    (part != nullptr ? part->free_large : free_large_).push_back(FreeRun{obj.large_bytes, ptr});
    return;
  }
  uintptr_t page_base = reinterpret_cast<uintptr_t>(ptr) & ~(kPageSize - 1);
  auto pit = page_of_.find(page_base);
  KERN_BUG_ON(pit == page_of_.end());
  SlabPage* slab = pit->second;
  if (slab->freelist.empty()) {
    auto& partial = slab->part != nullptr ? slab->part->partial[slab->class_index]
                                          : partial_[slab->class_index];
    partial.push_back(slab);
  }
  slab->freelist.push_back(ptr);
}

size_t SlabAllocator::AllocSize(const void* ptr) const {
  lxfi::SpinGuard guard(mu_);
  auto it = live_.find(reinterpret_cast<uintptr_t>(ptr));
  return it == live_.end() ? 0 : it->second.requested;
}

size_t SlabAllocator::UsableSize(const void* ptr) const {
  lxfi::SpinGuard guard(mu_);
  auto it = live_.find(reinterpret_cast<uintptr_t>(ptr));
  if (it == live_.end()) {
    return 0;
  }
  const LiveObject& obj = it->second;
  return obj.class_index == SIZE_MAX ? obj.large_bytes : kClassSizes[obj.class_index];
}

bool SlabAllocator::IsLive(const void* ptr) const {
  lxfi::SpinGuard guard(mu_);
  return live_.count(reinterpret_cast<uintptr_t>(ptr)) != 0;
}

}  // namespace kern
