#include "src/kernel/fs/pagecache.h"

#include <thread>

#include "src/base/trace.h"
#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"

namespace kern {

PageCache::PageCache(Kernel* kernel) : kernel_(kernel) {
  // Kernel-text completion handler for writeback bios. Registered on the
  // dispatch table but deliberately NOT exported through the symbol table:
  // no module can import it, so no module principal ever holds a CALL
  // capability for it — a forged bio->end_io pointing here is exactly the
  // attack the indirect-call writer-set check blocks (blockfs exploit test).
  end_io_addr_ = kernel->funcs().Register<void(Bio*)>(TextKind::kKernelText, "pagecache_end_io",
                                                      &PageCache::OnWritebackDone);
  kernel->counters().Register(this, "pagecache", &stats_);
}

PageCache::~PageCache() {
  kernel_->counters().Unregister(this);
  // Subsystem teardown: no concurrent reader can exist. Drain retirements
  // first (they capture this kernel's slab), then free what remains.
  lxfi::EpochReclaimer::Global().Synchronize();
  for (const OwnedIndex& index : indexes_) {
    for (uint64_t b = 0; b < index.sectors; ++b) {
      if (CachedPage* p = index.slots[b]) {
        p->~CachedPage();
        kernel_->slab().Free(p);
      }
    }
  }
}

void PageCache::LockBusy(CachedPage* page) {
  int spins = 0;
  // fetch_or spinlock on the busy bit: setting it again while held is a
  // no-op, so only the transition 0 -> 1 wins.
  while ((__atomic_fetch_or(&page->flags, kPcBusy, __ATOMIC_ACQUIRE) & kPcBusy) != 0) {
    if (LXFI_UNLIKELY(++spins > 128)) {
      std::this_thread::yield();
      spins = 0;
    } else {
      lxfi::CpuRelax();
    }
  }
}

void PageCache::UnlockBusy(CachedPage* page) {
  __atomic_fetch_and(&page->flags, ~kPcBusy, __ATOMIC_RELEASE);
}

int PageCache::Submit(BlockDevice* dev, Bio* bio) {
  try {
    return GetBlockLayer(kernel_)->SubmitBio(dev, bio);
  } catch (const KernelPanic&) {
    throw;
  } catch (...) {
    return -kEio;
  }
}

CachedPage* PageCache::Fill(BlockDevice* dev, uint64_t block) {
  void* mem = kernel_->slab().Alloc(sizeof(CachedPage));
  if (mem == nullptr) {
    return nullptr;
  }
  CachedPage* p = new (mem) CachedPage();
  p->dev = dev;
  p->block = block;
  Bio bio;
  bio.sector = block;
  bio.size = kPcBlockSize;
  bio.data = p->data;
  bio.write = false;
  if (Submit(dev, &bio) != 0) {
    p->~CachedPage();
    kernel_->slab().Free(p);
    return nullptr;
  }
  return p;
}

CachedPage* PageCache::Grab(BlockDevice* dev, uint64_t block) {
  if (dev == nullptr || block >= dev->sectors) {
    return nullptr;
  }
  // Hit path: two acquire loads, no lock, no allocation.
  CachedPage** slots = __atomic_load_n(&dev->pages, __ATOMIC_ACQUIRE);
  CachedPage* p = slots != nullptr ? __atomic_load_n(&slots[block], __ATOMIC_ACQUIRE) : nullptr;
  uint64_t locked_hit = 0;
  if (p == nullptr) {
    lxfi::SpinGuard guard(dev->page_lock);
    slots = __atomic_load_n(&dev->pages, __ATOMIC_RELAXED);
    if (slots == nullptr) {
      auto owned = std::make_unique<CachedPage*[]>(dev->sectors);
      slots = owned.get();
      {
        lxfi::SpinGuard indexes_guard(indexes_mu_);
        indexes_.push_back(OwnedIndex{std::move(owned), dev->sectors});
      }
      __atomic_store_n(&dev->pages, slots, __ATOMIC_RELEASE);
    }
    // A concurrent miss may have filled the slot while this one waited.
    p = __atomic_load_n(&slots[block], __ATOMIC_RELAXED);
    if (p == nullptr) {
      p = Fill(dev, block);
      if (p != nullptr) {
        p->holds = 1;
        __atomic_store_n(&slots[block], p, __ATOMIC_RELEASE);
        stats_.Count(PageCacheCounter::kMisses);
        TRACE_EVENT(lxfi::TraceEvent::kPagecacheMiss, 0, block, 0);
      }
      return p;
    }
    locked_hit = 1;
  }
  __atomic_add_fetch(&p->holds, 1u, __ATOMIC_RELAXED);
  stats_.Count(PageCacheCounter::kHits);
  TRACE_EVENT(lxfi::TraceEvent::kPagecacheHit, 0, block, locked_hit);
  return p;
}

CachedPage* PageCache::Bget(BlockDevice* dev, uint64_t block) { return Grab(dev, block); }

CachedPage* PageCache::Bwrite(BlockDevice* dev, uint64_t block) {
  CachedPage* p = Grab(dev, block);
  if (p != nullptr) {
    LockBusy(p);
  }
  return p;
}

void PageCache::MarkDirty(CachedPage* page) {
  // Dirtying requires the exclusive write window: without busy held the
  // dirty bit could race a concurrent writeback's clear and lose the write.
  KERN_BUG_ON((FlagsOf(page) & kPcBusy) == 0);
  __atomic_fetch_or(&page->flags, kPcDirty, __ATOMIC_RELEASE);
}

int PageCache::Brelse(CachedPage* page) {
  if (page == nullptr) {
    return -kEinval;
  }
  __atomic_sub_fetch(&page->holds, 1u, __ATOMIC_RELAXED);
  return 0;
}

int PageCache::BwriteDone(CachedPage* page) {
  if (page == nullptr || (FlagsOf(page) & kPcBusy) == 0) {
    return -kEinval;
  }
  UnlockBusy(page);
  __atomic_sub_fetch(&page->holds, 1u, __ATOMIC_RELAXED);
  return 0;
}

void PageCache::OnWritebackDone(Bio* bio) {
  // Success clears dirty; the bit stays set on failure so the page is
  // retried by the next Sync.
  if (bio->status == 0) {
    auto* page = static_cast<CachedPage*>(bio->bi_private);
    __atomic_fetch_and(&page->flags, ~kPcDirty, __ATOMIC_RELEASE);
  }
}

int PageCache::Sync(BlockDevice* dev) {
  if (dev == nullptr) {
    return -kEinval;
  }
  CachedPage** slots = __atomic_load_n(&dev->pages, __ATOMIC_ACQUIRE);
  if (slots == nullptr) {
    return 0;
  }
  int written = 0;
  int first_error = 0;
  for (uint64_t b = 0; b < dev->sectors; ++b) {
    CachedPage* p = __atomic_load_n(&slots[b], __ATOMIC_ACQUIRE);
    if (p == nullptr || (FlagsOf(p) & kPcDirty) == 0) {
      continue;
    }
    // The busy bit excludes the module write window for the duration of
    // the copy-out: the device never sees a torn block.
    LockBusy(p);
    if ((FlagsOf(p) & kPcDirty) != 0) {
      Bio bio;
      bio.sector = b;
      bio.size = kPcBlockSize;
      bio.data = p->data;
      bio.write = true;
      bio.end_io = end_io_addr_;
      bio.bi_private = p;
      int rc = Submit(dev, &bio);
      if (rc == 0) {
        stats_.Count(PageCacheCounter::kWritebacks);
        ++written;
      } else {
        stats_.Count(PageCacheCounter::kIoErrors);
        first_error = first_error != 0 ? first_error : rc;
      }
    }
    UnlockBusy(p);
  }
  return first_error != 0 ? first_error : written;
}

void PageCache::Invalidate(BlockDevice* dev) {
  CachedPage** slots = dev == nullptr ? nullptr : __atomic_load_n(&dev->pages, __ATOMIC_ACQUIRE);
  if (slots == nullptr) {
    return;
  }
  Kernel* kernel = kernel_;
  lxfi::SpinGuard guard(dev->page_lock);
  for (uint64_t b = 0; b < dev->sectors; ++b) {
    CachedPage* p = __atomic_exchange_n(&slots[b], nullptr, __ATOMIC_RELAXED);
    if (p == nullptr) {
      continue;
    }
    // The caller guarantees no holder of this device's pages remains.
    KERN_BUG_ON(__atomic_load_n(&p->holds, __ATOMIC_RELAXED) != 0);
    // A lock-free reader may still hold the slot's old pointer: wait out
    // the grace period.
    lxfi::EpochReclaimer::Global().Retire([kernel, p] {
      p->~CachedPage();
      kernel->slab().Free(p);
    });
  }
}

PageCache* GetPageCache(Kernel* kernel) { return kernel->EnsureSubsystem<PageCache>(kernel); }

}  // namespace kern
