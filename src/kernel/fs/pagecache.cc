#include "src/kernel/fs/pagecache.h"

#include <thread>
#include <vector>

#include "src/base/hash.h"
#include "src/base/trace.h"
#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"

namespace kern {
namespace {

// Spins until `page`'s flags contain every bit of `want` (acquire: the data
// a waiter reads afterwards was written before the release-store of the bit).
void WaitFlags(const CachedPage* page, uint32_t want) {
  int spins = 0;
  while ((PageCache::FlagsOf(page) & want) != want) {
    if (LXFI_UNLIKELY(++spins > 128)) {
      std::this_thread::yield();
      spins = 0;
    } else {
      lxfi::CpuRelax();
    }
  }
}

}  // namespace

PageCache::PageCache(Kernel* kernel) : kernel_(kernel) {
  // Kernel-text completion handler for writeback bios. Registered on the
  // dispatch table but deliberately NOT exported through the symbol table:
  // no module can import it, so no module principal ever holds a CALL
  // capability for it — a forged bio->end_io pointing here is exactly the
  // attack the indirect-call writer-set check blocks (blockfs exploit test).
  PageCache* pc = this;
  end_io_addr_ = kernel->funcs().Register<void(Bio*)>(
      TextKind::kKernelText, "pagecache_end_io", [pc](Bio* bio) { pc->OnWritebackDone(bio); });
}

PageCache::~PageCache() {
  // Subsystem teardown: no concurrent prober can exist. Drain retirements
  // first (they capture this kernel's slab), then free what remains.
  lxfi::EpochReclaimer::Global().Synchronize();
  for (Shard& s : shards_) {
    s.index.ForEach([this](uint64_t, CachedPage* const& head) {
      for (CachedPage* p = head; p != nullptr;) {
        CachedPage* next = p->hash_next;
        p->~CachedPage();
        kernel_->slab().Free(p);
        p = next;
      }
    });
  }
  lxfi::EpochReclaimer::Global().Synchronize();
}

uint64_t PageCache::PageKey(const BlockDevice* dev, uint64_t block) const {
  uint64_t h = lxfi::HashCombine(lxfi::Mix64(reinterpret_cast<uint64_t>(dev)), lxfi::Mix64(block));
  if (LXFI_UNLIKELY(hash_buckets_ != 0)) {
    h = h % hash_buckets_ + 1;
  }
  return h + (h == 0);
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

CachedPage* PageCache::Grab(BlockDevice* dev, uint64_t block) {
  if (dev == nullptr || block >= dev->sectors) {
    return nullptr;
  }
  uint64_t key = PageKey(dev, block);
  Shard& shard = ShardFor(key);
  Stat& stat = stats_[lxfi::ThisShardIndex()];
  // Hit path: one seqlock-validated probe, an immutable-field chain walk,
  // no lock, no allocation. Retry tracing brackets the probe only while
  // tracing is live — the disabled path adds one relaxed load.
  const bool tracing = LXFI_UNLIKELY(lxfi::TraceBuffer::EnabledRelaxed());
  const uint64_t retries_before = tracing ? stat.retries.value() : 0;
  CachedPage* p = nullptr;
  if (shard.index.FindValueConcurrent(key, &p, &stat.retries)) {
    while (p != nullptr && !(p->dev == dev && p->block == block)) {
      p = lxfi::flat_chain::Next(&p->hash_next);
    }
  } else {
    p = nullptr;
  }
  if (tracing && stat.retries.value() != retries_before) {
    TRACE_EVENT(lxfi::TraceEvent::kPagecacheRetry, 0, block,
                stat.retries.value() - retries_before);
  }
  bool fill = false;
  if (p != nullptr) {
    __atomic_add_fetch(&p->holds, 1u, __ATOMIC_RELAXED);
    ++stat.hits;
    TRACE_EVENT(lxfi::TraceEvent::kPagecacheHit, 0, block, 0);
  } else {
    lxfi::SpinGuard guard(shard.mu);
    // The lock-free miss may have raced a concurrent insert; the locked
    // probe is authoritative.
    CachedPage* const* head = shard.index.Find(key);
    p = head != nullptr ? *head : nullptr;
    while (p != nullptr && !(p->dev == dev && p->block == block)) {
      p = lxfi::flat_chain::Next(&p->hash_next);
    }
    if (p != nullptr) {
      __atomic_add_fetch(&p->holds, 1u, __ATOMIC_RELAXED);
      ++stat.hits;
      TRACE_EVENT(lxfi::TraceEvent::kPagecacheHit, 0, block, 1);
    } else {
      void* mem = kernel_->slab().Alloc(sizeof(CachedPage));
      KERN_BUG_ON(mem == nullptr);
      p = new (mem) CachedPage();
      p->dev = dev;
      p->block = block;
      p->key = key;
      p->owner = this;
      p->holds = 1;
      // Published not-yet-uptodate: concurrent finders wait on the flag
      // below while this thread fills outside the shard lock.
      lxfi::flat_chain::InsertLocked<&CachedPage::hash_next>(shard.index, key, p);
      fill = true;
      ++stat.misses;
      TRACE_EVENT(lxfi::TraceEvent::kPagecacheMiss, 0, block, 0);
    }
  }
  if (fill) {
    Bio bio;
    bio.sector = block;
    bio.size = kPcBlockSize;
    bio.data = p->data;
    bio.write = false;
    // Bounds were pre-checked against dev->sectors, and dm targets remap
    // in-range sectors to in-range sectors, so the fill cannot fail.
    int rc = GetBlockLayer(kernel_)->SubmitBio(dev, &bio);
    KERN_BUG_ON(rc != 0);
    __atomic_fetch_or(&p->flags, kPcUptodate, __ATOMIC_RELEASE);
  } else {
    WaitFlags(p, kPcUptodate);
  }
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
  auto* page = static_cast<CachedPage*>(bio->bi_private);
  if (bio->status == 0) {
    // Success clears dirty; the bit stays set on failure so the page is
    // retried by the next Sync.
    __atomic_fetch_and(&page->flags, ~kPcDirty, __ATOMIC_RELEASE);
  } else {
    page->owner->io_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

int PageCache::Sync(BlockDevice* dev) {
  if (dev == nullptr) {
    return -kEinval;
  }
  BlockLayer* block = GetBlockLayer(kernel_);
  int written = 0;
  std::vector<CachedPage*> pages;
  for (Shard& shard : shards_) {
    pages.clear();
    {
      lxfi::SpinGuard guard(shard.mu);
      shard.index.ForEach([&](uint64_t, CachedPage* const& head) {
        for (CachedPage* p = head; p != nullptr; p = p->hash_next) {
          if (p->dev == dev) {
            pages.push_back(p);
          }
        }
      });
    }
    for (CachedPage* p : pages) {
      if ((FlagsOf(p) & kPcDirty) == 0) {
        continue;
      }
      // The busy bit excludes the module write window for the duration of
      // the copy-out: the device never sees a torn block.
      LockBusy(p);
      if ((FlagsOf(p) & kPcDirty) != 0) {
        Bio bio;
        bio.sector = p->block;
        bio.size = kPcBlockSize;
        bio.data = p->data;
        bio.write = true;
        bio.end_io = end_io_addr_;
        bio.bi_private = p;
        int rc = block->SubmitBio(dev, &bio);
        KERN_BUG_ON(rc != 0);
        writebacks_.fetch_add(1, std::memory_order_relaxed);
        ++written;
      }
      UnlockBusy(p);
    }
  }
  return written;
}

void PageCache::Invalidate(BlockDevice* dev) {
  if (dev == nullptr) {
    return;
  }
  Kernel* kernel = kernel_;
  for (Shard& shard : shards_) {
    std::vector<CachedPage*> victims;
    {
      lxfi::SpinGuard guard(shard.mu);
      shard.index.ForEach([&](uint64_t, CachedPage* const& head) {
        for (CachedPage* p = head; p != nullptr; p = p->hash_next) {
          if (p->dev == dev) {
            victims.push_back(p);
          }
        }
      });
      for (CachedPage* p : victims) {
        lxfi::flat_chain::UnlinkLocked<&CachedPage::hash_next>(shard.index, p->key, p);
      }
    }
    for (CachedPage* p : victims) {
      // The caller guarantees no holder of this device's pages remains.
      KERN_BUG_ON(__atomic_load_n(&p->holds, __ATOMIC_RELAXED) != 0);
      // A lock-free prober of a neighboring (same-shard) chain may still
      // hold a pointer: wait out the grace period.
      lxfi::EpochReclaimer::Global().Retire([kernel, p] {
        p->~CachedPage();
        kernel->slab().Free(p);
      });
    }
  }
}

PageCache* GetPageCache(Kernel* kernel) { return kernel->EnsureSubsystem<PageCache>(kernel); }

}  // namespace kern
