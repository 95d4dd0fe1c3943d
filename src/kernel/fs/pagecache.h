// Kernel-owned buffer/page cache: one page per (block device, block number).
//
// The block-backed filesystem path (src/modules/jexfs) never reads the disk
// directly for its home blocks: it goes through this cache, which gives the
// enforcement story a third shared-object family after skbs and dentries.
// The cache is kernel memory; modules get at a cached block only through the
// pc_* exports (src/lxfi/kernel_api.cc):
//
//   pc_bget        shared hold for reading; mints a REF for the page, never
//                  a WRITE — a module that scribbles a page it only read is
//                  caught by the store guard and attributed via the page's
//                  writer set.
//   pc_bwrite      exclusive hold (the page's busy bit); copies WRITE over
//                  exactly the 512-byte data window, nothing else — the
//                  dev/block/flags header stays kernel-only.
//   pc_mark_dirty  requires the write window; tags the page for writeback.
//   pc_bwrite_done transfers the data-window WRITE back (revoking it from
//                  the module) and drops the exclusive hold.
//   pc_brelse      drops a shared hold (REF check only; REFs are retained).
//   pc_sync        writes every dirty page of a device back via SubmitBio;
//                  the completion runs through the same checked-indirect-
//                  call end_io path module completions use.
//   pc_invalidate  drops every page of a device (unmount).
//
// Index: each device carries one array of `dev->sectors` page pointers
// (BlockDevice::pages), allocated from host memory on its first access and
// owned by the cache, which frees it at teardown without touching the
// device (DmRemove may have freed it). A hit is an acquire load of the array
// and one of the slot. A miss fills under the device's own lock
// (BlockDevice::page_lock, never a cache-wide one: a dm target's map may
// pc_bget the device beneath it) and publishes the filled page with one
// release store. Sync and Invalidate walk only that device's slots. The
// busy bit (acquire fetch_or / release clear) excludes writeback from the
// module write window, which keeps the 3-CPU read/writeback storm
// TSan-clean; invalidated pages wait out an epoch grace period because a
// lock-free reader may still hold their pointer.
//
// Failures: a fill whose bio fails, or is killed by a violation inside a dm
// target's map, returns null and publishes nothing. A failed writeback
// leaves its page dirty and counts one io_error; Sync writes the remaining
// pages, then returns the first negative errno, and the next Sync retries
// the page.
//
// There is no eviction: the cache is bounded by the (small, simulated)
// devices it fronts, and pc_invalidate reclaims a device's pages wholesale.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/counters.h"
#include "src/base/sync.h"
#include "src/kernel/block/block.h"

namespace kern {

class Kernel;

inline constexpr uint32_t kPcBlockSize = kSectorSize;

// CachedPage::flags bits (atomic).
inline constexpr uint32_t kPcDirty = 1u << 0;  // needs writeback
inline constexpr uint32_t kPcBusy = 1u << 1;   // exclusive writer/writeback

// Kernel-owned cache entry, published only once `data` holds the block.
// dev/block are immutable after publication; flags and holds are atomic on
// both sides. Modules receive a REF for the whole struct but a WRITE
// capability only ever covers `data` — keep it last so the header cannot be
// reached through the data window by an off-by-one.
struct CachedPage {
  BlockDevice* dev = nullptr;
  uint64_t block = 0;
  uint32_t flags = 0;  // kPc* bits (atomic)
  uint32_t holds = 0;  // outstanding bget/bwrite holds (atomic)
  uint8_t data[kPcBlockSize] = {};
};

enum class PageCacheCounter { kHits, kMisses, kWritebacks, kIoErrors, kCount };
inline const char* CounterName(PageCacheCounter c) {
  return lxfi::CounterNameIn(c, {"hits", "misses", "writebacks", "io_errors"});
}

class PageCache {
 public:
  explicit PageCache(Kernel* kernel);
  ~PageCache();

  // --- module-facing surface (exported as pc_*) --------------------------
  // Shared hold; fills from the device on a miss. Null on I/O error or
  // when `block` is past the device's end.
  CachedPage* Bget(BlockDevice* dev, uint64_t block);
  // Exclusive hold: owns the page's busy bit until BwriteDone.
  CachedPage* Bwrite(BlockDevice* dev, uint64_t block);
  void MarkDirty(CachedPage* page);
  int Brelse(CachedPage* page);
  int BwriteDone(CachedPage* page);
  // Writes every dirty page of `dev` back through SubmitBio. Returns the
  // number of pages written, or the first failed page's negative errno.
  int Sync(BlockDevice* dev);
  // Drops every page of `dev`. No hold may be outstanding.
  void Invalidate(BlockDevice* dev);

  // --- stats (registered as "pagecache") --------------------------------
  uint64_t hits() const { return stats_.count(PageCacheCounter::kHits); }
  uint64_t misses() const { return stats_.count(PageCacheCounter::kMisses); }
  uint64_t writebacks() const { return stats_.count(PageCacheCounter::kWritebacks); }
  uint64_t io_errors() const { return stats_.count(PageCacheCounter::kIoErrors); }

  // The kernel-text address writeback completions dispatch through; the
  // forged-end_io exploit test uses it as the hijack target.
  uintptr_t end_io_addr_for_test() const { return end_io_addr_; }

  static uint32_t FlagsOf(const CachedPage* page) {
    return __atomic_load_n(&page->flags, __ATOMIC_ACQUIRE);
  }

 private:
  // A device index the cache allocated; kept apart from the device so
  // teardown never dereferences one.
  struct OwnedIndex {
    std::unique_ptr<CachedPage*[]> slots;
    uint64_t sectors;
  };

  // Finds or fills the page and takes one hold.
  CachedPage* Grab(BlockDevice* dev, uint64_t block);
  // Reads `block` into a new, unpublished page; null on failure.
  CachedPage* Fill(BlockDevice* dev, uint64_t block);
  // SubmitBio for the cache's own bios: a violation that kills the request
  // inside a dm target's map fails it with -EIO; kernel panics propagate.
  int Submit(BlockDevice* dev, Bio* bio);
  // Spins until the busy bit is acquired.
  static void LockBusy(CachedPage* page);
  static void UnlockBusy(CachedPage* page);
  static void OnWritebackDone(Bio* bio);

  Kernel* kernel_;
  uintptr_t end_io_addr_ = 0;
  lxfi::PerCpuCounters<PageCacheCounter> stats_;
  lxfi::Spinlock indexes_mu_;  // guards indexes_ (never held across I/O)
  std::vector<OwnedIndex> indexes_;
};

PageCache* GetPageCache(Kernel* kernel);

// Buffer-head exports: bget/brelse move REFs only; bwrite/bwrite_done
// bracket the exclusive WRITE window over the page payload.
inline constexpr KernelSymbol<CachedPage*(BlockDevice*, uint64_t block)> kPcBget{"pc_bget"};
inline constexpr KernelSymbol<int(CachedPage*)> kPcBrelse{"pc_brelse"};
inline constexpr KernelSymbol<CachedPage*(BlockDevice*, uint64_t block)> kPcBwrite{"pc_bwrite"};
inline constexpr KernelSymbol<int(CachedPage*)> kPcBwriteDone{"pc_bwrite_done"};
inline constexpr KernelSymbol<void(CachedPage*)> kPcMarkDirty{"pc_mark_dirty"};
inline constexpr KernelSymbol<int(BlockDevice*)> kPcSync{"pc_sync"};
inline constexpr KernelSymbol<void(BlockDevice*)> kPcInvalidate{"pc_invalidate"};

}  // namespace kern
