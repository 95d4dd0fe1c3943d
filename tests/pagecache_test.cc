// Page cache unit tests: a differential check against a naive block map
// (the lock-free index must behave exactly like the obvious one), stats
// accounting, several devices in one cache, fill and writeback failures
// through a failing dm target, and a 3-CPU read/writeback storm that runs
// under TSan in CI (busy-bit exclusion between the module write window and
// Sync's copy-out is what keeps it clean).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/block/block.h"
#include "src/kernel/fs/pagecache.h"
#include "src/kernel/kernel.h"
#include "src/kernel/smp.h"
#include "src/lxfi/violation.h"

namespace {

constexpr uint64_t kSectors = 64;

struct PcRig {
  PcRig() {
    kernel = std::make_unique<kern::Kernel>();
    block = kern::GetBlockLayer(kernel.get());
    dev = NewDisk("pcdisk0", 0xA5);
    pc = kern::GetPageCache(kernel.get());
  }

  // A RAM disk whose sector s is filled with (s ^ salt).
  kern::BlockDevice* NewDisk(const std::string& name, uint8_t salt) {
    kern::BlockDevice* disk = block->CreateRamDisk(name, kSectors);
    for (uint64_t s = 0; s < kSectors; ++s) {
      std::memset(disk->backing + s * kern::kSectorSize, static_cast<int>(s ^ salt),
                  kern::kSectorSize);
    }
    return disk;
  }

  std::unique_ptr<kern::Kernel> kernel;
  kern::BlockLayer* block = nullptr;
  kern::BlockDevice* dev = nullptr;
  kern::PageCache* pc = nullptr;
};

// LCG with the low (short-period) bits discarded.
uint64_t Lcg(uint64_t* s) {
  *s = *s * 6364136223846793005ull + 1442695040888963407ull;
  return *s >> 17;
}

// Drives a random bget/bwrite/sync sequence against the cache and an
// std::map reference model in lockstep.
void RunDifferential(uint64_t seed) {
  PcRig rig;
  // Reference model: expected content of each cached block, and of the disk.
  std::map<uint64_t, std::array<uint8_t, kern::kSectorSize>> model;
  auto expected = [&](uint64_t b) {
    auto it = model.find(b);
    if (it != model.end()) {
      return it->second;
    }
    std::array<uint8_t, kern::kSectorSize> init;
    init.fill(static_cast<uint8_t>(b ^ 0xA5));
    return init;
  };

  uint64_t s = seed;
  for (int op = 0; op < 4000; ++op) {
    uint64_t b = Lcg(&s) % kSectors;
    switch (Lcg(&s) % 4) {
      case 0:
      case 1: {  // read through the cache and verify against the model
        kern::CachedPage* p = rig.pc->Bget(rig.dev, b);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->dev, rig.dev);
        EXPECT_EQ(p->block, b);
        auto want = expected(b);
        ASSERT_EQ(std::memcmp(p->data, want.data(), kern::kSectorSize), 0)
            << "block " << b << " diverged from the naive model at op " << op;
        // Pointer stability: the same block resolves to the same page.
        kern::CachedPage* again = rig.pc->Bget(rig.dev, b);
        EXPECT_EQ(again, p);
        EXPECT_EQ(rig.pc->Brelse(again), 0);
        EXPECT_EQ(rig.pc->Brelse(p), 0);
        break;
      }
      case 2: {  // write through the exclusive window
        kern::CachedPage* p = rig.pc->Bwrite(rig.dev, b);
        ASSERT_NE(p, nullptr);
        auto next = expected(b);
        for (size_t i = 0; i < 8; ++i) {
          next[(Lcg(&s) % kern::kSectorSize)] = static_cast<uint8_t>(Lcg(&s));
        }
        std::memcpy(p->data, next.data(), kern::kSectorSize);
        rig.pc->MarkDirty(p);
        EXPECT_EQ(rig.pc->BwriteDone(p), 0);
        model[b] = next;
        break;
      }
      default: {  // writeback: the disk must now match the model exactly
        int written = rig.pc->Sync(rig.dev);
        ASSERT_GE(written, 0);
        for (uint64_t blk = 0; blk < kSectors; ++blk) {
          auto want = expected(blk);
          ASSERT_EQ(std::memcmp(rig.dev->backing + blk * kern::kSectorSize, want.data(),
                                kern::kSectorSize),
                    0)
              << "post-sync disk mismatch at block " << blk << ", op " << op;
        }
        break;
      }
    }
  }
  EXPECT_EQ(rig.pc->io_errors(), 0u);
}

TEST(PageCache, DifferentialAgainstNaiveMap) { RunDifferential(0xC0FFEE); }

TEST(PageCache, StatsAccounting) {
  PcRig rig;
  EXPECT_EQ(rig.pc->hits() + rig.pc->misses(), 0u);
  for (uint64_t b = 0; b < 10; ++b) {
    kern::CachedPage* p = rig.pc->Bget(rig.dev, b);
    ASSERT_NE(p, nullptr);
    rig.pc->Brelse(p);
  }
  EXPECT_EQ(rig.pc->misses(), 10u);
  for (uint64_t b = 0; b < 10; ++b) {
    kern::CachedPage* p = rig.pc->Bget(rig.dev, b);
    ASSERT_NE(p, nullptr);
    rig.pc->Brelse(p);
  }
  EXPECT_EQ(rig.pc->misses(), 10u);
  EXPECT_EQ(rig.pc->hits(), 10u);
  EXPECT_EQ(rig.pc->writebacks(), 0u);
  kern::CachedPage* p = rig.pc->Bwrite(rig.dev, 3);
  p->data[0] = 0x5A;
  rig.pc->MarkDirty(p);
  rig.pc->BwriteDone(p);
  EXPECT_EQ(rig.pc->Sync(rig.dev), 1);
  EXPECT_EQ(rig.pc->writebacks(), 1u);
  EXPECT_EQ(rig.dev->backing[3 * kern::kSectorSize], 0x5A);
  // Clean pages are not rewritten.
  EXPECT_EQ(rig.pc->Sync(rig.dev), 0);
  EXPECT_EQ(rig.pc->writebacks(), 1u);
}

TEST(PageCache, InvalidateDropsDeviceAndRefills) {
  PcRig rig;
  kern::CachedPage* p = rig.pc->Bwrite(rig.dev, 7);
  std::memset(p->data, 0x77, kern::kSectorSize);
  rig.pc->MarkDirty(p);
  rig.pc->BwriteDone(p);
  ASSERT_EQ(rig.pc->Sync(rig.dev), 1);
  rig.pc->Invalidate(rig.dev);
  uint64_t misses = rig.pc->misses();
  kern::CachedPage* again = rig.pc->Bget(rig.dev, 7);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(rig.pc->misses(), misses + 1) << "invalidate must drop the cached page";
  EXPECT_EQ(again->data[0], 0x77) << "refill reads what Sync made durable";
  rig.pc->Brelse(again);
}

// Two RAM disks in one cache: each device's pages live in its own index, so
// syncing or invalidating one never touches the other.
TEST(PageCache, DevicesAreIndependent) {
  PcRig rig;
  kern::BlockDevice* a = rig.dev;
  kern::BlockDevice* b = rig.NewDisk("pcdisk1", 0x3C);
  for (kern::BlockDevice* dev : {a, b}) {
    kern::CachedPage* p = rig.pc->Bwrite(dev, 5);
    ASSERT_NE(p, nullptr);
    std::memset(p->data, dev == a ? 0xAA : 0xBB, kern::kSectorSize);
    rig.pc->MarkDirty(p);
    rig.pc->BwriteDone(p);
  }
  EXPECT_EQ(rig.pc->Sync(a), 1) << "Sync(a) writes only a's dirty page";
  EXPECT_EQ(a->backing[5 * kern::kSectorSize], 0xAA);
  EXPECT_EQ(b->backing[5 * kern::kSectorSize], 5 ^ 0x3C) << "b's disk is untouched";
  kern::CachedPage* pb = rig.pc->Bget(b, 5);
  ASSERT_NE(pb, nullptr);
  EXPECT_NE(kern::PageCache::FlagsOf(pb) & kern::kPcDirty, 0u) << "b's page is still dirty";
  EXPECT_EQ(pb->data[0], 0xBB);
  rig.pc->Brelse(pb);

  rig.pc->Invalidate(a);
  uint64_t hits = rig.pc->hits();
  uint64_t misses = rig.pc->misses();
  pb = rig.pc->Bget(b, 5);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(rig.pc->hits(), hits + 1) << "invalidating a leaves b cached";
  EXPECT_EQ(rig.pc->misses(), misses);
  rig.pc->Brelse(pb);
  EXPECT_EQ(rig.pc->Sync(b), 1);
  EXPECT_EQ(b->backing[5 * kern::kSectorSize], 0xBB);
}

TEST(PageCache, BlockPastTheEndIsRefusedUncounted) {
  PcRig rig;
  EXPECT_EQ(rig.pc->Bget(rig.dev, kSectors), nullptr);
  EXPECT_EQ(rig.pc->Bwrite(rig.dev, kSectors), nullptr);
  EXPECT_EQ(rig.pc->hits() + rig.pc->misses(), 0u);
  kern::CachedPage* last = rig.pc->Bget(rig.dev, kSectors - 1);
  ASSERT_NE(last, nullptr);
  rig.pc->Brelse(last);
  EXPECT_EQ(rig.pc->misses(), 1u);
}

// A kernel-text dm target over the rig's disk that remaps every bio until
// told to fail one sector, either with -EIO or by throwing the violation an
// isolation policy raises when it kills a request inside a target's map.
struct FailingTarget {
  static constexpr uint64_t kNone = ~0ull;
  uint64_t fail_sector = kNone;
  bool throw_violation = false;
  kern::DmTargetType type;
};

kern::BlockDevice* CreateFailingDevice(PcRig& rig, FailingTarget* ft) {
  ft->type.name = "failing";
  ft->type.map = rig.kernel->funcs().Register<int(kern::DmTarget*, kern::Bio*)>(
      kern::TextKind::kKernelText, "failing_map", [ft](kern::DmTarget*, kern::Bio* bio) {
        if (bio->sector != ft->fail_sector) {
          return kern::kDmMapioRemapped;
        }
        if (ft->throw_violation) {
          throw lxfi::LxfiViolation(lxfi::ViolationKind::kWrite, "failing_map");
        }
        return -kern::kEio;
      });
  EXPECT_EQ(rig.block->RegisterTargetType(&ft->type), 0);
  return rig.block->DmCreate("failing0", "failing", rig.dev, "");
}

TEST(PageCacheFailure, FailedFillPublishesNothing) {
  for (bool throw_violation : {false, true}) {
    PcRig rig;
    FailingTarget ft;
    kern::BlockDevice* dev = CreateFailingDevice(rig, &ft);
    ASSERT_NE(dev, nullptr);
    ft.fail_sector = 9;
    ft.throw_violation = throw_violation;
    size_t live = rig.kernel->slab().live_objects();
    EXPECT_EQ(rig.pc->Bget(dev, 9), nullptr);
    EXPECT_EQ(rig.pc->Bwrite(dev, 9), nullptr);
    EXPECT_EQ(rig.pc->misses(), 0u) << "a failed fill is not a miss";
    EXPECT_EQ(rig.kernel->slab().live_objects(), live) << "a failed fill leaks no page";
    // Nothing was published: once the device recovers, the block fills.
    ft.fail_sector = FailingTarget::kNone;
    kern::CachedPage* p = rig.pc->Bget(dev, 9);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->data[0], 9 ^ 0xA5);
    EXPECT_EQ(rig.pc->misses(), 1u);
    EXPECT_EQ(rig.kernel->slab().live_objects(), live + 1);
    rig.pc->Brelse(p);
  }
}

TEST(PageCacheFailure, FailedWritebackStaysDirtyForTheNextSync) {
  for (bool throw_violation : {false, true}) {
    PcRig rig;
    FailingTarget ft;
    kern::BlockDevice* dev = CreateFailingDevice(rig, &ft);
    ASSERT_NE(dev, nullptr);
    for (uint64_t b : {3, 4}) {
      kern::CachedPage* p = rig.pc->Bwrite(dev, b);
      ASSERT_NE(p, nullptr);
      std::memset(p->data, 0x60 + static_cast<int>(b), kern::kSectorSize);
      rig.pc->MarkDirty(p);
      rig.pc->BwriteDone(p);
    }
    ft.fail_sector = 3;
    ft.throw_violation = throw_violation;
    EXPECT_EQ(rig.pc->Sync(dev), -kern::kEio);
    EXPECT_EQ(rig.pc->io_errors(), 1u);
    EXPECT_EQ(rig.pc->writebacks(), 1u) << "Sync goes on past the failed page";
    EXPECT_EQ(rig.dev->backing[3 * kern::kSectorSize], 3 ^ 0xA5);
    EXPECT_EQ(rig.dev->backing[4 * kern::kSectorSize], 0x64);
    kern::CachedPage* p = rig.pc->Bget(dev, 3);
    ASSERT_NE(p, nullptr);
    EXPECT_NE(kern::PageCache::FlagsOf(p) & kern::kPcDirty, 0u);
    EXPECT_EQ(kern::PageCache::FlagsOf(p) & kern::kPcBusy, 0u);
    rig.pc->Brelse(p);
    ft.fail_sector = FailingTarget::kNone;
    EXPECT_EQ(rig.pc->Sync(dev), 1) << "the next Sync retries only the failed page";
    EXPECT_EQ(rig.dev->backing[3 * kern::kSectorSize], 0x63);
    EXPECT_EQ(rig.pc->io_errors(), 1u);
    EXPECT_EQ(rig.pc->writebacks(), 2u);
  }
}

// 3-CPU storm: every worker pushes per-worker patterns through the
// exclusive write window on one hot block set (busy-bit contention against
// each other and against Sync) while also bgetting a disjoint read-only
// set (lock-free index contention: shared shards, chains, hold counters).
// Writers and readers use disjoint blocks because the cache intentionally
// leaves reader-vs-writer data coordination to its caller (jexfs is
// single-threaded per superblock); the busy bit only serializes writers
// and writeback. TSan (CI) checks that protocol; the final sweep checks
// every written block holds a whole, untorn pattern.
TEST(PageCacheSmp, ThreeCpuReadWritebackStorm) {
  PcRig rig;
  rig.kernel->slab().EnableSmpCache();
  constexpr int kWorkers = 3;
  constexpr uint64_t kWriteBlocks = 8;   // blocks 0..7: Bwrite + Sync only
  constexpr uint64_t kReadBlocks = 8;    // blocks 8..15: Bget only
  constexpr int kIters = 4000;
  std::atomic<uint64_t> read_errors{0};
  {
    kern::CpuSet cpus(rig.kernel.get(), kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      cpus.RunOn(w, [&rig, &read_errors, w] {
        uint64_t s = 0x1234 + static_cast<uint64_t>(w);
        for (int i = 0; i < kIters; ++i) {
          if (Lcg(&s) % 2 == 0) {
            uint64_t b = kWriteBlocks + Lcg(&s) % kReadBlocks;
            kern::CachedPage* p = rig.pc->Bget(rig.dev, b);
            if (p == nullptr) {
              read_errors.fetch_add(1, std::memory_order_relaxed);
            } else {
              // Nobody writes the read set: content must be the initial fill.
              uint8_t want = static_cast<uint8_t>(b ^ 0xA5);
              for (uint32_t j = 0; j < kern::kSectorSize; ++j) {
                if (p->data[j] != want) {
                  read_errors.fetch_add(1, std::memory_order_relaxed);
                  break;
                }
              }
              rig.pc->Brelse(p);
            }
          } else {
            uint64_t b = Lcg(&s) % kWriteBlocks;
            kern::CachedPage* p = rig.pc->Bwrite(rig.dev, b);
            if (p != nullptr) {
              std::memset(p->data, 0x40 + w, kern::kSectorSize);
              rig.pc->MarkDirty(p);
              rig.pc->BwriteDone(p);
            }
          }
          if (w == 0 && (i & 255) == 255) {
            rig.pc->Sync(rig.dev);
          }
          if ((i & 63) == 63) {
            kern::CpuSet::QuiescePoint();
          }
        }
      });
    }
    cpus.Barrier();
  }
  EXPECT_EQ(read_errors.load(), 0u);
  ASSERT_GE(rig.pc->Sync(rig.dev), 0);
  for (uint64_t b = 0; b < kWriteBlocks; ++b) {
    const uint8_t* blk = rig.dev->backing + b * kern::kSectorSize;
    uint8_t first = blk[0];
    EXPECT_TRUE(first == 0x40 || first == 0x41 || first == 0x42)
        << "block " << b << " holds a byte no writer produced";
    for (uint32_t i = 1; i < kern::kSectorSize; ++i) {
      ASSERT_EQ(blk[i], first) << "torn block " << b << " at byte " << i;
    }
  }
  EXPECT_EQ(rig.pc->io_errors(), 0u);
}

}  // namespace
