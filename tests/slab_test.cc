// Slab allocator tests, including the adjacency and reuse properties the
// CAN BCM exploit reproduction relies on.
#include <gtest/gtest.h>

#include "src/base/arena.h"
#include "src/base/sync.h"
#include "src/kernel/kmalloc.h"
#include "src/kernel/panic.h"

namespace {

class SlabTest : public ::testing::Test {
 protected:
  SlabTest() : arena_(8 << 20), slab_(&arena_) {}

  lxfi::Arena arena_;
  kern::SlabAllocator slab_;
};

TEST_F(SlabTest, AllocZeroReturnsNull) { EXPECT_EQ(slab_.Alloc(0), nullptr); }

TEST_F(SlabTest, AllocationIsZeroed) {
  auto* p = static_cast<uint8_t*>(slab_.Alloc(256));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(p[i], 0) << "byte " << i;
  }
}

TEST_F(SlabTest, RequestedAndUsableSizes) {
  void* p = slab_.Alloc(100);
  EXPECT_EQ(slab_.AllocSize(p), 100u);
  EXPECT_EQ(slab_.UsableSize(p), 128u);  // class capacity, like ksize()
  EXPECT_EQ(slab_.AllocSize(reinterpret_cast<void*>(0x1234)), 0u);
}

TEST_F(SlabTest, ConsecutiveSameClassAllocationsAreAdjacent) {
  auto* a = static_cast<char*>(slab_.Alloc(24));
  auto* b = static_cast<char*>(slab_.Alloc(24));
  EXPECT_EQ(b - a, 32) << "same-class objects must pack contiguously";
}

TEST_F(SlabTest, FreedSlotIsReusedLifo) {
  void* a = slab_.Alloc(24);
  void* b = slab_.Alloc(24);
  slab_.Free(a);
  void* c = slab_.Alloc(16);  // same 32-byte class
  EXPECT_EQ(c, a) << "LIFO freelist: the freed slot fills first";
  (void)b;
}

TEST_F(SlabTest, DifferentClassesDoNotInterfere) {
  void* a = slab_.Alloc(24);
  slab_.Free(a);
  void* big = slab_.Alloc(200);  // class 256
  EXPECT_NE(big, a);
}

TEST_F(SlabTest, LiveTracking) {
  void* p = slab_.Alloc(64);
  EXPECT_TRUE(slab_.IsLive(p));
  slab_.Free(p);
  EXPECT_FALSE(slab_.IsLive(p));
}

TEST_F(SlabTest, DoubleFreePanics) {
  void* p = slab_.Alloc(64);
  slab_.Free(p);
  EXPECT_THROW(slab_.Free(p), kern::KernelPanic);
}

// With the per-CPU magazine on, a kfree on CPU 1 parks the object in CPU 1's
// bin. A second kfree of it on CPU 2 must panic like the uncached path, not
// park it in CPU 2's bin too, which would hand one object to two owners.
// The second case runs the same double kfree through CPU 2's record path (an
// object CPU 2 has recycled before).
TEST_F(SlabTest, CrossCpuDoubleFreePanics) {
  slab_.EnableSmpCache();
  void* p = slab_.Alloc(64);
  lxfi::SetThisShardIndex(1);
  slab_.Free(p);
  lxfi::SetThisShardIndex(2);
  EXPECT_THROW(slab_.Free(p), kern::KernelPanic);
  EXPECT_NE(slab_.Alloc(64), p);
  lxfi::SetThisShardIndex(1);
  EXPECT_EQ(slab_.Alloc(64), p) << "CPU 1's bin still holds the object, once";

  lxfi::SetThisShardIndex(2);
  slab_.Free(p);
  EXPECT_EQ(slab_.Alloc(64), p);  // CPU 2 now has a record for p
  lxfi::SetThisShardIndex(1);
  slab_.Free(p);
  lxfi::SetThisShardIndex(2);
  EXPECT_THROW(slab_.Free(p), kern::KernelPanic);
  lxfi::SetThisShardIndex(0);
}

TEST_F(SlabTest, FreeUnknownPointerPanics) {
  int x;
  EXPECT_THROW(slab_.Free(&x), kern::KernelPanic);
}

TEST_F(SlabTest, FreeNullIsNoop) { slab_.Free(nullptr); }

TEST_F(SlabTest, LargeAllocationSpansPages) {
  auto* p = static_cast<uint8_t*>(slab_.Alloc(3 * 4096 + 100));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(slab_.AllocSize(p), 3u * 4096 + 100);
  EXPECT_EQ(slab_.UsableSize(p), 4u * 4096);
  p[3 * 4096 + 99] = 0xff;  // touches the last byte without faulting
  slab_.Free(p);
}

// A freed large allocation's pages serve the next large allocation of the
// same page count, zeroed again; another size takes fresh pages.
TEST_F(SlabTest, FreedLargeAllocationIsReused) {
  auto* p = static_cast<uint8_t*>(slab_.Alloc(7 * 4096 + 512));
  ASSERT_NE(p, nullptr);
  p[100] = 0xab;
  const size_t pages = slab_.pages_allocated();
  slab_.Free(p);
  for (int round = 0; round < 50; ++round) {
    auto* q = static_cast<uint8_t*>(slab_.Alloc(7 * 4096 + 1));  // same 8 pages
    ASSERT_EQ(q, p) << "round " << round;
    EXPECT_EQ(q[100], 0u);
    EXPECT_EQ(slab_.AllocSize(q), 7u * 4096 + 1);
    EXPECT_EQ(slab_.UsableSize(q), 8u * 4096);
    q[100] = 0xcd;
    slab_.Free(q);
  }
  EXPECT_EQ(slab_.pages_allocated(), pages);
  void* other = slab_.Alloc(2 * 4096);
  EXPECT_NE(other, p);
  EXPECT_EQ(slab_.pages_allocated(), pages + 2);
  EXPECT_THROW(slab_.Free(p), kern::KernelPanic) << "a reused-then-freed run is not live";
  slab_.Free(other);
}

TEST_F(SlabTest, PageExhaustionReturnsNull) {
  lxfi::Arena tiny(16 << 10);
  kern::SlabAllocator slab(&tiny);
  void* p = nullptr;
  for (int i = 0; i < 1000; ++i) {
    void* q = slab.Alloc(2048);
    if (q == nullptr) {
      break;
    }
    p = q;
  }
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(slab.Alloc(2048), nullptr) << "arena exhausted";
}

// Parameterized sweep: every size class behaves uniformly.
class SlabClassSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SlabClassSweep, FillFreeRefillWholePage) {
  lxfi::Arena arena(4 << 20);
  kern::SlabAllocator slab(&arena);
  size_t size = GetParam();
  size_t per_page = 4096 / size;
  std::vector<void*> objs;
  for (size_t i = 0; i < per_page; ++i) {
    void* p = slab.Alloc(size);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(slab.UsableSize(p), size);
    objs.push_back(p);
  }
  // All from one page, ascending.
  for (size_t i = 1; i < objs.size(); ++i) {
    EXPECT_EQ(static_cast<char*>(objs[i]) - static_cast<char*>(objs[i - 1]),
              static_cast<ptrdiff_t>(size));
  }
  for (void* p : objs) {
    slab.Free(p);
  }
  // Refill reuses the same page (no new page allocated).
  size_t pages_before = slab.pages_allocated();
  for (size_t i = 0; i < per_page; ++i) {
    ASSERT_NE(slab.Alloc(size), nullptr);
  }
  EXPECT_EQ(slab.pages_allocated(), pages_before);
}

INSTANTIATE_TEST_SUITE_P(Classes, SlabClassSweep,
                         ::testing::Values(32, 64, 128, 256, 512, 1024, 2048, 4096));

// --- partitioned heaps (allocator level) -------------------------------------

class SlabPartitionTest : public ::testing::Test {
 protected:
  SlabPartitionTest() : arena_(16 << 20), slab_(&arena_) {
    EXPECT_TRUE(slab_.EnablePartitions(/*region_bytes=*/4 << 20, /*slot_bytes=*/1 << 20));
  }

  lxfi::Arena arena_;
  kern::SlabAllocator slab_;
};

TEST_F(SlabPartitionTest, PartitionObjectsStayInsideSlotSpan) {
  int id = slab_.CreatePartition();
  ASSERT_NE(id, kern::SlabAllocator::kNoPartition);
  uintptr_t lo = 0, hi = 0;
  ASSERT_TRUE(slab_.PartitionSpan(id, &lo, &hi));
  EXPECT_EQ(hi - lo, 1u << 20);
  for (size_t size : {16, 100, 2048, 5000}) {
    auto addr = reinterpret_cast<uintptr_t>(slab_.AllocIn(id, size));
    ASSERT_NE(addr, 0u);
    EXPECT_GE(addr, lo);
    EXPECT_LT(addr + size, hi);
    EXPECT_EQ(slab_.PartitionOf(reinterpret_cast<void*>(addr)), id);
  }
  // Shared-heap allocations classify as no partition.
  void* shared_obj = slab_.Alloc(64);
  EXPECT_EQ(slab_.PartitionOf(shared_obj), kern::SlabAllocator::kNoPartition);
}

TEST_F(SlabPartitionTest, PartitionsDoNotShareSlabPages) {
  int a = slab_.CreatePartition();
  int b = slab_.CreatePartition();
  // Same size class, different partitions: never the same page, even though
  // a shared heap would pack them adjacently.
  auto* pa = static_cast<char*>(slab_.AllocIn(a, 24));
  auto* pb = static_cast<char*>(slab_.AllocIn(b, 24));
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_NE(reinterpret_cast<uintptr_t>(pa) / 4096, reinterpret_cast<uintptr_t>(pb) / 4096);
  // And a freed slot in one partition is never recycled into the other.
  slab_.Free(pa);
  auto* pb2 = static_cast<char*>(slab_.AllocIn(b, 24));
  EXPECT_NE(pb2, pa);
  // While the partition's own freelist is LIFO, like the shared heap.
  auto* pa2 = static_cast<char*>(slab_.AllocIn(a, 24));
  EXPECT_EQ(pa2, pa);
}

TEST_F(SlabPartitionTest, SealedPartitionRefusesAllocButAllowsFree) {
  int id = slab_.CreatePartition();
  void* p = slab_.AllocIn(id, 64);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(slab_.SealPartition(id));
  EXPECT_EQ(slab_.AllocIn(id, 64), nullptr);
  slab_.Free(p);  // quarantine still drains
  EXPECT_EQ(slab_.partition_live_objects(id), 0u);
}

TEST_F(SlabPartitionTest, TeardownReclaimsEverythingAndRecyclesSlotLifo) {
  int id = slab_.CreatePartition();
  uintptr_t lo = 0, hi = 0;
  ASSERT_TRUE(slab_.PartitionSpan(id, &lo, &hi));
  size_t live_before = slab_.live_objects();
  for (int i = 0; i < 500; ++i) {
    ASSERT_NE(slab_.AllocIn(id, 48), nullptr);
  }
  EXPECT_EQ(slab_.partition_live_objects(id), 500u);
  EXPECT_EQ(slab_.TeardownPartition(id), 500u) << "teardown reports reclaimed objects";
  EXPECT_EQ(slab_.live_objects(), live_before);
  EXPECT_FALSE(slab_.PartitionSpan(id, &lo, &hi)) << "torn-down id no longer resolves";
  // The slot goes back LIFO: the next partition reuses the same span.
  int next = slab_.CreatePartition();
  uintptr_t nlo = 0, nhi = 0;
  ASSERT_TRUE(slab_.PartitionSpan(next, &nlo, &nhi));
  EXPECT_EQ(nlo, lo);
  EXPECT_EQ(nhi, hi);
  // And the recycled slot allocates from scratch (no stale freelist).
  void* p = slab_.AllocIn(next, 32);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(slab_.partition_live_objects(next), 1u);
}

TEST_F(SlabPartitionTest, ExhaustedSlotFallsBackToSharedHeap) {
  int id = slab_.CreatePartition();
  uintptr_t lo = 0, hi = 0;
  ASSERT_TRUE(slab_.PartitionSpan(id, &lo, &hi));
  // Burn through the 1 MiB slot with large objects, then keep going.
  bool overflowed = false;
  for (int i = 0; i < 300; ++i) {
    auto addr = reinterpret_cast<uintptr_t>(slab_.AllocIn(id, 8192));
    ASSERT_NE(addr, 0u) << "fallback must serve allocation " << i;
    overflowed = overflowed || addr < lo || addr >= hi;
  }
  EXPECT_TRUE(overflowed) << "slot exhaustion must degrade to the shared heap";
}

TEST(SlabPartitionSeed, SeedRotatesSlotHandOutDeterministically) {
  for (uint64_t seed : {0ull, 5ull}) {
    lxfi::Arena arena(16 << 20);
    kern::SlabAllocator slab(&arena);
    ASSERT_TRUE(slab.EnablePartitions(4 << 20, 1 << 20, seed));
    uintptr_t base = slab.region_base();
    for (int i = 0; i < 4; ++i) {
      int id = slab.CreatePartition();
      uintptr_t lo = 0, hi = 0;
      ASSERT_TRUE(slab.PartitionSpan(id, &lo, &hi));
      EXPECT_EQ((lo - base) >> 20, (i + seed) % 4) << "seed " << seed << " partition " << i;
    }
    // All four slots claimed: the next creation fails cleanly.
    EXPECT_EQ(slab.CreatePartition(), kern::SlabAllocator::kNoPartition);
  }
}

}  // namespace
