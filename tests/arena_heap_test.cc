// Per-principal partitioned heaps (IA2-style arenas): kmalloc routing into
// the caller's arena slot, the store-guard span fast path, sealed-arena
// fail-closed semantics, bulk teardown on module unload, deterministic slot
// layout, and the differential fast-vs-slow identity. Runs under ASan/LSan
// and UBSan in CI (the 10k-allocation unload test is the leak canary).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"

#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/testbench.h"

namespace {

using lxfi::Capability;
using lxfitest::Bench;

// Scratch module with the full allocation import surface.
struct ScratchState {
  kern::Module* m = nullptr;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKrealloc> krealloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kKsize> ksize;
};

kern::ModuleDef ScratchDef(std::shared_ptr<ScratchState> st, const char* name = "scratch") {
  kern::ModuleDef def;
  def.name = name;
  def.data_size = 128;
  def.imports = {kern::kKmalloc, kern::kKrealloc, kern::kKfree, kern::kKsize, kern::kPrintk};
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->krealloc = lxfi::GetImport(m, kern::kKrealloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    st->ksize = lxfi::GetImport(m, kern::kKsize);
    return 0;
  };
  return def;
}

lxfi::RuntimeOptions PartitionedOptions() {
  lxfi::RuntimeOptions options;
  options.partitioned_heaps = true;
  return options;
}

class ArenaHeapTest : public ::testing::Test {
 protected:
  ArenaHeapTest()
      : bench_(/*isolated=*/true, PartitionedOptions()), st_(std::make_shared<ScratchState>()) {
    module_ = bench_.kernel->LoadModule(ScratchDef(st_));
    EXPECT_NE(module_, nullptr);
  }

  lxfi::Runtime& rt() { return *bench_.rt; }
  kern::SlabAllocator& slab() { return bench_.kernel->slab(); }
  lxfi::ModuleCtx* ctx() { return rt().CtxOf(module_); }
  lxfi::Principal* shared() { return ctx()->shared(); }

  bool InArena(lxfi::Principal* p, const void* ptr) {
    auto addr = reinterpret_cast<uintptr_t>(ptr);
    return addr >= p->arena_lo() && addr < p->arena_hi();
  }

  Bench bench_;
  std::shared_ptr<ScratchState> st_;
  kern::Module* module_ = nullptr;
};

TEST_F(ArenaHeapTest, KmallocRoutesIntoOwnArenaSlot) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  void* p = st_->kmalloc(96);
  ASSERT_NE(p, nullptr);
  // First allocation published the arena span; the object lies inside it.
  ASSERT_TRUE(shared()->has_arena());
  EXPECT_NE(shared()->heap_partition(), lxfi::Principal::kNoHeap);
  EXPECT_TRUE(InArena(shared(), p));
  EXPECT_EQ(slab().PartitionOf(p), shared()->heap_partition());
  // Introspection stays truthful through the partition path.
  EXPECT_EQ(slab().AllocSize(p), 96u);
  EXPECT_EQ(st_->ksize(p), 128u);
  // The span is one whole slot, not the object.
  EXPECT_EQ(shared()->arena_hi() - shared()->arena_lo(), lxfi::Runtime::kHeapSlotBytes);
}

TEST_F(ArenaHeapTest, StoreGuardResolvesOnArenaSpan) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  auto* p = static_cast<uint64_t*>(st_->kmalloc(64));
  ASSERT_NE(p, nullptr);
  uint64_t span_hits_before = shared()->ctx().arena_span_hits;
  lxfi::Store(*module_, p, uint64_t{41});
  lxfi::Store(*module_, p + 1, uint64_t{42});
  lxfi::Store(*module_, p + 7, uint64_t{43});
  EXPECT_EQ(p[0], 41u);
  EXPECT_EQ(p[7], 43u);
  // Every one of those stores resolved on the span compare, before the
  // memo and before any table probe.
  EXPECT_EQ(shared()->ctx().arena_span_hits, span_hits_before + 3);
  // Out-of-arena stores still violate (kernel-heap victim).
  auto* victim = static_cast<uint64_t*>(slab().Alloc(sizeof(uint64_t)));
  EXPECT_THROW(lxfi::Store(*module_, victim, uint64_t{0}), lxfi::LxfiViolation);
  EXPECT_EQ(rt().violations().back().kind, lxfi::ViolationKind::kWrite);
}

// Differential reference: the capability slow path (Runtime::Owns walks the
// same ownership chains WriteTableProbe uses) must agree with the memoized
// fast path on every allow/deny decision while the arena is unsealed.
TEST_F(ArenaHeapTest, FastAndSlowPathsAgreeOnAllowAndDeny) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  auto* own = static_cast<uint8_t*>(st_->kmalloc(200));
  ASSERT_NE(own, nullptr);
  void* kernel_obj = slab().Alloc(64);
  uintptr_t own_addr = reinterpret_cast<uintptr_t>(own);

  struct Probe {
    uintptr_t addr;
    size_t size;
  };
  std::vector<Probe> probes = {
      {own_addr, 8},                                     // own object head
      {own_addr + 192, 8},                               // own object tail
      {shared()->arena_lo(), 16},                        // arena slot base (unallocated)
      {shared()->arena_hi() - 32, 32},                   // arena slot tail
      {shared()->arena_hi() - 16, 32},                   // straddles the span end
      {reinterpret_cast<uintptr_t>(kernel_obj), 8},      // foreign heap object
      {reinterpret_cast<uintptr_t>(kernel_obj) + 8, 4},  // foreign, interior
      {0x41000, 8},                                      // unmapped address
  };
  for (const Probe& probe : probes) {
    bool fast = rt().OwnsWriteFast(shared(), probe.addr, probe.size);
    bool slow = rt().Owns(shared(), Capability::Write(probe.addr, probe.size));
    EXPECT_EQ(fast, slow) << "addr=" << std::hex << probe.addr << " size=" << probe.size;
  }
}

TEST_F(ArenaHeapTest, SealedArenaFailsClosedAndAttributes) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  auto* p = static_cast<uint64_t*>(st_->kmalloc(64));
  ASSERT_NE(p, nullptr);
  lxfi::Store(*module_, p, uint64_t{7});  // works before the seal

  rt().SealPrincipalHeap(shared());
  EXPECT_TRUE(shared()->arena_sealed());

  // The principal's own store into its own allocation now fails closed —
  // before the memo or table can resurrect the per-object grant — and the
  // violation is attributed to the sealed principal.
  EXPECT_THROW(lxfi::Store(*module_, p, uint64_t{8}), lxfi::LxfiViolation);
  EXPECT_EQ(p[0], 7u) << "the store must not land";
  const auto v = rt().violations().back();
  EXPECT_EQ(v.kind, lxfi::ViolationKind::kWrite);
  EXPECT_NE(v.details.find("sealed heap partition"), std::string::npos) << v.details;
  EXPECT_NE(v.details.find("scratch"), std::string::npos) << v.details;

  // Fresh allocations from the quarantined heap fail.
  EXPECT_EQ(rt().PartitionedAlloc(32), nullptr);
  // Quarantine is total: even the module's own kfree of a sealed-span
  // object fails closed (the transfer's source check no longer passes) —
  // the objects stay put until bulk teardown reclaims the whole slot.
  EXPECT_THROW(st_->kfree(p), lxfi::LxfiViolation);
  EXPECT_TRUE(slab().IsLive(p));
  // Non-heap capabilities are untouched: module .data stays writable.
  auto* data = reinterpret_cast<uint64_t*>(module_->data());
  lxfi::Store(*module_, data, uint64_t{1});
  EXPECT_EQ(*data, 1u);
  // And the quarantined slot is still reclaimed in bulk on unload.
  size_t live_before = slab().live_objects();
  bench_.kernel->UnloadModule(module_);
  module_ = nullptr;
  EXPECT_EQ(slab().live_objects(), live_before - 1);
}

TEST_F(ArenaHeapTest, SealKillsMemoizedAllows) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  auto* p = static_cast<uint64_t*>(st_->kmalloc(64));
  ASSERT_NE(p, nullptr);
  uintptr_t addr = reinterpret_cast<uintptr_t>(p);
  EXPECT_TRUE(rt().OwnsWriteFast(shared(), addr, 8));
  rt().SealPrincipalHeap(shared());
  // Span check fails closed, and the epoch bump means no stale memo can
  // answer for the span either.
  EXPECT_FALSE(rt().OwnsWriteFast(shared(), addr, 8));
}

// The tentpole teardown property: unloading a module with thousands of live
// allocations is one ClearRange + one partition sweep — zero per-object
// RevokeEverywhere calls — and leaves no live objects and no stale
// writer-set pages behind. Under ASan/LSan this is also the leak canary.
TEST_F(ArenaHeapTest, UnloadTearsDownTenThousandAllocationsInBulk) {
  constexpr int kAllocs = 10000;
  size_t live_before = slab().live_objects();
  uintptr_t lo = 0, hi = 0;
  std::vector<uintptr_t> sample;
  {
    lxfi::ScopedPrincipal as_module(&rt(), shared());
    for (int i = 0; i < kAllocs; ++i) {
      void* p = st_->kmalloc(24);
      ASSERT_NE(p, nullptr) << "allocation " << i;
      if (i % 1000 == 0) {
        sample.push_back(reinterpret_cast<uintptr_t>(p));
      }
    }
    lo = shared()->arena_lo();
    hi = shared()->arena_hi();
  }
  ASSERT_NE(lo, 0u);
  int pid = shared()->heap_partition();
  EXPECT_EQ(slab().partition_live_objects(pid), static_cast<size_t>(kAllocs));
  EXPECT_EQ(slab().live_objects(), live_before + kAllocs);
  // The kmalloc transfer annotations marked arena pages module-written.
  EXPECT_FALSE(rt().writer_set().Empty(sample.front()));

  uint64_t revokes_before = rt().revoke_everywhere_count();
  bench_.kernel->UnloadModule(module_);
  module_ = nullptr;

  // Bulk teardown: no per-object revocation happened across the unload.
  EXPECT_EQ(rt().revoke_everywhere_count(), revokes_before);
  // Every live object inside the slot was reclaimed in one sweep.
  EXPECT_EQ(slab().live_objects(), live_before);
  EXPECT_FALSE(slab().PartitionSpan(pid, &lo, &hi)) << "partition must be torn down";
  // No stale writer-set pages anywhere in the old span.
  for (uintptr_t addr : sample) {
    EXPECT_TRUE(rt().writer_set().Empty(addr));
  }
}

// Deterministic layout: two kernels with the same seed hand identical slot
// offsets to the same load order; a different seed rotates placement to a
// predictable slot. This is what keeps bench ablations and DumpState golden
// output reproducible with no ASLR-dependent addresses.
TEST(ArenaLayout, DeterministicAcrossKernelsAndSeeds) {
  auto first_offset = [](uint64_t seed) {
    Bench bench(/*isolated=*/true);
    bench.rt->EnablePartitionedHeaps(lxfi::Runtime::kHeapRegionBytes,
                                     lxfi::Runtime::kHeapSlotBytes, seed);
    auto st = std::make_shared<ScratchState>();
    kern::Module* m = bench.kernel->LoadModule(ScratchDef(st));
    EXPECT_NE(m, nullptr);
    lxfi::ModuleCtx* mc = bench.rt->CtxOf(m);
    lxfi::ScopedPrincipal as_module(bench.rt.get(), mc->shared());
    EXPECT_NE(st->kmalloc(64), nullptr);
    return mc->shared()->arena_lo() - bench.kernel->slab().region_base();
  };
  uintptr_t a = first_offset(/*seed=*/0);
  uintptr_t b = first_offset(/*seed=*/0);
  EXPECT_EQ(a, b) << "same seed, same load order => same slot offsets";
  EXPECT_EQ(a, 0u) << "seed 0 hands out slot 0 first";
  EXPECT_EQ(first_offset(/*seed=*/3), 3 * lxfi::Runtime::kHeapSlotBytes)
      << "seed rotates deterministically";
}

TEST(ArenaLayout, DumpStateReportsSpansAsStableOffsets) {
  Bench bench(/*isolated=*/true, PartitionedOptions());
  auto st = std::make_shared<ScratchState>();
  kern::Module* m = bench.kernel->LoadModule(ScratchDef(st));
  ASSERT_NE(m, nullptr);
  lxfi::ModuleCtx* mc = bench.rt->CtxOf(m);
  {
    lxfi::ScopedPrincipal as_module(bench.rt.get(), mc->shared());
    ASSERT_NE(st->kmalloc(64), nullptr);
  }
  std::string dump = bench.rt->DumpState();
  // Offset-relative (golden-friendly), not an absolute host address.
  EXPECT_NE(dump.find("heap partition: [+0, +0x100000)"), std::string::npos) << dump;
  bench.rt->SealPrincipalHeap(mc->shared());
  dump = bench.rt->DumpState();
  EXPECT_NE(dump.find("heap partition: [+0, +0x100000) sealed"), std::string::npos) << dump;
}

TEST_F(ArenaHeapTest, DropPrincipalRecyclesEmptySlotLifo) {
  const auto* name = reinterpret_cast<const void*>(0x5150);
  lxfi::Principal* inst = ctx()->GetOrCreate(reinterpret_cast<uintptr_t>(name));
  void* p = nullptr;
  {
    lxfi::ScopedPrincipal as_inst(&rt(), inst);
    p = rt().PartitionedAlloc(64);
  }
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(inst->has_arena());
  uintptr_t inst_lo = inst->arena_lo();
  int pid = inst->heap_partition();
  slab().Free(p);
  rt().DropPrincipal(module_, name);
  // The slot was empty at drop time: partition torn down, writer-set pages
  // cleared, and the slot goes back on the free list.
  uintptr_t lo = 0, hi = 0;
  EXPECT_FALSE(slab().PartitionSpan(pid, &lo, &hi));
  // The next principal to touch the heap reuses the slot (LIFO recycle).
  lxfi::Principal* next = ctx()->GetOrCreate(0x5151);
  {
    lxfi::ScopedPrincipal as_next(&rt(), next);
    ASSERT_NE(rt().PartitionedAlloc(64), nullptr);
  }
  EXPECT_EQ(next->arena_lo(), inst_lo);
}

TEST_F(ArenaHeapTest, KreallocStaysInPartitionAndPreservesContents) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  auto* p = static_cast<uint8_t*>(st_->kmalloc(64));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 8; ++i) {
    lxfi::Store(*module_, p + i, static_cast<uint8_t>(i + 1));
  }
  auto* q = static_cast<uint8_t*>(st_->krealloc(p, 256));
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(InArena(shared(), q)) << "the grown object stays in the caller's arena";
  EXPECT_FALSE(slab().IsLive(p)) << "always-move: the old object is gone";
  EXPECT_EQ(slab().AllocSize(q), 256u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(q[i], i + 1);
  }
  // The grown object is writable through the guard (span covers it).
  lxfi::Store(*module_, q + 255, uint8_t{0xaa});
  EXPECT_EQ(q[255], 0xaa);
}

// Slot exhaustion degrades gracefully: overflow allocations come from the
// shared heap, stay guarded by their per-object grants, and both paths
// still agree on them.
TEST(ArenaOverflow, SlotExhaustionFallsBackToSharedHeap) {
  Bench bench(/*isolated=*/true);
  bench.rt->EnablePartitionedHeaps(/*region_bytes=*/128 << 10, /*slot_bytes=*/64 << 10);
  auto st = std::make_shared<ScratchState>();
  kern::Module* m = bench.kernel->LoadModule(ScratchDef(st));
  ASSERT_NE(m, nullptr);
  lxfi::ModuleCtx* mc = bench.rt->CtxOf(m);
  lxfi::ScopedPrincipal as_module(bench.rt.get(), mc->shared());
  std::vector<uint8_t*> overflow;
  for (int i = 0; i < 40; ++i) {  // 40 * 2 KiB > the 64 KiB slot
    auto* p = static_cast<uint8_t*>(st->kmalloc(2048));
    ASSERT_NE(p, nullptr) << "allocation must fall back, not fail";
    auto addr = reinterpret_cast<uintptr_t>(p);
    if (addr < mc->shared()->arena_lo() || addr >= mc->shared()->arena_hi()) {
      overflow.push_back(p);
    }
  }
  ASSERT_FALSE(overflow.empty()) << "the slot must have overflowed";
  // Overflow objects are still module-writable — via the per-object grant,
  // on the table path — and the differential decisions agree.
  lxfi::Store(*m, overflow.front(), uint8_t{5});
  EXPECT_EQ(*overflow.front(), 5);
  uintptr_t addr = reinterpret_cast<uintptr_t>(overflow.front());
  EXPECT_EQ(bench.rt->OwnsWriteFast(mc->shared(), addr, 8),
            bench.rt->Owns(mc->shared(), Capability::Write(addr, 8)));
}

// Cross-principal containment: a rogue module scribbling into another
// principal's arena hits neither its own span nor any grant — blocked on
// the capability slow path and attributed to the offender.
TEST(ArenaIsolation, RogueModuleScribbleIsBlockedAndAttributed) {
  Bench bench(/*isolated=*/true, PartitionedOptions());
  auto sa = std::make_shared<ScratchState>();
  auto sb = std::make_shared<ScratchState>();
  kern::Module* a = bench.kernel->LoadModule(ScratchDef(sa, "scratch_a"));
  kern::Module* b = bench.kernel->LoadModule(ScratchDef(sb, "scratch_b"));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  lxfi::ModuleCtx* ca = bench.rt->CtxOf(a);
  lxfi::ModuleCtx* cb = bench.rt->CtxOf(b);

  uint64_t* target = nullptr;
  {
    lxfi::ScopedPrincipal as_a(bench.rt.get(), ca->shared());
    target = static_cast<uint64_t*>(sa->kmalloc(64));
    ASSERT_NE(target, nullptr);
    lxfi::Store(*a, target, uint64_t{11});
  }
  {
    lxfi::ScopedPrincipal as_b(bench.rt.get(), cb->shared());
    ASSERT_NE(sb->kmalloc(64), nullptr);  // carve B's own slot
  }
  // The two modules got distinct slots.
  ASSERT_TRUE(ca->shared()->has_arena());
  ASSERT_TRUE(cb->shared()->has_arena());
  EXPECT_NE(ca->shared()->arena_lo(), cb->shared()->arena_lo());

  {
    lxfi::ScopedPrincipal as_b(bench.rt.get(), cb->shared());
    EXPECT_THROW(lxfi::Store(*b, target, uint64_t{0xdead}), lxfi::LxfiViolation);
  }
  EXPECT_EQ(*target, 11u) << "the rogue store must not land";
  const auto v = bench.rt->violations().back();
  EXPECT_EQ(v.kind, lxfi::ViolationKind::kWrite);
  EXPECT_NE(v.details.find("scratch_b"), std::string::npos)
      << "attributed to the offender: " << v.details;
}

// Option off (the default): no arena ever appears, and the span counter
// stays zero — the exploit suite's slab-adjacency assumptions hold.
TEST(ArenaDisabled, DefaultOptionsKeepSharedHeapBehavior) {
  Bench bench(/*isolated=*/true);
  auto st = std::make_shared<ScratchState>();
  kern::Module* m = bench.kernel->LoadModule(ScratchDef(st));
  ASSERT_NE(m, nullptr);
  lxfi::ModuleCtx* mc = bench.rt->CtxOf(m);
  lxfi::ScopedPrincipal as_module(bench.rt.get(), mc->shared());
  auto* p = static_cast<uint64_t*>(st->kmalloc(64));
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(mc->shared()->has_arena());
  lxfi::Store(*m, p, uint64_t{9});
  EXPECT_EQ(static_cast<uint64_t>(mc->shared()->ctx().arena_span_hits), 0u);
}

// --- ranged store guards (lxfi::StoreEach) ------------------------------------

// One destination for drawn store runs. `base` is `bytes` of real memory,
// so a run may land even where the guard denies it (ViolationPolicy::kCount).
struct StoreRegion {
  const char* what;
  uint8_t* base;
  size_t bytes;
  kern::Module* module;
  lxfi::Principal* principal;
};

// Differential check of the one hoisted guard against the per-element guards
// it replaces: seeded random (dst, n) runs over the principal's own arena
// objects, a table grant (runs may straddle either edge), the kernel stack,
// unowned kernel heap and a sealed arena. Under kCount the run raises a
// violation exactly when some per-element CheckWrite would; under kThrow a
// denied run stores nothing and raises one kWrite violation at dst,
// attributed to the current principal. Every non-empty run is one guard; an
// empty run is none.
TEST_F(ArenaHeapTest, StoreEachMatchesPerElementGuards) {
  // Thousands of deliberate violations; their WARN lines are noise here.
  lxfi::LogLevel log_level = lxfi::SetLogLevel(lxfi::LogLevel::kError);
  std::vector<StoreRegion> regions;
  {
    lxfi::ScopedPrincipal as_module(&rt(), shared());
    regions.push_back({"own arena object", static_cast<uint8_t*>(st_->kmalloc(256)), 256,
                       module_, shared()});
  }
  auto* granted = static_cast<uint8_t*>(slab().Alloc(512));
  rt().Grant(shared(), Capability::Write(granted + 128, 256));
  regions.push_back({"table grant [128, 384) of 512", granted, 512, module_, shared()});
  alignas(8) uint8_t stack_buf[512];
  regions.push_back({"kernel stack", stack_buf, sizeof(stack_buf), module_, shared()});
  regions.push_back(
      {"unowned kernel heap", static_cast<uint8_t*>(slab().Alloc(256)), 256, module_, shared()});
  auto sealed_st = std::make_shared<ScratchState>();
  kern::Module* sealed_module = bench_.kernel->LoadModule(ScratchDef(sealed_st, "sealed"));
  ASSERT_NE(sealed_module, nullptr);
  lxfi::Principal* sealed = rt().CtxOf(sealed_module)->shared();
  {
    lxfi::ScopedPrincipal as_sealed(&rt(), sealed);
    regions.push_back({"sealed arena object", static_cast<uint8_t*>(sealed_st->kmalloc(256)), 256,
                       sealed_module, sealed});
  }
  rt().SealPrincipalHeap(sealed);
  for (const StoreRegion& region : regions) {
    ASSERT_NE(region.base, nullptr) << region.what;
  }

  lxfi::Rng rng(14);
  uint64_t allowed = 0, denied = 0, empty = 0;
  auto draw_runs = [&]<typename T>(const StoreRegion& region) {
    const size_t slots = region.bytes / sizeof(T);
    const T fill = static_cast<T>(0x3c3c3c3c3c3c3c3cull);
    for (int draw = 0; draw < 200; ++draw) {
      size_t first = rng.Below(slots + 1);
      size_t n = rng.Below(16) == 0 ? 0 : rng.Below(slots - first + 1);
      T* dst = reinterpret_cast<T*>(region.base) + first;
      SCOPED_TRACE(::testing::Message() << region.what << ": " << sizeof(T) << "-byte elements ["
                                        << first << ", " << first + n << ")");
      lxfi::ScopedPrincipal as(&rt(), region.principal);

      // kCount: the reference is the per-element guard the helper replaces.
      rt().options().policy = lxfi::ViolationPolicy::kCount;
      uint64_t v0 = rt().violation_count();
      for (size_t i = 0; i < n && rt().violation_count() == v0; ++i) {
        rt().CheckWrite(dst + i, sizeof(T));
      }
      bool deny = rt().violation_count() != v0;
      uint64_t v1 = rt().violation_count();
      uint64_t guards = rt().guards().count(lxfi::GuardType::kMemWrite);
      lxfi::StoreEach(*region.module, dst, n, [&](size_t) { return fill; });
      EXPECT_EQ(rt().violation_count() - v1, deny ? 1u : 0u);
      EXPECT_EQ(rt().guards().count(lxfi::GuardType::kMemWrite) - guards, n == 0 ? 0u : 1u);

      // kThrow: a denied run lands nothing and faults once, at dst.
      rt().options().policy = lxfi::ViolationPolicy::kThrow;
      std::memset(region.base, 0xa5, region.bytes);
      uint64_t v2 = rt().violation_count();
      bool threw = false;
      try {
        lxfi::StoreEach(*region.module, dst, n, [&](size_t i) { return static_cast<T>(fill + i); });
      } catch (const lxfi::LxfiViolation& e) {
        threw = true;
        EXPECT_EQ(e.kind(), lxfi::ViolationKind::kWrite);
      }
      ASSERT_EQ(threw, deny);
      if (deny) {
        ++denied;
        EXPECT_EQ(rt().violation_count() - v2, 1u);
        for (size_t b = 0; b < region.bytes; ++b) {
          ASSERT_EQ(region.base[b], 0xa5) << "byte " << b << " changed by a denied run";
        }
        const lxfi::ViolationRecord v = rt().violations().back();
        EXPECT_EQ(v.kind, lxfi::ViolationKind::kWrite);
        EXPECT_EQ(v.fault_addr, reinterpret_cast<uint64_t>(dst));
        EXPECT_EQ(v.principal, region.principal->DebugName());
      } else {
        EXPECT_EQ(rt().violation_count(), v2);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(dst[i], static_cast<T>(fill + i)) << "element " << i;
        }
        if (n == 0) {
          ++empty;
        } else {
          ++allowed;
        }
      }
    }
  };
  for (const StoreRegion& region : regions) {
    draw_runs.operator()<uint8_t>(region);
    draw_runs.operator()<uint64_t>(region);
  }
  // The draws reached every outcome.
  EXPECT_GT(allowed, 0u);
  EXPECT_GT(denied, 0u);
  EXPECT_GT(empty, 0u);
  lxfi::SetLogLevel(log_level);
}

// Stock kernel: no runtime, no guard; every element is stored.
TEST(StoreEachStock, WritesEveryElement) {
  Bench bench(/*isolated=*/false);
  auto st = std::make_shared<ScratchState>();
  kern::Module* m = bench.kernel->LoadModule(ScratchDef(st));
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->lxfi_ctx, nullptr);
  uint32_t buf[64] = {};
  lxfi::StoreEach(*m, buf, 64, [](size_t i) { return static_cast<uint32_t>(3 * i + 1); });
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(buf[i], 3 * i + 1) << "element " << i;
  }
}

}  // namespace
