// Property-based tests over randomized workloads: the capability algebra,
// writer-set/indirect-call agreement, and slab invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/base/rng.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/reference_revoke.h"
#include "tests/testbench.h"

namespace {

using lxfi::Capability;
using lxfitest::Bench;

// --- capability algebra --------------------------------------------------------
//
// Invariants (§3.2/§3.3):
//  I1  after Grant(p, c): Owns(p, c)
//  I2  after RevokeEverywhere(c): no principal owns c directly
//  I3  shared's caps are visible to every instance
//  I4  global sees the union of the module's caps
//  I5  an instance never sees a sibling's caps (absent shared/global)
//  I6  the holder-indexed RevokeEverywhere leaves exactly the tables the
//      full walk over every principal would (tests/reference_revoke.h)
//
// Three modules with aliased instances; instance drops and one module
// unload are interleaved with the grants and revokes, and the capability mix
// includes WRITE ranges wide enough to be indexed as ranges, revokes that
// span more buckets than the index probes one by one, and revokes that hit
// the modules' own initial grants (user window, data sections).

class CapAlgebraProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CapAlgebraProperty, RandomGrantRevokeSequence) {
  Bench bench(/*isolated=*/true);
  lxfi::Runtime& rt = *bench.rt;
  constexpr uintptr_t kPool = 0x500000000000ull;
  constexpr uintptr_t kNames[] = {0xa, 0xb, 0xc};
  constexpr uintptr_t kAliasBit = 0x100;
  constexpr int kUnloadStep = 300;

  std::vector<kern::Module*> mods;
  const char* names[] = {"propA", "propB", "propC"};
  const size_t data_sizes[] = {16 * 4096, 2 * 4096, 0};  // wide, bucketed, none
  for (int i = 0; i < 3; ++i) {
    kern::ModuleDef def;
    def.name = names[i];
    def.imports = {kern::kPrintk};
    def.data_size = data_sizes[i];
    def.init = [](kern::Module&) { return 0; };
    kern::Module* m = bench.kernel->LoadModule(std::move(def));
    ASSERT_NE(m, nullptr);
    mods.push_back(m);
  }

  lxfi::Rng rng(GetParam());
  // Resolves an instance principal through its name or its alias, creating
  // (and aliasing) it when a drop removed it.
  auto instance = [&](lxfi::ModuleCtx* mc, uintptr_t name) {
    if (lxfi::Principal* p = mc->Lookup(rng.Chance(0.5) ? name | kAliasBit : name)) {
      return p;
    }
    lxfi::Principal* p = mc->GetOrCreate(name);
    EXPECT_TRUE(mc->Alias(name, name | kAliasBit));
    return p;
  };
  auto random_principal = [&]() -> lxfi::Principal* {
    lxfi::ModuleCtx* mc = rt.CtxOf(mods[rng.Below(mods.size())]);
    switch (rng.Below(5)) {
      case 0:
        return mc->shared();
      case 1:
        return mc->global();
      default:
        return instance(mc, kNames[rng.Below(3)]);
    }
  };
  // Every live principal of every live module (instances by name only).
  auto live_principals = [&]() {
    std::vector<lxfi::Principal*> out;
    for (kern::Module* m : mods) {
      lxfi::ModuleCtx* mc = rt.CtxOf(m);
      out.push_back(mc->shared());
      out.push_back(mc->global());
      for (uintptr_t name : kNames) {
        if (lxfi::Principal* p = mc->Lookup(name)) {
          out.push_back(p);
        }
      }
    }
    return out;
  };

  // Track expected direct ownership: principal -> set of cap keys.
  auto key_of = [](const Capability& c) {
    return std::make_tuple(static_cast<int>(c.kind), c.addr, c.size, c.ref_type);
  };
  std::map<std::tuple<int, uintptr_t, size_t, uint64_t>, std::vector<lxfi::Principal*>> owners;
  auto forget_owner = [&](lxfi::Principal* dead) {
    for (auto it = owners.begin(); it != owners.end();) {
      auto& v = it->second;
      v.erase(std::remove(v.begin(), v.end(), dead), v.end());
      it = v.empty() ? owners.erase(it) : std::next(it);
    }
  };

  auto random_cap = [&]() -> Capability {
    uintptr_t page = kPool + rng.Below(32) * 0x1000;
    switch (rng.Below(8)) {
      case 0:
      case 1:
      case 2:  // small, sometimes straddling a bucket boundary
        return Capability::Write(page + rng.Below(64) * 0x40, 64 * (1 + rng.Below(4)));
      case 3:  // wide: indexed as one range, not per bucket
        return Capability::Write(page, 0x1000 * (9 + rng.Below(8)));
      case 4:
      case 5:
        return Capability::Call(0xffffffff81000000ull + rng.Below(16) * 0x100);
      default:
        return Capability::Ref(100 + rng.Below(4), page);
    }
  };
  // Revoke-only shapes: more buckets than the index probes one at a time,
  // a word of the user window every module's shared principal holds, and a
  // word of a module data section.
  auto random_revoke = [&]() -> Capability {
    switch (rng.Below(10)) {
      case 0:
        return Capability::Write(kPool + rng.Below(8) * 0x1000, 0x1000 * 80);
      case 1:
        return Capability::Write(rng.Below(kern::kUserSpaceTop / 8) * 8, 8);
      case 2: {
        kern::Module* m = mods[rng.Below(mods.size())];
        if (m->data() != nullptr) {
          return Capability::Write(reinterpret_cast<uintptr_t>(m->data()) + rng.Below(64) * 64, 8);
        }
        return random_cap();
      }
      default:
        return random_cap();
    }
  };

  for (int step = 0; step < 600; ++step) {
    if (step == kUnloadStep) {
      // Unload the last module: its principals leave the index before the
      // grace period, and later revokes must not touch them.
      kern::Module* doomed = mods.back();
      lxfi::ModuleCtx* mc = rt.CtxOf(doomed);
      forget_owner(mc->shared());
      forget_owner(mc->global());
      for (uintptr_t name : kNames) {
        if (lxfi::Principal* p = mc->Lookup(name)) {
          forget_owner(p);
        }
      }
      bench.kernel->UnloadModule(doomed);
      mods.pop_back();
    }
    double r = rng.NextDouble();
    if (r < 0.04) {
      kern::Module* m = mods[rng.Below(mods.size())];
      uintptr_t name = kNames[rng.Below(3)];
      if (lxfi::Principal* p = rt.CtxOf(m)->Lookup(name)) {
        forget_owner(p);
        rt.DropPrincipal(m, reinterpret_cast<const void*>(rng.Chance(0.5) ? name | kAliasBit : name));
        ASSERT_EQ(rt.CtxOf(m)->Lookup(name), nullptr);
      }
      continue;
    }
    if (r < 0.6) {
      Capability cap = random_cap();
      lxfi::Principal* p = random_principal();
      rt.Grant(p, cap);
      auto& v = owners[key_of(cap)];
      if (std::find(v.begin(), v.end(), p) == v.end()) {
        v.push_back(p);
      }
      ASSERT_TRUE(rt.Owns(p, cap)) << "I1 violated at step " << step;
    } else {
      Capability cap = random_revoke();
      rt.RevokeEverywhere(cap);
      // I6: the full walk finds nothing the indexed revoke left behind.
      auto indexed = lxfitest::SnapshotTables(rt);
      ASSERT_FALSE(lxfitest::ReferenceRevokeEverywhere(rt, cap))
          << "I6: the holder index missed a holder of " << cap.ToString() << " at step " << step;
      ASSERT_TRUE(indexed == lxfitest::SnapshotTables(rt)) << "I6 violated at step " << step;
      // WRITE revocation is overlap-based: drop every overlapping key.
      for (auto it = owners.begin(); it != owners.end();) {
        auto [kind, addr, size, ref] = it->first;
        bool dead = false;
        if (cap.kind == lxfi::CapKind::kWrite && kind == 0) {
          dead = addr < cap.addr + cap.size && cap.addr < addr + size;
        } else {
          dead = key_of(cap) == it->first;
        }
        it = dead ? owners.erase(it) : std::next(it);
      }
      for (auto* q : live_principals()) {
        ASSERT_FALSE(q->caps().Check(cap)) << "I2 violated at step " << step;
      }
    }
    // Cross-check a random sample of expectations.
    if (step % 16 == 0) {
      for (const auto& [k, v] : owners) {
        auto [kind, addr, size, ref] = k;
        Capability probe;
        if (kind == 0) {
          probe = Capability::Write(addr, size);
        } else if (kind == 2) {
          probe = Capability::Call(addr);
        } else {
          probe = Capability::Ref(ref, addr);
        }
        probe.kind = static_cast<lxfi::CapKind>(kind);
        for (auto* q : v) {
          ASSERT_TRUE(rt.Owns(q, probe)) << "tracked owner lost cap at step " << step;
          // I4: global sees it too.
          ASSERT_TRUE(rt.Owns(q->module()->global(), probe)) << "I4 violated at step " << step;
        }
        // I3: shared ownership implies everyone in the module.
        for (auto* q : v) {
          if (q != q->module()->shared()) {
            continue;
          }
          for (auto* other : live_principals()) {
            if (other->module() == q->module()) {
              ASSERT_TRUE(rt.Owns(other, probe)) << "I3 violated at step " << step;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapAlgebraProperty, ::testing::Values(11, 22, 33, 44, 55, 66));

// --- kmalloc/kfree conservation --------------------------------------------------
//
// Invariant: after any interleaving of module allocations and frees, the
// module owns WRITE for exactly the live allocations.

class AllocProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocProperty, OwnershipMatchesLiveness) {
  Bench bench(/*isolated=*/true);
  struct St {
    kern::ImportFn<kern::kKmalloc> kmalloc;
    kern::ImportFn<kern::kKfree> kfree;
  };
  auto st = std::make_shared<St>();
  kern::ModuleDef def;
  def.name = "allocprop";
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kPrintk};
  def.init = [st](kern::Module& m) -> int {
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    return 0;
  };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  lxfi::Runtime& rt = *bench.rt;
  lxfi::Principal* shared = rt.CtxOf(m)->shared();

  lxfi::Rng rng(GetParam());
  std::vector<std::pair<void*, size_t>> live;
  lxfi::ScopedPrincipal as_module(&rt, shared);
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.Chance(0.6)) {
      size_t size = 16 + rng.Below(900);
      void* p = st->kmalloc(size);
      ASSERT_NE(p, nullptr);
      live.emplace_back(p, size);
    } else {
      size_t idx = rng.Below(live.size());
      st->kfree(live[idx].first);
      live.erase(live.begin() + static_cast<long>(idx));
    }
    if (step % 20 == 0) {
      for (const auto& [p, size] : live) {
        ASSERT_TRUE(rt.Owns(shared, Capability::Write(p, size)))
            << "live allocation lost its WRITE at step " << step;
      }
    }
  }
  // Free everything: no residual ownership.
  std::vector<std::pair<void*, size_t>> drained = live;
  for (const auto& [p, size] : drained) {
    st->kfree(p);
  }
  for (const auto& [p, size] : drained) {
    EXPECT_FALSE(shared->caps().CheckWrite(reinterpret_cast<uintptr_t>(p), 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocProperty, ::testing::Values(3, 7, 31, 127));

// --- slab reuse never aliases two live objects -----------------------------------

class SlabProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlabProperty, NoLiveAliasing) {
  kern::Kernel k;
  lxfi::Rng rng(GetParam());
  std::vector<std::pair<char*, size_t>> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Chance(0.55)) {
      size_t size = 1 + rng.Below(3000);
      auto* p = static_cast<char*>(k.slab().Alloc(size));
      ASSERT_NE(p, nullptr);
      for (const auto& [q, qsize] : live) {
        bool overlap = p < q + qsize && q < p + size;
        ASSERT_FALSE(overlap) << "slab handed out overlapping live objects";
      }
      live.emplace_back(p, size);
    } else {
      size_t idx = rng.Below(live.size());
      k.slab().Free(live[idx].first);
      live.erase(live.begin() + static_cast<long>(idx));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlabProperty, ::testing::Values(101, 202, 303));

}  // namespace
