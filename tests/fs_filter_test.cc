// Stackable VFS filters: three filter modules — three mutually-distrustful
// principals — interpose on the same ramfs operation stream in priority
// order, with pre hooks outermost-first and post hooks in reverse, and a
// veto that short-circuits the rest of the chain. The chain's scope-indexed
// dispatch is diffed against a linear reference (tests/reference_filter_chain.h)
// over seeded (un)registration sequences, and raced by a 3-CPU storm.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/runtime.h"
#include "src/modules/fsfilter/fsfilter.h"
#include "src/kernel/smp.h"
#include "src/lxfi/wrap.h"
#include "src/modules/ramfs/ramfs.h"
#include "tests/reference_filter_chain.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

class FsFilterTest : public ::testing::TestWithParam<bool> {
 protected:
  FsFilterTest() : bench_(GetParam()) {
    vfs_ = kern::GetVfs(bench_.kernel.get());
    ramfs_ = bench_.kernel->LoadModule(mods::RamfsModuleDef());
    // Register out of priority order on purpose: the chain must sort.
    mid_ = Load("fsflt-mid", 20);
    outer_ = Load("fsflt-outer", 10);
    inner_ = Load("fsflt-inner", 30);
    vfs_->Mount("ramfs", "/mnt");
  }

  kern::Module* Load(const char* name, int priority, const char* veto_prefix = "") {
    mods::FsFilterConfig config;
    config.module_name = name;
    config.filter_name = name;
    config.priority = priority;
    config.veto_prefix = veto_prefix;
    return bench_.kernel->LoadModule(mods::FsFilterModuleDef(config));
  }

  std::shared_ptr<mods::FsFilterState> St(kern::Module* m) { return mods::GetFsFilter(*m); }

  int Touch(const char* path) {
    int err = 0;
    kern::File* f = vfs_->Open(path, kern::kOCreate, &err);
    if (f == nullptr) {
      return err;
    }
    return vfs_->Close(f);
  }

  Bench bench_;
  kern::Vfs* vfs_ = nullptr;
  kern::Module* ramfs_ = nullptr;
  kern::Module* outer_ = nullptr;  // priority 10: runs first
  kern::Module* mid_ = nullptr;    // priority 20
  kern::Module* inner_ = nullptr;  // priority 30: runs last before the fs
};

TEST_P(FsFilterTest, ThreeFiltersStackInPriorityOrder) {
  ASSERT_NE(ramfs_, nullptr);
  ASSERT_NE(outer_, nullptr);
  ASSERT_NE(mid_, nullptr);
  ASSERT_NE(inner_, nullptr);
  ASSERT_EQ(vfs_->filters().count(), 3u);

  kern::VfsStat st;
  ASSERT_EQ(Touch("/mnt/f"), 0);
  ASSERT_EQ(vfs_->Stat("/mnt/f", &st), 0);

  // Every filter saw the create, the open and the stat.
  for (kern::Module* m : {outer_, mid_, inner_}) {
    EXPECT_EQ(St(m)->pre_count(kern::VfsOp::kCreate), 1u) << m->name();
    EXPECT_EQ(St(m)->post_count(kern::VfsOp::kCreate), 1u) << m->name();
    EXPECT_EQ(St(m)->pre_count(kern::VfsOp::kOpen), 1u) << m->name();
    EXPECT_EQ(St(m)->pre_count(kern::VfsOp::kStat), 1u) << m->name();
  }
  // Chain-position tokens: pre runs outer(0) -> mid(1) -> inner(2); post
  // unwinds inner(3) -> mid(2) -> outer(1).
  EXPECT_EQ(St(outer_)->priv->last_pre_token, 0);
  EXPECT_EQ(St(mid_)->priv->last_pre_token, 1);
  EXPECT_EQ(St(inner_)->priv->last_pre_token, 2);
  EXPECT_EQ(St(inner_)->priv->last_post_token, 3);
  EXPECT_EQ(St(mid_)->priv->last_post_token, 2);
  EXPECT_EQ(St(outer_)->priv->last_post_token, 1);

  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

TEST_P(FsFilterTest, EachFilterIsItsOwnPrincipal) {
  if (!GetParam()) {
    GTEST_SKIP() << "principals exist only under LXFI";
  }
  ASSERT_EQ(Touch("/mnt/f"), 0);
  lxfi::Principal* po = bench_.rt->CtxOf(outer_)->Lookup(
      reinterpret_cast<uintptr_t>(St(outer_)->flt));
  lxfi::Principal* pm = bench_.rt->CtxOf(mid_)->Lookup(
      reinterpret_cast<uintptr_t>(St(mid_)->flt));
  ASSERT_NE(po, nullptr);
  ASSERT_NE(pm, nullptr);
  EXPECT_NE(po->module(), pm->module());
  // A filter's module owns its own counters, not its neighbour's.
  lxfi::Principal* shared_outer = bench_.rt->CtxOf(outer_)->shared();
  EXPECT_TRUE(bench_.rt->Owns(
      shared_outer, lxfi::Capability::Write(St(outer_)->priv, sizeof(mods::FsFilterPriv))));
  EXPECT_FALSE(bench_.rt->Owns(
      shared_outer, lxfi::Capability::Write(St(mid_)->priv, sizeof(mods::FsFilterPriv))));
}

TEST_P(FsFilterTest, VetoShortCircuitsTheChain) {
  // A fourth filter between outer and mid vetoes anything named "sec*".
  kern::Module* veto = Load("fsflt-veto", 15, "sec");
  ASSERT_NE(veto, nullptr);
  ASSERT_EQ(vfs_->filters().count(), 4u);

  int err = 0;
  EXPECT_EQ(vfs_->Open("/mnt/secret", kern::kOCreate, &err), nullptr);
  EXPECT_EQ(err, -kern::kEperm);
  EXPECT_EQ(St(veto)->priv->vetoes, 1u);
  // The outer filter ran; the filters below the veto (and the fs) did not.
  EXPECT_EQ(St(outer_)->pre_count(kern::VfsOp::kCreate), 1u);
  EXPECT_EQ(St(mid_)->pre_count(kern::VfsOp::kCreate), 0u);
  EXPECT_EQ(St(inner_)->pre_count(kern::VfsOp::kCreate), 0u);
  kern::VfsStat st;
  EXPECT_EQ(vfs_->Stat("/mnt/secret", &st), -kern::kEnoent) << "the fs never saw the create";
  // Post hooks of the filters whose pre ran (veto included) still unwound.
  EXPECT_EQ(St(outer_)->post_count(kern::VfsOp::kCreate), 1u);
  EXPECT_EQ(St(veto)->post_count(kern::VfsOp::kCreate), 1u);
  EXPECT_EQ(St(mid_)->post_count(kern::VfsOp::kCreate), 0u);

  // Non-matching names pass through the veto filter untouched.
  EXPECT_EQ(Touch("/mnt/public"), 0);
  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

TEST_P(FsFilterTest, UnregisterDropsOutOfTheChain) {
  ASSERT_EQ(Touch("/mnt/a"), 0);
  EXPECT_EQ(St(mid_)->pre_count(kern::VfsOp::kCreate), 1u);
  bench_.kernel->UnloadModule(mid_);
  ASSERT_EQ(vfs_->filters().count(), 2u);
  ASSERT_EQ(Touch("/mnt/b"), 0);
  // Remaining filters keep stacking in order.
  EXPECT_EQ(St(outer_)->pre_count(kern::VfsOp::kCreate), 2u);
  EXPECT_EQ(St(outer_)->priv->last_pre_token, 0);
  EXPECT_EQ(St(inner_)->priv->last_pre_token, 1);
  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(StockAndLxfi, FsFilterTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Lxfi" : "Stock";
                         });

// --- scope-indexed dispatch against the linear reference -----------------------

// Seeded (un)registration sequences over global and scoped filters with
// equal priorities, owners that UnregisterModule drops by, mounts with and
// without a scoped filter and an operation with no superblock. After every
// step each dispatch must copy exactly what the reference's linear strcmp
// filter of the full list selects, in order. Between steps, registered
// filters rewrite their own priority, scope and owner fields: neither side
// may notice.
TEST(FilterChainDiff, IndexedDispatchMatchesLinearReference) {
  for (uint64_t seed : {1, 2, 3}) {
    Bench bench(/*isolated=*/false);
    kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
    ASSERT_NE(bench.kernel->LoadModule(mods::RamfsModuleDef()), nullptr);
    std::vector<kern::Module*> owners = {nullptr};
    for (const char* name : {"own0", "own1", "own2"}) {
      kern::ModuleDef def;
      def.name = name;
      owners.push_back(bench.kernel->LoadModule(def));
      ASSERT_NE(owners.back(), nullptr);
    }
    // s3 is a mount no filter is scoped to; "gone" is a scope with no mount.
    std::vector<const kern::SuperBlock*> sbs = {nullptr};
    for (const char* mnt : {"/s0", "/s1", "/s2", "/s3"}) {
      sbs.push_back(vfs->Mount("ramfs", mnt));
      ASSERT_NE(sbs.back(), nullptr);
    }
    const char* scopes[] = {nullptr, nullptr, "s0", "s1", "s2", "gone"};
    std::mt19937_64 rng(seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    std::vector<kern::VfsFilter> pool(24);
    auto scramble = [&](kern::VfsFilter& f) {
      f.priority = static_cast<int>(pick(3));  // three values: many ties
      f.scope = scopes[pick(std::size(scopes))];
      f.module = owners[pick(owners.size())];
    };
    for (kern::VfsFilter& f : pool) {
      f.name = "diff";
      scramble(f);
    }
    kern::FilterChain& chain = vfs->filters();
    lxfitest::ReferenceFilterChain ref;
    for (int step = 0; step < 3000; ++step) {
      kern::VfsFilter* f = &pool[pick(pool.size())];
      switch (pick(8)) {
        case 0:
        case 1:
        case 2:
          ASSERT_EQ(chain.Register(f), ref.Register(f)) << "seed " << seed << " step " << step;
          break;
        case 3:
        case 4:
          ASSERT_EQ(chain.Unregister(f), ref.Unregister(f)) << "seed " << seed << " step " << step;
          break;
        case 5: {
          kern::Module* owner = owners[pick(owners.size())];
          ASSERT_EQ(chain.UnregisterModule(owner), ref.UnregisterModule(owner));
          break;
        }
        default:
          scramble(*f);  // registered or not: only a fresh Register reads it
          break;
      }
      ASSERT_EQ(chain.count(), ref.count());
      for (const kern::SuperBlock* sb : sbs) {
        kern::FilterCtx ctx;
        ctx.dentry = sb != nullptr ? sb->root : nullptr;
        kern::FilterRun run;
        ASSERT_EQ(chain.RunPre(&ctx, &run), 0);
        std::vector<kern::FilterRun::Entry> want = ref.InScope(sb);
        ASSERT_EQ(run.snap.size(), want.size())
            << "seed " << seed << " step " << step << " sb " << (sb ? sb->id : "(none)");
        ASSERT_EQ(run.ran, static_cast<int>(want.size()));
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(run.snap[i].flt, want[i].flt) << "seed " << seed << " step " << step;
          ASSERT_EQ(run.snap[i].owner, want[i].owner) << "seed " << seed << " step " << step;
        }
        chain.RunPost(&ctx, run);
      }
    }
    ASSERT_GT(chain.count(), 0u) << "the sequence should end with filters registered";
    for (kern::Module* owner : owners) {
      chain.UnregisterModule(owner);
    }
  }
}

// A scope longer than any superblock id could never match: refused.
TEST(FilterChainDiff, OverlongScopeIsRefused) {
  Bench bench(/*isolated=*/false);
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  std::string scope(kern::kVfsNameMax + 1, 'x');
  kern::VfsFilter f;
  f.name = "long";
  f.scope = scope.c_str();
  EXPECT_EQ(vfs->filters().Register(&f), -kern::kEinval);
  scope.pop_back();
  EXPECT_EQ(vfs->filters().Register(&f), 0);
  EXPECT_EQ(vfs->filters().Unregister(&f), 0);
}

// --- 3-CPU storm: (un)registration racing dispatch ------------------------------

// Storm filters keep their counters in atomics: two CPUs run a global
// filter's hooks at once.
struct StormSlot {
  const kern::SuperBlock* sb = nullptr;  // the scope's mount; null = global
  std::atomic<uint64_t> pre{0};
  std::atomic<uint64_t> post{0};
};

constexpr int kStormFilters = 2;  // per module

// A module whose .data holds kStormFilters registrations with hooks that
// check chain order (priorities never decrease on the way in, never increase
// on the way out) and scope on every dispatch.
kern::ModuleDef StormModuleDef(const std::string& name, std::atomic<uint64_t>* errors) {
  kern::ModuleDef def;
  def.name = name;
  def.data_size = kStormFilters * sizeof(kern::VfsFilter);
  def.functions = {
      lxfi::DeclareFunction("storm_pre", kern::kFilterPreOp,
                            [errors](kern::VfsFilter* flt, kern::FilterCtx* ctx) {
                              auto* slot = static_cast<StormSlot*>(flt->private_data);
                              if ((slot->sb != nullptr && slot->sb != ctx->dentry->sb) ||
                                  ctx->token > flt->priority) {
                                errors->fetch_add(1, std::memory_order_relaxed);
                              }
                              ctx->token = flt->priority;
                              slot->pre.fetch_add(1, std::memory_order_relaxed);
                              return 0;
                            }),
      lxfi::DeclareFunction("storm_post", kern::kFilterPostOp,
                            [errors](kern::VfsFilter* flt, kern::FilterCtx* ctx) {
                              auto* slot = static_cast<StormSlot*>(flt->private_data);
                              if (ctx->token < flt->priority) {
                                errors->fetch_add(1, std::memory_order_relaxed);
                              }
                              ctx->token = flt->priority;
                              slot->post.fetch_add(1, std::memory_order_relaxed);
                            }),
  };
  def.init = [](kern::Module& m) -> int {
    auto* flts = static_cast<kern::VfsFilter*>(m.data());
    for (int i = 0; i < kStormFilters; ++i) {
      flts[i].name = "storm";
      flts[i].pre_op = m.FuncAddr("storm_pre");
      flts[i].post_op = m.FuncAddr("storm_post");
      flts[i].module = &m;
    }
    return 0;
  };
  return def;
}

// CPU 0 registers, unregisters and drops whole modules (UnregisterModule)
// while CPUs 1 and 2 stat a mount each. Every dispatch must run only
// in-scope filters in priority order, pair each pre with its post, and
// never fail; TSan checks the snapshot publication.
TEST(FilterChainStorm, ThreeCpuRegisterUnregisterRacingDispatch) {
  Bench bench(/*isolated=*/false);
  bench.kernel->slab().EnableSmpCache();
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  ASSERT_NE(bench.kernel->LoadModule(mods::RamfsModuleDef()), nullptr);
  const kern::SuperBlock* sb_a = vfs->Mount("ramfs", "/a");
  const kern::SuperBlock* sb_b = vfs->Mount("ramfs", "/b");
  ASSERT_NE(sb_a, nullptr);
  ASSERT_NE(sb_b, nullptr);
  std::atomic<uint64_t> errors{0};
  // (scope, priority) of each module's two filters: globals, scoped filters
  // on both mounts, and ties across scopes.
  struct Spec {
    const char* scope;
    int priority;
  };
  const Spec specs[3][kStormFilters] = {
      {{nullptr, 10}, {"a", 20}}, {{nullptr, 20}, {"b", 10}}, {{"a", 10}, {"b", 30}}};
  std::vector<kern::Module*> mods;
  std::vector<kern::VfsFilter*> flts;
  std::vector<StormSlot> slots(3 * kStormFilters);
  for (int m = 0; m < 3; ++m) {
    mods.push_back(bench.kernel->LoadModule(StormModuleDef("storm" + std::to_string(m), &errors)));
    ASSERT_NE(mods.back(), nullptr);
    auto* data = static_cast<kern::VfsFilter*>(mods.back()->data());
    for (int i = 0; i < kStormFilters; ++i) {
      kern::VfsFilter* f = &data[i];
      StormSlot& slot = slots[flts.size()];
      f->scope = specs[m][i].scope;
      f->priority = specs[m][i].priority;
      f->private_data = &slot;
      slot.sb = f->scope == nullptr ? nullptr : (f->scope[0] == 'a' ? sb_a : sb_b);
      flts.push_back(f);
      ASSERT_EQ(vfs->filters().Register(f), 0);
    }
  }

  // The writer starts once both readers run and the readers stop once it is
  // done, so the dispatches overlap every step however the host schedules
  // the three threads.
  constexpr int kSteps = 20000;
  constexpr int kMinStats = 2000;
  std::atomic<int> readers{0};
  std::atomic<bool> writer_done{false};
  {
    kern::CpuSet cpus(bench.kernel.get(), 3);
    cpus.RunOn(0, [&] {
      while (readers.load() < 2) {
        std::this_thread::yield();
      }
      kern::FilterChain& chain = vfs->filters();
      for (int i = 0; i < kSteps; ++i) {
        kern::VfsFilter* f = flts[i % flts.size()];
        int rc = 0;
        switch (i % 3) {
          case 0:
            rc |= chain.Unregister(f) | chain.Register(f);
            break;
          case 1: {
            int m = (i / 3) % 3;
            rc |= chain.UnregisterModule(mods[m]) == kStormFilters ? 0 : 1;
            for (int k = 0; k < kStormFilters; ++k) {
              rc |= chain.Register(flts[m * kStormFilters + k]);
            }
            break;
          }
          default:
            rc |= chain.Register(f) == -kern::kEexist ? 0 : 1;
            break;
        }
        if (rc != 0 || chain.count() != flts.size()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        if ((i & 63) == 63) {
          kern::CpuSet::QuiescePoint();
        }
      }
      writer_done.store(true);
    });
    for (int w = 1; w < 3; ++w) {
      cpus.RunOn(w, [&, w] {
        const char* path = w == 1 ? "/a" : "/b";
        readers.fetch_add(1);
        for (int i = 0; i < kMinStats || !writer_done.load(); ++i) {
          kern::VfsStat st;
          if (vfs->Stat(path, &st) != 0) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          if ((i & 63) == 63) {
            kern::CpuSet::QuiescePoint();
          }
        }
      });
    }
    cpus.Barrier();
  }
  EXPECT_EQ(errors.load(), 0u);
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].pre.load(), slots[i].post.load()) << "filter " << i;
    EXPECT_GT(slots[i].pre.load(), 0u) << "filter " << i << " never ran";
  }
  for (kern::Module* m : mods) {
    vfs->filters().UnregisterModule(m);
  }
}

}  // namespace
