// Violation containment & module microreboot (ViolationPolicy::kQuarantine).
//
// A rogue filter's violation must become a bounded recovery sequence: the
// flight recorder attributes it, the offender's arena is sealed and its
// filter dropped from the live snapshot chain before any further dispatch,
// the module microreboots and serves again, and a re-violation inside the
// probation window trips the circuit breaker permanently — all while a
// concurrent healthy tenant completes with zero violations. The final test
// is the 3-CPU churn storm the TSan job soaks.
#include <gtest/gtest.h>

#include <string>

#include "src/eval/tenants.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/violation.h"
#include "src/modules/fsfilter/fsfilter.h"
#include "src/modules/ramfs/ramfs.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

lxfi::RuntimeOptions QuarantineOptions() {
  lxfi::RuntimeOptions options;
  options.policy = lxfi::ViolationPolicy::kQuarantine;
  options.partitioned_heaps = true;
  return options;
}

// Sentinel distinct from every errno a Stat can return.
constexpr int kViolated = -1000;

// Two tenants (mounts /mnt and /healthy, each with a mount-scoped filter)
// plus a victim filter stacked behind the evil one on /mnt.
struct ContainRig {
  explicit ContainRig(lxfi::ContainmentOptions copts = {})
      : bench(/*isolated=*/true, QuarantineOptions()),
        containment(bench.rt.get(), copts) {
    bench.rt->set_containment(&containment);
    vfs = kern::GetVfs(bench.kernel.get());
    fs_mod = bench.kernel->LoadModule(mods::RamfsModuleDef());
    sb = vfs->Mount("ramfs", "/mnt");
    healthy_sb = vfs->Mount("ramfs", "/healthy");
    evil_mod = LoadFilter("fsflt-evil", 0, "mnt");
    victim_mod = LoadFilter("fsflt-victim", 10, "mnt");
    healthy_mod = LoadFilter("fsflt-healthy", 0, "healthy");
  }

  kern::Module* LoadFilter(const char* name, int priority, const char* scope) {
    mods::FsFilterConfig cfg;
    cfg.module_name = name;
    cfg.filter_name = name;
    cfg.priority = priority;
    cfg.scope = scope;  // string literal: static lifetime
    return bench.kernel->LoadModule(mods::FsFilterModuleDef(cfg));
  }

  std::shared_ptr<mods::FsFilterState> Evil() { return mods::GetFsFilter(*evil_mod); }
  std::shared_ptr<mods::FsFilterState> Victim() { return mods::GetFsFilter(*victim_mod); }
  std::shared_ptr<mods::FsFilterState> Healthy() { return mods::GetFsFilter(*healthy_mod); }

  void ArmScribble() {
    Evil()->probe_target = &Victim()->priv->pre_count[0];
    Evil()->probe = mods::FsFilterProbe::kScribbleTarget;
  }

  // Stat through the filter chain; the Stat result, or kViolated.
  int Poke(const char* path) {
    try {
      kern::VfsStat st;
      return vfs->Stat(path, &st);
    } catch (const lxfi::LxfiViolation&) {
      return kViolated;
    }
  }

  Bench bench;
  lxfi::Containment containment;
  kern::Vfs* vfs = nullptr;
  kern::SuperBlock* sb = nullptr;
  kern::SuperBlock* healthy_sb = nullptr;
  kern::Module* fs_mod = nullptr;
  kern::Module* evil_mod = nullptr;
  kern::Module* victim_mod = nullptr;
  kern::Module* healthy_mod = nullptr;
};

// --- (a) + (b): attribution, sealing, snapshot drop ---------------------------

TEST(Containment, QuarantineSealsAttributesAndDropsFilter) {
  ContainRig rig;
  ASSERT_NE(rig.sb, nullptr);
  rig.ArmScribble();
  uint64_t healthy_pre = rig.Healthy()->pre_count(kern::VfsOp::kStat);

  EXPECT_EQ(rig.Poke("/mnt"), kViolated);

  // (a) attributed in the flight recorder.
  ASSERT_GE(rig.bench.rt->violation_count(), 1u);
  const auto v = rig.bench.rt->violations().back();
  EXPECT_EQ(v.kind, lxfi::ViolationKind::kWrite);
  EXPECT_NE(v.principal.find("fsflt-evil"), std::string::npos) << v.principal;
  EXPECT_NE(v.principal_id, 0u);
  EXPECT_EQ(rig.containment.quarantines(), 1u);
  EXPECT_EQ(rig.containment.HealthOf("fsflt-evil"), lxfi::ModuleHealth::kQuarantined);
  EXPECT_TRUE(rig.containment.HasPendingReboots());
  EXPECT_TRUE(rig.evil_mod->quarantined());
  EXPECT_FALSE(rig.victim_mod->quarantined());

  // (b) arena sealed...
  lxfi::Principal* evil_p = rig.bench.rt->CtxOf(rig.evil_mod)->shared();
  EXPECT_TRUE(evil_p->arena_sealed());
  // ...and the filter is out of the snapshot chain before further dispatch:
  // the probe is still armed, yet the next op runs clean and the evil
  // filter's counters stay frozen while the victim's advance.
  uint64_t evil_pre = rig.Evil()->pre_count(kern::VfsOp::kStat);
  uint64_t victim_pre = rig.Victim()->pre_count(kern::VfsOp::kStat);
  EXPECT_EQ(rig.Poke("/mnt"), 0);
  EXPECT_EQ(rig.Evil()->pre_count(kern::VfsOp::kStat), evil_pre);
  EXPECT_EQ(rig.Victim()->pre_count(kern::VfsOp::kStat), victim_pre + 1);

  // The healthy tenant never noticed.
  EXPECT_EQ(rig.Poke("/healthy"), 0);
  EXPECT_EQ(rig.Healthy()->pre_count(kern::VfsOp::kStat), healthy_pre + 1);
  EXPECT_EQ(rig.bench.rt->violation_count(), 1u);
}

// A compromised filter repoints its registration's owner field after
// registering — at a peer module, then at nothing — so that a quarantine
// matching by that field would miss it. Containment drops by the owner the
// chain recorded at registration: the filter leaves the chain and none of
// its hooks runs again.
TEST(Containment, QuarantineDropsByRecordedOwnerAfterOwnerRewrite) {
  for (bool to_peer : {true, false}) {
    ContainRig rig;
    ASSERT_NE(rig.sb, nullptr);
    ASSERT_EQ(rig.vfs->filters().count(), 3u);
    rig.Evil()->flt->module = to_peer ? rig.victim_mod : nullptr;  // its own .data
    rig.ArmScribble();
    EXPECT_EQ(rig.Poke("/mnt"), kViolated);
    EXPECT_EQ(rig.containment.quarantines(), 1u);
    EXPECT_EQ(rig.vfs->filters().count(), 2u) << "to_peer " << to_peer;

    // The probe is still armed: a hook of the evil filter would violate again.
    uint64_t evil_pre = rig.Evil()->pre_count(kern::VfsOp::kStat);
    uint64_t evil_post = rig.Evil()->post_count(kern::VfsOp::kStat);
    uint64_t victim_pre = rig.Victim()->pre_count(kern::VfsOp::kStat);
    EXPECT_EQ(rig.Poke("/mnt"), 0);
    EXPECT_EQ(rig.Evil()->pre_count(kern::VfsOp::kStat), evil_pre);
    EXPECT_EQ(rig.Evil()->post_count(kern::VfsOp::kStat), evil_post);
    EXPECT_EQ(rig.Victim()->pre_count(kern::VfsOp::kStat), victim_pre + 1);
    EXPECT_EQ(rig.bench.rt->violation_count(), 1u) << "to_peer " << to_peer;
    EXPECT_FALSE(rig.victim_mod->quarantined());
  }
}

// --- (c): microreboot restores service ----------------------------------------

TEST(Containment, MicrorebootRestoresService) {
  ContainRig rig;
  ASSERT_NE(rig.sb, nullptr);
  rig.ArmScribble();
  EXPECT_EQ(rig.Poke("/mnt"), kViolated);
  // Keep the shared module state across the reboot; the old Module object
  // dies inside the drain.
  auto evil_state = rig.Evil();
  kern::Module* old = rig.evil_mod;
  evil_state->probe = mods::FsFilterProbe::kNone;  // fix the fault, then reboot

  EXPECT_EQ(rig.containment.DrainPendingReboots(), 1u);

  kern::Module* fresh = rig.bench.kernel->FindModule("fsflt-evil");
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, old);
  EXPECT_FALSE(fresh->quarantined());
  EXPECT_EQ(rig.containment.HealthOf("fsflt-evil"), lxfi::ModuleHealth::kProbation);
  EXPECT_EQ(rig.containment.RebootsOf("fsflt-evil"), 1u);
  EXPECT_EQ(rig.containment.reboots(), 1u);
  EXPECT_FALSE(rig.containment.HasPendingReboots());
  EXPECT_GT(rig.containment.backoff_ns(), 0u);

  // Serves again: the rebooted module's filter is back in the chain.
  uint64_t pre = evil_state->pre_count(kern::VfsOp::kStat);
  EXPECT_EQ(rig.Poke("/mnt"), 0);
  EXPECT_EQ(evil_state->pre_count(kern::VfsOp::kStat), pre + 1);
  EXPECT_EQ(rig.Poke("/healthy"), 0);
  EXPECT_EQ(rig.bench.rt->violation_count(), 1u);
}

// --- (d): circuit breaker on probation re-violation ---------------------------

TEST(Containment, CircuitBreakerRetiresProbationReViolator) {
  ContainRig rig;
  ASSERT_NE(rig.sb, nullptr);
  rig.ArmScribble();
  EXPECT_EQ(rig.Poke("/mnt"), kViolated);
  auto evil_state = rig.Evil();
  // Reboot with the fault NOT fixed: the probe state is shared across the
  // module's reloads, so the fresh instance violates on first dispatch.
  EXPECT_EQ(rig.containment.DrainPendingReboots(), 1u);
  EXPECT_EQ(rig.containment.HealthOf("fsflt-evil"), lxfi::ModuleHealth::kProbation);

  EXPECT_EQ(rig.Poke("/mnt"), kViolated);

  EXPECT_EQ(rig.containment.HealthOf("fsflt-evil"), lxfi::ModuleHealth::kRetired);
  EXPECT_EQ(rig.containment.retired(), 1u);
  EXPECT_EQ(rig.containment.quarantines(), 2u);
  EXPECT_FALSE(rig.containment.HasPendingReboots()) << "retired modules never reboot";
  EXPECT_EQ(rig.containment.DrainPendingReboots(), 0u);
  EXPECT_EQ(rig.containment.reboots(), 1u);

  // Permanently contained: the chain is clean and stays clean.
  uint64_t violations = rig.bench.rt->violation_count();
  EXPECT_EQ(rig.Poke("/mnt"), 0);
  EXPECT_EQ(rig.Poke("/mnt"), 0);
  EXPECT_EQ(rig.bench.rt->violation_count(), violations);
  EXPECT_EQ(rig.Poke("/healthy"), 0);
}

// --- satellite: administrative unload racing the quarantine -------------------

TEST(Containment, AdminUnloadRacingQuarantineIsIdempotent) {
  ContainRig rig;
  ASSERT_NE(rig.sb, nullptr);
  rig.ArmScribble();
  EXPECT_EQ(rig.Poke("/mnt"), kViolated);
  auto evil_state = rig.Evil();
  ASSERT_NE(evil_state->flt, nullptr);

  // Admin unload gets there before the drain. The exit_fn's unregister sees
  // -ENOENT (containment already dropped the registration) and must treat
  // that as done — no double teardown, no leaked snapshot entry.
  rig.bench.kernel->UnloadModule(rig.evil_mod);
  EXPECT_EQ(evil_state->flt, nullptr);
  EXPECT_EQ(rig.bench.kernel->FindModule("fsflt-evil"), nullptr);
  EXPECT_EQ(rig.Poke("/mnt"), 0) << "no stale chain entry may dispatch";

  // The pending microreboot still completes — it just has nothing to unload.
  evil_state->probe = mods::FsFilterProbe::kNone;
  EXPECT_EQ(rig.containment.DrainPendingReboots(), 1u);
  kern::Module* fresh = rig.bench.kernel->FindModule("fsflt-evil");
  ASSERT_NE(fresh, nullptr);
  uint64_t pre = evil_state->pre_count(kern::VfsOp::kStat);
  EXPECT_EQ(rig.Poke("/mnt"), 0);
  EXPECT_EQ(evil_state->pre_count(kern::VfsOp::kStat), pre + 1);
}

// --- fail-fast plumbing -------------------------------------------------------

// A quarantined filter still present in a chain snapshot fails the dispatch
// fast with -EIO (the window between the module flag and the snapshot drop).
TEST(Containment, QuarantinedFilterInSnapshotFailsFast) {
  ContainRig rig;
  ASSERT_NE(rig.sb, nullptr);
  rig.evil_mod->set_quarantined(true);  // flag only: no containment drop
  EXPECT_EQ(rig.Poke("/mnt"), -kern::kEio);
  rig.evil_mod->set_quarantined(false);
  EXPECT_EQ(rig.Poke("/mnt"), 0);
}

// Every VFS entry into a quarantined filesystem module fails fast with -EIO
// while open-file accounting still drains through Close.
TEST(Containment, QuarantinedFsModuleFailsFastEverywhere) {
  Bench bench(/*isolated=*/true, QuarantineOptions());
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  kern::Module* fs_mod = bench.kernel->LoadModule(mods::RamfsModuleDef());
  ASSERT_NE(fs_mod, nullptr);
  ASSERT_NE(vfs->Mount("ramfs", "/mnt"), nullptr);
  int err = 0;
  kern::File* f = vfs->Open("/mnt/held", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr);
  size_t open_before = vfs->open_files();

  fs_mod->set_quarantined(true);
  kern::VfsStat st;
  EXPECT_EQ(vfs->Stat("/mnt/held", &st), -kern::kEio);
  EXPECT_EQ(vfs->Open("/mnt/other", kern::kOCreate, &err), nullptr);
  EXPECT_EQ(vfs->Read(f, 0x1000, 8), -kern::kEio);
  EXPECT_EQ(vfs->Write(f, 0x1000, 8), -kern::kEio);
  EXPECT_EQ(vfs->Fsync(f), -kern::kEio);
  kern::VfsStatFs sfs;
  EXPECT_EQ(vfs->StatFs("/mnt", &sfs), -kern::kEio);
  EXPECT_EQ(vfs->Mount("ramfs", "/mnt2"), nullptr)
      << "a quarantined fstype must not accept new mounts";
  // Close still drains the accounting the forced unmount waits on (the
  // module's release hook is skipped).
  vfs->Close(f);
  EXPECT_EQ(vfs->open_files(), open_before - 1);
  fs_mod->set_quarantined(false);
}

// A filesystem module quarantine with open files defers its microreboot:
// the mount is busy until the handles drain, then the reboot completes and
// the filesystem mounts again.
TEST(Containment, FsModuleMicrorebootWaitsForBusyMounts) {
  Bench bench(/*isolated=*/true, QuarantineOptions());
  lxfi::Containment containment(bench.rt.get());
  bench.rt->set_containment(&containment);
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  kern::Module* fs_mod = bench.kernel->LoadModule(mods::RamfsModuleDef());
  ASSERT_NE(fs_mod, nullptr);
  kern::SuperBlock* sb = vfs->Mount("ramfs", "/mnt");
  ASSERT_NE(sb, nullptr);
  int err = 0;
  kern::File* f = vfs->Open("/mnt/busy", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr);

  // The mount principal violates (driven directly: the fs modules here are
  // benign, but containment must handle filesystem offenders the same way).
  lxfi::Principal* mount_p = bench.rt->CtxOf(fs_mod)->Lookup(reinterpret_cast<uintptr_t>(sb));
  ASSERT_NE(mount_p, nullptr);
  containment.OnViolation(mount_p, lxfi::ViolationKind::kWrite, 0);
  EXPECT_TRUE(fs_mod->quarantined());
  EXPECT_EQ(containment.HealthOf("ramfs"), lxfi::ModuleHealth::kQuarantined);

  // Busy mount: the drain must defer, not tear the superblock out from
  // under the open file.
  EXPECT_EQ(containment.DrainPendingReboots(), 0u);
  EXPECT_TRUE(containment.HasPendingReboots());
  ASSERT_NE(bench.kernel->FindModule("ramfs"), nullptr);

  vfs->Close(f);  // drains the accounting (release dispatch skipped)
  EXPECT_EQ(containment.DrainPendingReboots(), 1u);
  EXPECT_EQ(containment.HealthOf("ramfs"), lxfi::ModuleHealth::kProbation);
  EXPECT_EQ(vfs->mount_count(), 0u) << "the quarantined mount was force-unmounted";

  // The rebooted filesystem registers and mounts again.
  ASSERT_NE(vfs->FindFilesystem("ramfs"), nullptr);
  kern::SuperBlock* fresh_sb = vfs->Mount("ramfs", "/again");
  ASSERT_NE(fresh_sb, nullptr);
  kern::File* g = vfs->Open("/again/works", kern::kOCreate, &err);
  ASSERT_NE(g, nullptr);
  EXPECT_GT(vfs->Write(g, 0x1000, 16), 0);
  vfs->Close(g);
}

// --- the multi-tenant churn storm (the TSan soak target) ----------------------

TEST(Containment, TenantChurnStormUnderSmp) {
  eval::TenantsConfig cfg;
  cfg.tenants = 12;
  cfg.cpus = 3;
  cfg.files = 3;
  cfg.rounds = 2;
  cfg.rogue = 5;
  cfg.storm_loads = 6;
  eval::TenantsHarness h(cfg);
  eval::TenantsResult r = h.RunChurn();

  EXPECT_EQ(r.healthy_errors, 0u);
  EXPECT_EQ(r.healthy_violations, 0u);
  EXPECT_GT(r.healthy_ops, 0u);
  EXPECT_EQ(r.quarantines, 1u);
  EXPECT_EQ(r.reboots, 1u);
  EXPECT_EQ(r.retired, 0u);
  EXPECT_GT(r.rogue_recovered_ops, 0u) << "the rogue tenant must serve again";
  EXPECT_EQ(h.containment()->HealthOf(h.FilterName(cfg.rogue)),
            lxfi::ModuleHealth::kProbation);
  // Slot exhaustion across the tenant fleet is expected and must be
  // accounted (satellite: kArenaFallback instrumentation).
  EXPECT_GT(r.arena_fallbacks, 0u);
}

}  // namespace
