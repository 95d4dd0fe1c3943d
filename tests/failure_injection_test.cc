// Failure injection: the error paths of annotated interfaces must keep the
// capability state consistent — probe failures hand the device back
// (Figure 4's post(if (return < 0) transfer...)), busy transmits hand the
// packet back, allocation failure grants nothing.
#include <gtest/gtest.h>

#include "src/kernel/block/block.h"
#include "src/kernel/fs/pagecache.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/skbuff.h"
#include "src/kernel/net/socket.h"
#include "src/kernel/pci/pci.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/violation.h"
#include "src/lxfi/wrap.h"
#include "src/modules/e1000/e1000.h"
#include "src/modules/fsfilter/fsfilter.h"
#include "src/modules/ramfs/ramfs.h"
#include "tests/testbench.h"

namespace {

using lxfi::Capability;
using lxfitest::Bench;

// A driver whose probe can be told to fail after it received its REF.
struct FlakyState {
  kern::Module* m = nullptr;
  bool fail_probe = false;
  kern::PciDev* seen = nullptr;
  kern::ImportFn<kern::kPciRegisterDriver> pci_register_driver;
};

kern::ModuleDef FlakyDriverDef(std::shared_ptr<FlakyState> st) {
  kern::ModuleDef def;
  def.name = "flaky";
  def.data_size = sizeof(kern::PciDriver);
  def.imports = {kern::kPciRegisterDriver, kern::kPciUnregisterDriver, kern::kPrintk};
  def.functions = {
      lxfi::DeclareFunction("flaky_probe", kern::kPciProbe,
                                                [st](kern::PciDev* pdev) {
                                                  st->seen = pdev;
                                                  return st->fail_probe ? -kern::kEnodev : 0;
                                                }),
      lxfi::DeclareFunction("flaky_remove", kern::kPciRemove,
                                                 [](kern::PciDev*) {}),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    st->pci_register_driver = lxfi::GetImport(m, kern::kPciRegisterDriver);
    auto* drv = static_cast<kern::PciDriver*>(m.data());
    lxfi::Store(m, &drv->vendor, uint16_t{0xaaaa});
    lxfi::Store(m, &drv->device, uint16_t{0xbbbb});
    lxfi::Store(m, &drv->probe, m.FuncAddr("flaky_probe"));
    lxfi::Store(m, &drv->remove, m.FuncAddr("flaky_remove"));
    lxfi::Store(m, &drv->module, &m);
    return st->pci_register_driver(drv);
  };
  return def;
}

TEST(FailureInjection, FailedProbeHandsTheDeviceBack) {
  Bench bench(/*isolated=*/true);
  kern::PciDev* dev = kern::GetPciBus(bench.kernel.get())->AddDevice(0xaaaa, 0xbbbb, 0, 9);
  auto st = std::make_shared<FlakyState>();
  st->fail_probe = true;
  kern::Module* m = bench.kernel->LoadModule(FlakyDriverDef(st));
  ASSERT_NE(m, nullptr) << "module load survives a failed probe";
  EXPECT_EQ(st->seen, dev);
  EXPECT_EQ(dev->driver, nullptr);
  // The probe's pre(copy(ref...)) granted a REF; the post(if (return < 0)
  // transfer(...)) must have revoked it from the instance principal.
  lxfi::Principal* inst =
      bench.rt->CtxOf(m)->Lookup(reinterpret_cast<uintptr_t>(dev));
  ASSERT_NE(inst, nullptr);
  EXPECT_FALSE(bench.rt->Owns(inst, Capability::Ref("pci_dev", dev)))
      << "the REF must travel back with the error return";
}

TEST(FailureInjection, SuccessfulProbeKeepsTheRef) {
  Bench bench(/*isolated=*/true);
  kern::PciDev* dev = kern::GetPciBus(bench.kernel.get())->AddDevice(0xaaaa, 0xbbbb, 0, 9);
  auto st = std::make_shared<FlakyState>();
  kern::Module* m = bench.kernel->LoadModule(FlakyDriverDef(st));
  ASSERT_NE(m, nullptr);
  lxfi::Principal* inst =
      bench.rt->CtxOf(m)->Lookup(reinterpret_cast<uintptr_t>(dev));
  ASSERT_NE(inst, nullptr);
  EXPECT_TRUE(bench.rt->Owns(inst, Capability::Ref("pci_dev", dev)));
}

TEST(FailureInjection, BusyXmitReturnsSkbCapsWithThePacket) {
  Bench bench(/*isolated=*/true);
  kern::NicHw* hw = mods::PlugInE1000Device(bench.kernel.get());
  kern::Module* m = bench.kernel->LoadModule(mods::E1000ModuleDef());
  ASSERT_NE(m, nullptr);
  kern::NetStack* stack = kern::GetNetStack(bench.kernel.get());
  kern::NetDevice* dev = stack->DevByIndex(1);

  // Fill the ring so the next xmit reports busy.
  for (uint32_t i = 0; i < mods::kE1000TxRing - 1; ++i) {
    kern::SkBuff* skb = kern::AllocSkb(bench.kernel.get(), 60);
    kern::SkbPut(skb, 60);
    ASSERT_EQ(stack->DevQueueXmit(dev, skb), kern::kNetdevTxOk);
  }
  kern::SkBuff* stuck = kern::AllocSkb(bench.kernel.get(), 60);
  kern::SkbPut(stuck, 60);
  ASSERT_EQ(stack->DevQueueXmit(dev, stuck), kern::kNetdevTxBusy);
  // The pre(transfer(skb_caps)) gave the module the packet, the
  // post(if (return == 16) transfer(skb_caps)) took it back: no module
  // principal may still write it.
  lxfi::ModuleCtx* ctx = bench.rt->CtxOf(m);
  for (const auto& inst : ctx->instances()) {
    EXPECT_FALSE(inst->caps().CheckWrite(reinterpret_cast<uintptr_t>(stuck), 8));
  }
  EXPECT_FALSE(ctx->shared()->caps().CheckWrite(reinterpret_cast<uintptr_t>(stuck), 8));
  // The kernel (trusted) can free it safely.
  kern::FreeSkb(bench.kernel.get(), stuck);
  hw->ProcessTx();
  EXPECT_EQ(bench.rt->violation_count(), 0u);
}

TEST(FailureInjection, KmallocExhaustionGrantsNothing) {
  // A tiny kernel: the module's allocation fails and no WRITE appears.
  kern::Kernel kernel(1 << 20);
  lxfi::Runtime rt(&kernel);
  lxfi::InstallKernelApi(&kernel, &rt);
  struct St {
    kern::ImportFn<kern::kKmalloc> kmalloc;
  };
  auto st = std::make_shared<St>();
  kern::ModuleDef def;
  def.name = "hungry";
  def.imports = {kern::kKmalloc, kern::kPrintk};
  def.init = [st](kern::Module& m) -> int {
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    return 0;
  };
  kern::Module* m = kernel.LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  lxfi::Principal* shared = rt.CtxOf(m)->shared();
  size_t caps_before = shared->caps().write_count();
  {
    lxfi::ScopedPrincipal as_module(&rt, shared);
    void* p = nullptr;
    for (int i = 0; i < 64 && (p = st->kmalloc(1 << 16)) != nullptr; ++i) {
    }
    EXPECT_EQ(p, nullptr) << "the arena was supposed to run out";
  }
  // The failing call's post(if (return != 0) ...) must not fire: granted
  // WRITE count grew only for the successful allocations.
  size_t caps_after = shared->caps().write_count();
  EXPECT_GT(caps_after, caps_before);
  EXPECT_FALSE(shared->caps().CheckWrite(0, 0) && false);  // sanity no-op
  // Null must never be a writable range.
  EXPECT_FALSE(rt.Owns(shared, Capability::Write(uintptr_t{1 << 21}, 8)));
}

TEST(FailureInjection, SocketCreateFailureUnwinds) {
  Bench bench(/*isolated=*/true);
  // A protocol whose create always fails.
  ASSERT_TRUE(bench.rt->annotations().Find("net_proto_family::create") != nullptr);
  kern::ModuleDef def;
  def.name = "refuser";
  def.data_size = sizeof(kern::NetProtoFamily);
  def.imports = {kern::kSockRegister, kern::kPrintk};
  def.functions = {lxfi::DeclareFunction("refuse_create", kern::kProtoFamilyCreate,
                                         [](kern::Socket*) { return -kern::kEnomem; })};
  def.init = [](kern::Module& m) -> int {
    auto* fam = static_cast<kern::NetProtoFamily*>(m.data());
    lxfi::Store(m, &fam->family, 77);
    lxfi::Store(m, &fam->create, m.FuncAddr("refuse_create"));
    return lxfi::GetImport(m, kern::kSockRegister)(fam);
  };
  ASSERT_NE(bench.kernel->LoadModule(std::move(def)), nullptr);
  kern::SocketLayer* sl = kern::GetSocketLayer(bench.kernel.get());
  EXPECT_EQ(sl->SysSocket(77, 0), nullptr);
  EXPECT_EQ(sl->open_sockets(), 0u);
  EXPECT_EQ(bench.rt->violation_count(), 0u);
}

lxfi::RuntimeOptions QuarantineOptions() {
  lxfi::RuntimeOptions options;
  options.policy = lxfi::ViolationPolicy::kQuarantine;
  options.partitioned_heaps = true;
  return options;
}

// A filesystem whose mount hook fails after register_filesystem succeeded:
// the registration must survive, kill_sb must NOT run (the kernel only calls
// it after a successful mount), and nothing leaks into the mount table.
TEST(FailureInjection, MountFailureAfterRegisterFilesystem) {
  Bench bench(/*isolated=*/true);
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  struct FailFsState {
    int mount_calls = 0;
    int kill_calls = 0;
    kern::ImportFn<kern::kRegisterFilesystem> register_filesystem;
  };
  auto st = std::make_shared<FailFsState>();
  kern::ModuleDef def;
  def.name = "failfs";
  def.data_size = sizeof(kern::FileSystemType);
  def.imports = {kern::kRegisterFilesystem, kern::kUnregisterFilesystem, kern::kPrintk};
  def.functions = {
      lxfi::DeclareFunction("failfs_mount", kern::kFsMount,
                            [st](kern::FileSystemType*, kern::SuperBlock*, kern::Dentry*) {
                              ++st->mount_calls;
                              return -kern::kEnomem;
                            }),
      lxfi::DeclareFunction("failfs_kill_sb", kern::kFsKillSb,
                            [st](kern::FileSystemType*, kern::SuperBlock*) { ++st->kill_calls; }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->register_filesystem = lxfi::GetImport(m, kern::kRegisterFilesystem);
    auto* fstype = static_cast<kern::FileSystemType*>(m.data());
    lxfi::Store(m, &fstype->name, static_cast<const char*>("failfs"));
    lxfi::Store(m, &fstype->mount, m.FuncAddr("failfs_mount"));
    lxfi::Store(m, &fstype->kill_sb, m.FuncAddr("failfs_kill_sb"));
    lxfi::Store(m, &fstype->module, &m);
    return st->register_filesystem(fstype);
  };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  size_t mounts_before = vfs->mount_count();

  EXPECT_EQ(vfs->Mount("failfs", "/broken"), nullptr);
  EXPECT_EQ(st->mount_calls, 1);
  EXPECT_EQ(st->kill_calls, 0) << "kill_sb must not run after a failed mount";
  EXPECT_EQ(vfs->mount_count(), mounts_before);
  EXPECT_EQ(bench.rt->violation_count(), 0u);
  // The fstype registration survives the failed mount — and a retry fails
  // just as cleanly.
  ASSERT_NE(vfs->FindFilesystem("failfs"), nullptr);
  EXPECT_EQ(vfs->Mount("failfs", "/broken"), nullptr);
  EXPECT_EQ(st->mount_calls, 2);
  // The mountpoint was never claimed: a healthy filesystem can take it.
  ASSERT_NE(bench.kernel->LoadModule(mods::RamfsModuleDef()), nullptr);
  ASSERT_NE(vfs->Mount("ramfs", "/broken"), nullptr);
  EXPECT_EQ(vfs->mount_count(), mounts_before + 1);
  EXPECT_EQ(bench.rt->violation_count(), 0u);
}

// A module quarantined while it holds a pc_bwrite window open: containment
// and the microreboot must not deadlock on the open hold, and the write
// window must not leak to the rebooted instance.
TEST(FailureInjection, BwriteWindowOpenAtViolationStaysConsistent) {
  Bench bench(/*isolated=*/true, QuarantineOptions());
  lxfi::Containment containment(bench.rt.get());
  bench.rt->set_containment(&containment);
  kern::BlockDevice* dev = kern::GetBlockLayer(bench.kernel.get())->CreateRamDisk("rd0", 64);
  ASSERT_NE(dev, nullptr);

  struct BwState {
    kern::ImportFn<kern::kDmGetDevice> get_device;
    kern::ImportFn<kern::kPcBwrite> bwrite;
    kern::ImportFn<kern::kPcBwriteDone> bwrite_done;
  };
  auto st = std::make_shared<BwState>();
  kern::ModuleDef def;
  def.name = "bwriter";
  def.imports = {kern::kDmGetDevice, kern::kPcBwrite, kern::kPcBwriteDone, kern::kPrintk};
  def.init = [st](kern::Module& m) -> int {
    st->get_device = lxfi::GetImport(m, kern::kDmGetDevice);
    st->bwrite = lxfi::GetImport(m, kern::kPcBwrite);
    st->bwrite_done = lxfi::GetImport(m, kern::kPcBwriteDone);
    return 0;
  };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  lxfi::Principal* shared = bench.rt->CtxOf(m)->shared();

  kern::CachedPage* page = nullptr;
  {
    // The REF over the device comes through the annotated import; the write
    // window over the page payload comes with pc_bwrite's post-copy.
    lxfi::ScopedPrincipal as_module(bench.rt.get(), shared);
    ASSERT_EQ(st->get_device("rd0"), dev);
    page = st->bwrite(dev, 3);
  }
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(bench.rt->Owns(shared, Capability::Write(page->data, kern::kPcBlockSize)))
      << "the open bwrite window grants the payload";

  // Violation with the window still open (pc_bwrite_done never called).
  containment.OnViolation(shared, lxfi::ViolationKind::kWrite,
                          reinterpret_cast<uintptr_t>(page->data));
  EXPECT_TRUE(m->quarantined());
  EXPECT_EQ(containment.HealthOf("bwriter"), lxfi::ModuleHealth::kQuarantined);

  // No mounts, no filters: the reboot drains immediately — the open page
  // hold must not wedge it.
  EXPECT_EQ(containment.DrainPendingReboots(), 1u);
  kern::Module* fresh = bench.kernel->FindModule("bwriter");
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, m);
  // The write window did not survive the reboot: the fresh instance starts
  // with no capability over the page payload.
  EXPECT_FALSE(bench.rt->Owns(bench.rt->CtxOf(fresh)->shared(),
                              Capability::Write(page->data, kern::kPcBlockSize)));
  // The kernel (trusted) can close the abandoned window and keep using the
  // cache.
  EXPECT_EQ(kern::GetPageCache(bench.kernel.get())->BwriteDone(page), 0);
  kern::CachedPage* again = kern::GetPageCache(bench.kernel.get())->Bget(dev, 3);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(kern::GetPageCache(bench.kernel.get())->Brelse(again), 0);
}

// Failure induced mid-microreboot: every reload attempt fails, the retry
// budget runs out with its backoff accounted, and the module retires — while
// the rest of the kernel stays serviceable.
TEST(FailureInjection, MidMicrorebootFailureRetiresTheModule) {
  Bench bench(/*isolated=*/true, QuarantineOptions());
  lxfi::Containment containment(bench.rt.get());
  bench.rt->set_containment(&containment);
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  ASSERT_NE(bench.kernel->LoadModule(mods::RamfsModuleDef()), nullptr);
  ASSERT_NE(vfs->Mount("ramfs", "/mnt"), nullptr);

  auto fail_reload = std::make_shared<bool>(false);
  mods::FsFilterConfig fc;
  fc.module_name = "brittle";
  fc.filter_name = "brittle";
  fc.scope = "mnt";
  kern::ModuleDef def = mods::FsFilterModuleDef(fc);
  auto inner_init = def.init;
  def.init = [fail_reload, inner_init](kern::Module& m) -> int {
    if (*fail_reload) {
      return -kern::kEnomem;
    }
    return inner_init(m);
  };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);

  containment.OnViolation(bench.rt->CtxOf(m)->shared(), lxfi::ViolationKind::kWrite, 0);
  EXPECT_EQ(containment.HealthOf("brittle"), lxfi::ModuleHealth::kQuarantined);
  *fail_reload = true;  // the microreboot's reloads now fail at init

  EXPECT_EQ(containment.DrainPendingReboots(), 0u);
  EXPECT_EQ(containment.HealthOf("brittle"), lxfi::ModuleHealth::kRetired);
  EXPECT_EQ(containment.retired(), 1u);
  EXPECT_EQ(containment.reboots(), 0u);
  EXPECT_FALSE(containment.HasPendingReboots()) << "budget exhausted: no retry churn";
  // Three attempts, exponential backoff: 1000 + 2000 + 4000 simulated ns.
  EXPECT_EQ(containment.backoff_ns(), 7000u);
  EXPECT_EQ(bench.kernel->FindModule("brittle"), nullptr);

  // The kernel around the retired module is untouched: the mount serves and
  // fresh modules load.
  kern::VfsStat vst;
  EXPECT_EQ(vfs->Stat("/mnt", &vst), 0);
  mods::FsFilterConfig ok;
  ok.module_name = "sturdy";
  ok.filter_name = "sturdy";
  ok.scope = "mnt";
  EXPECT_NE(bench.kernel->LoadModule(mods::FsFilterModuleDef(ok)), nullptr);
  EXPECT_EQ(vfs->Stat("/mnt", &vst), 0);
}

TEST(FailureInjection, UnknownFamilyAndDoubleRegister) {
  Bench bench(/*isolated=*/false);
  kern::SocketLayer* sl = kern::GetSocketLayer(bench.kernel.get());
  EXPECT_EQ(sl->SysSocket(123, 0), nullptr);
  kern::NetProtoFamily fam_a{55, 0};
  kern::NetProtoFamily fam_b{55, 0};
  EXPECT_EQ(sl->RegisterFamily(&fam_a), 0);
  EXPECT_NE(sl->RegisterFamily(&fam_b), 0) << "family numbers are exclusive";
  sl->UnregisterFamily(55);
  EXPECT_EQ(sl->RegisterFamily(&fam_b), 0);
}

}  // namespace
