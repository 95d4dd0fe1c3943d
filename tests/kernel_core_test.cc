// Kernel substrate tests: processes, symbol dispatch, uaccess, panic,
// interrupts, module loading basics.
#include <gtest/gtest.h>

#include <functional>
#include <type_traits>

#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"
#include "src/kernel/timer.h"
#include "src/lxfi/kernel_api.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

TEST(ProcessTable, CreateAndLookup) {
  kern::Kernel k;
  kern::Task* t = k.procs().CreateTask(1000);
  EXPECT_EQ(t->cred.uid, 1000u);
  EXPECT_EQ(k.procs().FindByPid(t->pid), t);
  EXPECT_TRUE(k.procs().IsHashed(t));
}

TEST(ProcessTable, TasksLiveInSlabMemory) {
  kern::Kernel k;
  kern::Task* t = k.procs().CreateTask(1);
  EXPECT_TRUE(k.slab().IsLive(t)) << "task_structs must be capability-addressable";
}

TEST(ProcessTable, DetachPidHidesButKeepsTask) {
  kern::Kernel k;
  kern::Task* t = k.procs().CreateTask(0);
  k.procs().DetachPid(t);
  EXPECT_EQ(k.procs().FindByPid(t->pid), nullptr);
  bool found = false;
  for (kern::Task* task : k.procs().all_tasks()) {
    found = found || task == t;
  }
  EXPECT_TRUE(found) << "detached tasks still exist (the rootkit asymmetry)";
}

TEST(ProcessTable, DoExitZeroWriteBug) {
  // CVE-2010-4258: do_exit writes a zero through clear_child_tid even when
  // it points into kernel memory.
  kern::Kernel k;
  kern::Task* t = k.procs().CreateTask(1000);
  auto* victim = static_cast<uintptr_t*>(k.slab().Alloc(sizeof(uintptr_t)));
  *victim = 0xdeadbeef;
  t->clear_child_tid = reinterpret_cast<uintptr_t>(victim);
  k.procs().DoExit(t);
  EXPECT_EQ(*victim, 0u);
  EXPECT_TRUE(t->exited);
}

TEST(Creds, PrepareAndCommit) {
  kern::Kernel k;
  kern::Task* t = k.procs().CreateTask(1000);
  kern::CommitCreds(t, kern::PrepareKernelCred());
  EXPECT_EQ(t->cred.uid, 0u);
  EXPECT_EQ(t->cred.euid, 0u);
}

TEST(FuncRegistry, InvokeRegisteredFunction) {
  kern::FuncRegistry reg;
  uintptr_t addr = reg.Register<int(int)>(kern::TextKind::kKernelText, "twice",
                                          [](int x) { return 2 * x; });
  EXPECT_EQ((reg.Invoke<int, int>(addr, 21)), 42);
}

TEST(FuncRegistry, WildJumpPanics) {
  kern::FuncRegistry reg;
  EXPECT_THROW((reg.Invoke<void>(0xdeadbeef)), kern::KernelPanic);
}

TEST(FuncRegistry, SignatureMismatchPanics) {
  kern::FuncRegistry reg;
  uintptr_t addr =
      reg.Register<int(int)>(kern::TextKind::kKernelText, "f", [](int x) { return x; });
  EXPECT_THROW((reg.Invoke<void>(addr)), kern::KernelPanic);
}

TEST(FuncRegistry, FixedAddressZeroForNullPageMapping) {
  kern::FuncRegistry reg;
  uintptr_t addr = reg.Register<int()>(kern::TextKind::kUserText, "nullpage",
                                       [] { return 7; }, 0, nullptr, /*fixed_addr=*/0);
  EXPECT_EQ(addr, 0u);
  EXPECT_EQ((reg.Invoke<int>(0)), 7);
}

TEST(FuncRegistry, AddressRangesAreDisjoint) {
  kern::FuncRegistry reg;
  uintptr_t k = reg.Register<void()>(kern::TextKind::kKernelText, "k", [] {});
  uintptr_t m = reg.Register<void()>(kern::TextKind::kModuleText, "m", [] {});
  uintptr_t u = reg.Register<void()>(kern::TextKind::kUserText, "u", [] {});
  EXPECT_GE(k, kern::kKernelTextBase);
  EXPECT_LT(k, kern::kModuleTextBase);
  EXPECT_GE(m, kern::kModuleTextBase);
  EXPECT_TRUE(kern::IsUserAddress(u));
}

constexpr kern::KernelSymbol<int()> kAnswer{"answer"};

// An export handle and a function-pointer-type handle never pass for each
// other, and an import binds exactly the export's signature.
static_assert(!std::is_convertible_v<decltype(kern::kKmalloc), kern::FnPtrTypeId>);
static_assert(!std::is_convertible_v<decltype(kern::kTimerFn), kern::KernelSymbolId>);
static_assert(std::is_same_v<kern::ImportFn<kern::kKmalloc>, std::function<void*(size_t)>>);

TEST(SymbolTable, ExportAndFind) {
  kern::Kernel k;
  uintptr_t addr = k.ExportSymbol(kAnswer, [] { return 42; });
  EXPECT_EQ(k.symtab().Find("answer"), addr);
  EXPECT_EQ(k.funcs().Invoke<int>(addr), 42);
  EXPECT_EQ(k.symtab().Find("nope"), 0u);
}

// Every export is installed with its contract: after an isolating install
// each symbol has an annotation set, and a stock install exports the same
// names at the same kernel-text addresses.
TEST(KernelApi, EveryExportCarriesItsContract) {
  Bench isolated(/*isolated=*/true);
  Bench stock(/*isolated=*/false);
  const auto& symbols = isolated.kernel->symtab().symbols();
  EXPECT_FALSE(symbols.empty());
  for (const auto& [name, addr] : symbols) {
    EXPECT_NE(isolated.rt->annotations().Find(name), nullptr) << name;
  }
  EXPECT_EQ(stock.kernel->symtab().symbols(), symbols);
}

TEST(KernelApi, ExportRefusesAParameterListOfTheWrongLength) {
  Bench bench(/*isolated=*/true);
  size_t funcs = bench.kernel->funcs().size();
  EXPECT_THROW(lxfi::Export(bench.kernel.get(), bench.rt.get(), kAnswer, {"x"}, "",
                            [] { return 42; }),
               kern::KernelPanic);
  EXPECT_EQ(bench.kernel->symtab().Find("answer"), 0u);
  EXPECT_EQ(bench.kernel->funcs().size(), funcs);
}

TEST(UserSpace, CheckedCopiesRespectBounds) {
  kern::UserSpace us;
  uint8_t data[16] = {1, 2, 3};
  EXPECT_EQ(us.CopyToUser(0x1000, data, sizeof(data)), 0);
  uint8_t back[16] = {};
  EXPECT_EQ(us.CopyFromUser(back, 0x1000, sizeof(back)), 0);
  EXPECT_EQ(back[2], 3);
  // Out-of-range user addresses fault.
  EXPECT_LT(us.CopyToUser(kern::kUserSpaceTop, data, 1), 0);
  EXPECT_LT(us.CopyFromUser(back, kern::kUserSpaceTop - 4, 16), 0);
}

TEST(UserSpace, UncheckedCopyScribblesKernelMemory) {
  kern::UserSpace us;
  uint64_t kernel_word = 1;
  uint64_t evil = 0x4141414141414141ull;
  us.CopyToUserUnchecked(reinterpret_cast<uintptr_t>(&kernel_word), &evil, sizeof(evil));
  EXPECT_EQ(kernel_word, evil) << "__copy_to_user has no access_ok — that's the bug";
}

TEST(Panic, HandlerRunsThenThrows) {
  bool handled = false;
  auto prev = kern::SetPanicHandler([&](const std::string&) { handled = true; });
  EXPECT_THROW(kern::Panic("test"), kern::KernelPanic);
  EXPECT_TRUE(handled);
  kern::SetPanicHandler(prev);
}

TEST(Kthreads, ContextsSwitch) {
  kern::Kernel k;
  kern::KthreadContext* boot = k.current();
  kern::KthreadContext* worker = k.CreateKthread();
  EXPECT_NE(boot, worker);
  k.SwitchTo(worker);
  EXPECT_EQ(k.current(), worker);
  kern::Task* t = k.procs().CreateTask(5);
  k.SetCurrentTask(t);
  EXPECT_EQ(k.current_task(), t);
  k.SwitchTo(boot);
  EXPECT_EQ(k.current_task(), nullptr);
}

TEST(Kthreads, InterruptDepthTracked) {
  kern::Kernel k;
  k.DeliverInterrupt([&] { EXPECT_EQ(k.current()->irq_depth, 1); });
  EXPECT_EQ(k.current()->irq_depth, 0);
}

TEST(ModuleLoader, SectionsAllocatedAndInitRuns) {
  Bench bench(/*isolated=*/false);
  bool init_ran = false;
  kern::ModuleDef def;
  def.name = "secmod";
  def.data_size = 100;
  def.rodata_size = 50;
  def.init = [&](kern::Module& m) -> int {
    init_ran = true;
    EXPECT_NE(m.data(), nullptr);
    EXPECT_NE(m.rodata(), nullptr);
    return 0;
  };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(init_ran);
  EXPECT_EQ(m->state(), kern::ModuleState::kLive);
  EXPECT_EQ(bench.kernel->FindModule("secmod"), m);
}

TEST(ModuleLoader, InitFailureUnwindsLoad) {
  Bench bench(/*isolated=*/true);
  kern::ModuleDef def;
  def.name = "failmod";
  def.imports = {kern::kPrintk};
  def.init = [](kern::Module&) { return -kern::kEnomem; };
  EXPECT_EQ(bench.kernel->LoadModule(std::move(def)), nullptr);
  EXPECT_EQ(bench.kernel->FindModule("failmod"), nullptr);
}

TEST(ModuleLoader, SectionInitAndRelocOrdering) {
  Bench bench(/*isolated=*/true);
  int stage = 0;
  kern::ModuleDef def;
  def.name = "ordmod";
  def.data_size = 16;
  def.imports = {kern::kPrintk};
  def.init_sections = [&](kern::Module&) {
    EXPECT_EQ(stage, 0);
    stage = 1;
  };
  def.patch_relocs = [&](kern::Module&) {
    EXPECT_EQ(stage, 1);
    stage = 2;
  };
  def.init = [&](kern::Module&) -> int {
    EXPECT_EQ(stage, 2);
    stage = 3;
    return 0;
  };
  ASSERT_NE(bench.kernel->LoadModule(std::move(def)), nullptr);
  EXPECT_EQ(stage, 3);
}

TEST(ModuleLoader, UnloadRunsExit) {
  Bench bench(/*isolated=*/true);
  bool exited = false;
  kern::ModuleDef def;
  def.name = "exmod";
  def.imports = {kern::kPrintk};
  def.init = [](kern::Module&) { return 0; };
  def.exit_fn = [&](kern::Module&) { exited = true; };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  bench.kernel->UnloadModule(m);
  EXPECT_TRUE(exited);
  EXPECT_EQ(m->state(), kern::ModuleState::kUnloaded);
  EXPECT_EQ(bench.kernel->FindModule("exmod"), nullptr);
}

}  // namespace
