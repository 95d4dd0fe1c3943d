// Runtime monitor tests: capability flows through wrappers, principals,
// shadow stacks, violations (§4, §5).
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/kernel/net/socket.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/testbench.h"

namespace {

using lxfi::Capability;
using lxfitest::Bench;

// A configurable scratch module for driving runtime behavior from tests.
struct ScratchState {
  kern::Module* m = nullptr;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kSpinLockInit> spin_lock_init;
};

kern::ModuleDef ScratchDef(std::shared_ptr<ScratchState> st, const char* name = "scratch") {
  kern::ModuleDef def;
  def.name = name;
  def.data_size = 128;
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kSpinLockInit, kern::kPrintk};
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    st->spin_lock_init = lxfi::GetImport(m, kern::kSpinLockInit);
    return 0;
  };
  return def;
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : bench_(/*isolated=*/true), st_(std::make_shared<ScratchState>()) {
    module_ = bench_.kernel->LoadModule(ScratchDef(st_));
    EXPECT_NE(module_, nullptr);
  }

  lxfi::Runtime& rt() { return *bench_.rt; }
  lxfi::ModuleCtx* ctx() { return rt().CtxOf(module_); }

  Bench bench_;
  std::shared_ptr<ScratchState> st_;
  kern::Module* module_ = nullptr;
};

TEST_F(RuntimeTest, InitialCapsCoverImportsAndSections) {
  lxfi::Principal* shared = ctx()->shared();
  uintptr_t kmalloc_addr = bench_.kernel->symtab().Find("kmalloc");
  EXPECT_TRUE(rt().Owns(shared, Capability::Call(kmalloc_addr)));
  EXPECT_TRUE(rt().Owns(shared, Capability::Write(module_->data(), module_->data_size())));
  // Not imported -> no CALL capability.
  uintptr_t detach = bench_.kernel->symtab().Find("detach_pid");
  EXPECT_FALSE(rt().Owns(shared, Capability::Call(detach)));
}

TEST_F(RuntimeTest, KmallocGrantsWriteAndKfreeRevokesEverywhere) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  void* p = st_->kmalloc(96);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(rt().Owns(ctx()->shared(), Capability::Write(p, 96)));
  // Transfer semantics on kfree: nobody keeps the capability.
  st_->kfree(p);
  EXPECT_FALSE(rt().Owns(ctx()->shared(), Capability::Write(p, 1)));
  EXPECT_FALSE(rt().Owns(ctx()->global(), Capability::Write(p, 1)));
}

TEST_F(RuntimeTest, ModuleCannotFreeMemoryItDoesNotOwn) {
  // Kernel-side allocation the module never got a capability for.
  void* kernel_obj = bench_.kernel->slab().Alloc(64);
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  EXPECT_THROW(st_->kfree(kernel_obj), lxfi::LxfiViolation);
}

TEST_F(RuntimeTest, CheckedStoreInsideOwnAllocationSucceeds) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  auto* p = static_cast<uint64_t*>(st_->kmalloc(64));
  lxfi::Store(*module_, p, uint64_t{42});
  EXPECT_EQ(*p, 42u);
}

TEST_F(RuntimeTest, CheckedStoreOutsideOwnershipViolates) {
  // A kernel-heap object (stack locals are module-writable per §3.2's
  // kernel-stack grant, so the victim must live elsewhere).
  auto* kernel_value = static_cast<uint64_t*>(bench_.kernel->slab().Alloc(sizeof(uint64_t)));
  *kernel_value = 7;
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  EXPECT_THROW(lxfi::Store(*module_, kernel_value, uint64_t{0}), lxfi::LxfiViolation);
  EXPECT_EQ(*kernel_value, 7u) << "the store must not land";
  EXPECT_GE(rt().violation_count(), 1u);
  EXPECT_EQ(rt().violations().back().kind, lxfi::ViolationKind::kWrite);
}

TEST_F(RuntimeTest, KernelStackIsModuleWritable) {
  // §3.2 initial capability (2): the current kernel stack.
  uint64_t local = 1;
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  lxfi::Store(*module_, &local, uint64_t{2});
  EXPECT_EQ(local, 2u);
}

TEST_F(RuntimeTest, SpinLockInitContractEnforced) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  auto* own = static_cast<uintptr_t*>(st_->kmalloc(sizeof(uintptr_t)));
  st_->spin_lock_init(own);  // fine: module owns it
  auto* kernel_word = static_cast<uintptr_t*>(bench_.kernel->slab().Alloc(sizeof(uintptr_t)));
  *kernel_word = 0x1111;
  EXPECT_THROW(st_->spin_lock_init(kernel_word), lxfi::LxfiViolation);
  EXPECT_EQ(*kernel_word, 0x1111u);
}

TEST_F(RuntimeTest, UndeclaredImportIsRejected) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  EXPECT_THROW(lxfi::GetImport(*module_, kern::kDetachPid), lxfi::LxfiViolation);
}

TEST_F(RuntimeTest, TrustedContextBypassesModuleChecks) {
  // No current principal: the import runs as plain kernel code.
  void* p = st_->kmalloc(32);
  EXPECT_NE(p, nullptr);
  // No capability was granted to the module for it.
  EXPECT_FALSE(rt().Owns(ctx()->shared(), Capability::Write(p, 1)));
}

TEST_F(RuntimeTest, PrincipalAliasGivesSecondName) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  auto* obj_a = static_cast<uint64_t*>(st_->kmalloc(8));
  auto* obj_b = static_cast<uint64_t*>(st_->kmalloc(8));
  lxfi::Principal* inst = ctx()->GetOrCreate(reinterpret_cast<uintptr_t>(obj_a));
  {
    lxfi::ScopedPrincipal as_instance(&rt(), inst);
    rt().PrincAlias(obj_a, obj_b);
  }
  EXPECT_EQ(ctx()->Lookup(reinterpret_cast<uintptr_t>(obj_b)), inst);
}

TEST_F(RuntimeTest, AliasOfUnknownNameViolates) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  int x, y;
  EXPECT_THROW(rt().PrincAlias(&x, &y), lxfi::LxfiViolation);
}

TEST_F(RuntimeTest, CrossModulePrincipalSwitchViolates) {
  auto st2 = std::make_shared<ScratchState>();
  kern::Module* other = bench_.kernel->LoadModule(ScratchDef(st2, "scratch2"));
  ASSERT_NE(other, nullptr);
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  EXPECT_THROW(rt().SwitchPrincipal(rt().CtxOf(other)->shared()), lxfi::LxfiViolation);
}

TEST_F(RuntimeTest, SharedCapsVisibleToInstances) {
  lxfi::Principal* inst = ctx()->GetOrCreate(0x1234);
  uintptr_t kmalloc_addr = bench_.kernel->symtab().Find("kmalloc");
  // CALL caps live in the shared principal but every instance can use them.
  EXPECT_TRUE(rt().Owns(inst, Capability::Call(kmalloc_addr)));
}

TEST_F(RuntimeTest, GlobalPrincipalSeesInstanceCaps) {
  // An address far outside both the module's sections and the user window.
  constexpr uintptr_t kAddr = 0x7000dead0000ull;
  lxfi::Principal* inst = ctx()->GetOrCreate(0x1234);
  rt().Grant(inst, Capability::Write(kAddr, 64));
  EXPECT_TRUE(rt().Owns(ctx()->global(), Capability::Write(kAddr, 64)));
  // But a sibling instance does not.
  lxfi::Principal* other = ctx()->GetOrCreate(0x5678);
  EXPECT_FALSE(rt().Owns(other, Capability::Write(kAddr, 64)));
}

TEST_F(RuntimeTest, InstanceCapsIsolatedFromEachOther) {
  lxfi::Principal* a = ctx()->GetOrCreate(0x1000);
  lxfi::Principal* b = ctx()->GetOrCreate(0x2000);
  rt().Grant(a, Capability::Ref(lxfi::RefType("socket"), 0xa));
  EXPECT_TRUE(rt().Owns(a, Capability::Ref(lxfi::RefType("socket"), 0xa)));
  EXPECT_FALSE(rt().Owns(b, Capability::Ref(lxfi::RefType("socket"), 0xa)));
}

TEST_F(RuntimeTest, ShadowStackCorruptionIsFatal) {
  lxfi::ShadowStack* shadow = rt().CurrentShadow();
  uint64_t token = rt().WrapperEnter(ctx()->shared(), "victim");
  shadow->CorruptTopForTest();
  EXPECT_THROW(rt().WrapperExit(token, "victim"), lxfi::LxfiViolation);
}

TEST_F(RuntimeTest, InterruptSavesAndRestoresPrincipal) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  EXPECT_EQ(rt().CurrentPrincipal(), ctx()->shared());
  bench_.kernel->DeliverInterrupt([&] {
    // Interrupt context runs with kernel privilege until a wrapper switches.
    EXPECT_EQ(rt().CurrentPrincipal(), nullptr);
  });
  EXPECT_EQ(rt().CurrentPrincipal(), ctx()->shared());
}

TEST_F(RuntimeTest, NestedInterrupts) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  bench_.kernel->DeliverInterrupt([&] {
    bench_.kernel->DeliverInterrupt([&] { EXPECT_EQ(rt().CurrentPrincipal(), nullptr); });
    EXPECT_EQ(rt().CurrentPrincipal(), nullptr);
  });
  EXPECT_EQ(rt().CurrentPrincipal(), ctx()->shared());
}

TEST_F(RuntimeTest, LxfiCheckPassesAndFails) {
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  auto* p = st_->kmalloc(16);
  rt().LxfiCheck(Capability::Write(p, 16));  // no throw
  EXPECT_THROW(rt().LxfiCheck(Capability::Ref(lxfi::RefType("pci_dev"), 0x42)),
               lxfi::LxfiViolation);
}

TEST_F(RuntimeTest, ViolationPolicyCount) {
  rt().options().policy = lxfi::ViolationPolicy::kCount;
  auto* v = static_cast<uint64_t*>(bench_.kernel->slab().Alloc(sizeof(uint64_t)));
  *v = 1;
  lxfi::ScopedPrincipal as_module(&rt(), ctx()->shared());
  lxfi::Store(*module_, v, uint64_t{2});  // violation recorded, store proceeds
  EXPECT_GE(rt().violation_count(), 1u);
  EXPECT_EQ(*v, 2u);
  rt().options().policy = lxfi::ViolationPolicy::kThrow;
}

TEST_F(RuntimeTest, ModuleUnloadDropsDispatchAndContext) {
  bench_.kernel->UnloadModule(module_);
  EXPECT_EQ(module_->lxfi_ctx, nullptr);
  EXPECT_EQ(rt().CtxOf(module_), nullptr);
}

// A refused load leaves no trace: no principal, no module text, and no
// DumpState row naming the module.
void ExpectRefusedWithoutTrace(Bench& bench, kern::ModuleDef def) {
  std::string name = def.name;
  size_t funcs = bench.kernel->funcs().size();
  EXPECT_EQ(bench.kernel->LoadModule(std::move(def)), nullptr);
  size_t principals = 0;
  bench.rt->VisitPrincipals([&principals](lxfi::Principal*) { ++principals; });
  EXPECT_EQ(principals, 0u);
  EXPECT_EQ(bench.rt->DumpState().find(name), std::string::npos);
  EXPECT_EQ(bench.kernel->funcs().size(), funcs);
}

constexpr kern::KernelSymbol<void()> kNonexistent{"nonexistent_symbol"};
constexpr kern::KernelSymbol<void()> kMysteryFn{"mystery_fn"};

TEST(RuntimeLoad, RejectsUnknownImport) {
  Bench bench(/*isolated=*/true);
  kern::ModuleDef def;
  def.name = "refused_unknown_import";
  def.imports = {kern::kPrintk, kNonexistent};
  ExpectRefusedWithoutTrace(bench, std::move(def));
}

TEST(RuntimeLoad, RejectsUnannotatedImportSafeDefault) {
  Bench bench(/*isolated=*/true);
  // Export a symbol with NO annotations: §2.2's safe default means a module
  // importing it must be refused.
  bench.kernel->ExportSymbol(kMysteryFn, [] {});
  kern::ModuleDef def;
  def.name = "refused_unannotated_import";
  def.imports = {kern::kPrintk, kMysteryFn};
  ExpectRefusedWithoutTrace(bench, std::move(def));
}

TEST(RuntimeLoad, StockKernelAcceptsAnything) {
  Bench bench(/*isolated=*/false);
  bench.kernel->ExportSymbol(kMysteryFn, [] {});
  kern::ModuleDef def;
  def.name = "anything";
  def.imports = {kMysteryFn};
  EXPECT_NE(bench.kernel->LoadModule(std::move(def)), nullptr);
}

TEST(RuntimeLoad, ConflictingAnnotationPropagationRejected) {
  Bench bench(/*isolated=*/true);
  // Function registered with annotations that differ from its declared
  // function-pointer type: the multi-source consistency check must fire,
  // and the valid function before it must not stay registered.
  ASSERT_TRUE(bench.rt->annotations()
                  .Register("conflicted_fn", {"x"}, "pre(check(write, x, 8))")
                  .ok());
  kern::ModuleDef def;
  def.name = "refused_conflicted";
  def.imports = {kern::kPrintk};
  def.functions = {
      lxfi::DeclareFunction("valid_fn", kern::kProtoRelease, [](kern::Socket*) { return 0; }),
      lxfi::DeclareFunction("conflicted_fn", kern::kProtoRelease,
                            [](kern::Socket*) { return 0; }),
  };
  ExpectRefusedWithoutTrace(bench, std::move(def));
}

}  // namespace
