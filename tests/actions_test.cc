// Annotation-action semantics (Figure 3): copy/transfer/check in pre and
// post positions, conditionals, capability iterators, and principal
// selection — exercised through purpose-built annotated interfaces.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/testbench.h"

namespace {

// Test-only function-pointer types.
constexpr kern::FnPtrType<void(void* w)> kWidgetPoke{"widget_ops::poke"};
constexpr kern::FnPtrType<void()> kWidgetTick{"widget_ops::tick"};

// Test-only exports.
constexpr kern::KernelSymbol<void*(int ok)> kGiveObject{"give_object"};
constexpr kern::KernelSymbol<int(void* obj)> kTakeObject{"take_object"};
constexpr kern::KernelSymbol<int(void* obj)> kTakeObjectMaybe{"take_object_maybe"};
constexpr kern::KernelSymbol<void(void* obj)> kNeedRef{"need_ref"};

using lxfi::Capability;
using lxfitest::Bench;

// Test rig: a kernel exporting purpose-built annotated functions and a
// module importing them.
class ActionsTest : public ::testing::Test {
 protected:
  ActionsTest() : bench_(/*isolated=*/true) {}

  void SetUp() override {
    kern::Kernel* k = bench_.kernel.get();
    lxfi::Runtime* rt = bench_.rt.get();
    // Kernel-side objects handed out by the test APIs.
    obj_ = k->slab().Alloc(64);

    lxfi::Export(k, rt, kGiveObject, {"ok"}, "post(if (return != 0) copy(write, return, 64))",
                 [this](int ok) -> void* { return ok != 0 ? obj_ : nullptr; });
    lxfi::Export(k, rt, kTakeObject, {"obj"}, "pre(transfer(write, obj, 64))",
                 [](void*) { return 0; });
    lxfi::Export(k, rt, kTakeObjectMaybe, {"obj"},
                 "pre(transfer(write, obj, 64)) post(if (return < 0) transfer(write, obj, 64))",
                 [this](void*) -> int { return fail_next_ ? -1 : 0; });
    lxfi::Export(k, rt, kNeedRef, {"obj"}, "pre(check(ref(struct widget), obj))", [](void*) {});

    kern::ModuleDef def;
    def.name = "actionmod";
    def.imports = {kGiveObject, kTakeObject, kTakeObjectMaybe, kNeedRef, kern::kPrintk};
    def.init = [this](kern::Module& m) -> int {
      module_ = &m;
      give_object_ = lxfi::GetImport(m, kGiveObject);
      take_object_ = lxfi::GetImport(m, kTakeObject);
      take_object_maybe_ = lxfi::GetImport(m, kTakeObjectMaybe);
      need_ref_ = lxfi::GetImport(m, kNeedRef);
      return 0;
    };
    ASSERT_NE(bench_.kernel->LoadModule(std::move(def)), nullptr);
  }

  lxfi::Runtime& rt() { return *bench_.rt; }
  lxfi::Principal* shared() { return rt().CtxOf(module_)->shared(); }

  Bench bench_;
  kern::Module* module_ = nullptr;
  void* obj_ = nullptr;
  bool fail_next_ = false;
  kern::ImportFn<kGiveObject> give_object_;
  kern::ImportFn<kTakeObject> take_object_;
  kern::ImportFn<kTakeObjectMaybe> take_object_maybe_;
  kern::ImportFn<kNeedRef> need_ref_;
};

TEST_F(ActionsTest, PostCopyGrantsOnSuccess) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  void* p = give_object_(1);
  ASSERT_EQ(p, obj_);
  EXPECT_TRUE(rt().Owns(shared(), Capability::Write(obj_, 64)));
}

TEST_F(ActionsTest, PostCopyConditionSkipsOnFailure) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  void* p = give_object_(0);
  EXPECT_EQ(p, nullptr);
  EXPECT_FALSE(rt().Owns(shared(), Capability::Write(obj_, 64)));
}

TEST_F(ActionsTest, PreTransferRequiresOwnershipAndRevokes) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  // Without ownership: violation.
  EXPECT_THROW(take_object_(obj_), lxfi::LxfiViolation);
  // Acquire, then hand off: ownership is gone afterwards.
  give_object_(1);
  EXPECT_EQ(take_object_(obj_), 0);
  EXPECT_FALSE(rt().Owns(shared(), Capability::Write(obj_, 64)));
}

TEST_F(ActionsTest, PostTransferReturnsCapabilityOnError) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  give_object_(1);
  fail_next_ = true;
  EXPECT_EQ(take_object_maybe_(obj_), -1);
  // The post(if (return < 0) transfer(...)) handed it back.
  EXPECT_TRUE(rt().Owns(shared(), Capability::Write(obj_, 64)));
  fail_next_ = false;
  EXPECT_EQ(take_object_maybe_(obj_), 0);
  EXPECT_FALSE(rt().Owns(shared(), Capability::Write(obj_, 64)));
}

TEST_F(ActionsTest, RefCheckDistinctFromWrite) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  give_object_(1);  // WRITE ownership...
  // ...but need_ref demands REF(widget): a different capability entirely.
  EXPECT_THROW(need_ref_(obj_), lxfi::LxfiViolation);
  rt().Grant(shared(), Capability::Ref("widget", obj_));
  need_ref_(obj_);  // now fine
}

TEST_F(ActionsTest, TransferRevokesFromAllPrincipalsNotJustCaller) {
  // Give the capability to an instance principal too (a buggy/compromised
  // module might have spread copies); transfer must revoke everywhere so
  // the object can be reused safely (§3.3).
  lxfi::Principal* inst = rt().CtxOf(module_)->GetOrCreate(0x77);
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  give_object_(1);
  rt().Grant(inst, Capability::Write(obj_, 64));
  take_object_(obj_);
  EXPECT_FALSE(inst->caps().CheckWrite(reinterpret_cast<uintptr_t>(obj_), 8))
      << "transfer must revoke every principal's copy";
}

TEST_F(ActionsTest, GuardCountersTrackActions) {
  lxfi::ScopedPrincipal as_module(&rt(), shared());
  uint64_t before = rt().guards().count(lxfi::GuardType::kAnnotationAction);
  give_object_(1);
  take_object_(obj_);
  EXPECT_GE(rt().guards().count(lxfi::GuardType::kAnnotationAction), before + 2);
}

// Principal selection via a kernel->module call with principal(arg).
TEST(PrincipalSelection, CalleePrincipalFromAnnotation) {
  Bench bench(/*isolated=*/true);
  lxfi::Runtime* rt = bench.rt.get();
  ASSERT_TRUE(rt->annotations().Register(kWidgetPoke.name, {"w"}, "principal(w)").ok());
  lxfi::Principal* observed = nullptr;
  kern::ModuleDef def;
  def.name = "principled";
  def.data_size = 16;
  def.imports = {kern::kPrintk};
  def.functions = {lxfi::DeclareFunction(
      "poke_impl", kWidgetPoke, [&](void*) { observed = rt->CurrentPrincipal(); })};
  def.init = [](kern::Module&) { return 0; };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);

  auto* slot = static_cast<uintptr_t*>(m->data());
  *slot = m->FuncAddr("poke_impl");
  int widget = 0;
  bench.kernel->IndirectCall(slot, kWidgetPoke, &widget);
  ASSERT_NE(observed, nullptr);
  EXPECT_EQ(observed->kind(), lxfi::PrincipalKind::kInstance);
  EXPECT_EQ(observed->name(), reinterpret_cast<uintptr_t>(&widget));
  // Same widget -> same principal; different widget -> different one.
  lxfi::Principal* first = observed;
  bench.kernel->IndirectCall(slot, kWidgetPoke, &widget);
  EXPECT_EQ(observed, first);
  int widget2 = 0;
  bench.kernel->IndirectCall(slot, kWidgetPoke, &widget2);
  EXPECT_NE(observed, first);
}

TEST(PrincipalSelection, DefaultIsShared) {
  Bench bench(/*isolated=*/true);
  ASSERT_TRUE(bench.rt->annotations().Register(kWidgetTick.name, {}, "").ok());
  lxfi::Principal* observed = nullptr;
  kern::ModuleDef def;
  def.name = "plain";
  def.data_size = 16;
  def.imports = {kern::kPrintk};
  def.functions = {lxfi::DeclareFunction(
      "tick_impl", kWidgetTick, [&] { observed = bench.rt->CurrentPrincipal(); })};
  def.init = [](kern::Module&) { return 0; };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  auto* slot = static_cast<uintptr_t*>(m->data());
  *slot = m->FuncAddr("tick_impl");
  bench.kernel->IndirectCall(slot, kWidgetTick);
  EXPECT_EQ(observed, bench.rt->CtxOf(m)->shared());
}

}  // namespace
