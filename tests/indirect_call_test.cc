// Kernel-side indirect-call checks (§4.1): writer-set fast path, CALL
// capability validation, and annotation-hash matching.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

// A module exposing two functions with different fn-ptr types, plus a
// writable slot in its .data the kernel will indirect-call through.
struct SlotState {
  kern::Module* m = nullptr;
};

struct SlotData {
  uintptr_t handler = 0;  // declared type: proto_ops::ioctl
};

kern::ModuleDef SlotModuleDef(std::shared_ptr<SlotState> st) {
  kern::ModuleDef def;
  def.name = "slotmod";
  def.data_size = sizeof(SlotData);
  def.imports = {"printk"};
  def.functions = {
      lxfi::DeclareFunction<int, kern::Socket*, unsigned, uintptr_t>(
          "good_ioctl", "proto_ops::ioctl",
          [](kern::Socket*, unsigned, uintptr_t) { return 123; }),
      lxfi::DeclareFunction<int, kern::Socket*>("release_fn", "proto_ops::release",
                                                [](kern::Socket*) { return 0; }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    auto* data = static_cast<SlotData*>(m.data());
    lxfi::Store(m, &data->handler, m.FuncAddr("good_ioctl"));
    return 0;
  };
  return def;
}

class IndirectCallTest : public ::testing::Test {
 protected:
  IndirectCallTest() : bench_(/*isolated=*/true), st_(std::make_shared<SlotState>()) {
    module_ = bench_.kernel->LoadModule(SlotModuleDef(st_));
    EXPECT_NE(module_, nullptr);
    data_ = static_cast<SlotData*>(module_->data());
  }

  int CallThroughSlot() {
    return bench_.kernel->IndirectCall<int, kern::Socket*, unsigned, uintptr_t>(
        &data_->handler, "proto_ops::ioctl", nullptr, 0u, uintptr_t{0});
  }

  Bench bench_;
  std::shared_ptr<SlotState> st_;
  kern::Module* module_ = nullptr;
  SlotData* data_ = nullptr;
};

TEST_F(IndirectCallTest, LegitimateModuleFunctionDispatches) {
  EXPECT_EQ(CallThroughSlot(), 123);
}

TEST_F(IndirectCallTest, ModuleWrittenSlotTakesFullCheck) {
  uint64_t full_before = bench_.rt->guards().count(lxfi::GuardType::kIndCallFull);
  CallThroughSlot();
  EXPECT_GT(bench_.rt->guards().count(lxfi::GuardType::kIndCallFull), full_before)
      << "slot lives in module .data: writer set is non-empty";
}

TEST_F(IndirectCallTest, KernelOwnedSlotTakesFastPath) {
  // A kernel-heap slot never granted to any module.
  auto slot = std::make_unique<uintptr_t>(
      bench_.kernel->funcs().Register<void()>(kern::TextKind::kKernelText, "kfn", [] {}));
  uint64_t full_before = bench_.rt->guards().count(lxfi::GuardType::kIndCallFull);
  bench_.kernel->IndirectCall<void>(slot.get(), "some_kernel_type");
  EXPECT_EQ(bench_.rt->guards().count(lxfi::GuardType::kIndCallFull), full_before);
}

TEST_F(IndirectCallTest, UserSpaceTargetBlocked) {
  uintptr_t payload = bench_.kernel->funcs().Register<int(kern::Socket*, unsigned, uintptr_t)>(
      kern::TextKind::kUserText, "payload",
      [](kern::Socket*, unsigned, uintptr_t) { return -1; });
  data_->handler = payload;  // simulate a corrupting write
  EXPECT_THROW(CallThroughSlot(), lxfi::LxfiViolation);
}

TEST_F(IndirectCallTest, NullTargetBlocked) {
  data_->handler = 0;
  EXPECT_THROW(CallThroughSlot(), lxfi::LxfiViolation);
}

TEST_F(IndirectCallTest, KernelFunctionModuleCannotCallBlocked) {
  // detach_pid is exported (and annotated) but not imported by slotmod, so
  // the module holds no CALL capability for it.
  data_->handler = bench_.kernel->symtab().Find("detach_pid");
  EXPECT_THROW(CallThroughSlot(), lxfi::LxfiViolation);
}

TEST_F(IndirectCallTest, AnnotationHashMismatchBlocked) {
  // release_fn is the module's own code (CALL capability exists!) but its
  // annotations are proto_ops::release, not proto_ops::ioctl: a module must
  // not launder a function through a pointer of a different type.
  data_->handler = module_->FuncAddr("release_fn");
  try {
    CallThroughSlot();
    FAIL() << "expected a violation";
  } catch (const lxfi::LxfiViolation& v) {
    EXPECT_EQ(v.kind(), lxfi::ViolationKind::kAnnotationMismatch);
  }
}

TEST_F(IndirectCallTest, MatchingTypeThroughDifferentSlotStillWorks) {
  // Same declared type, stored into a second slot: fine.
  auto* slot2 = static_cast<uintptr_t*>(bench_.kernel->slab().Alloc(sizeof(uintptr_t)));
  // Simulate the module writing it (grant + write).
  bench_.rt->Grant(bench_.rt->CtxOf(module_)->shared(),
                   lxfi::Capability::Write(slot2, sizeof(uintptr_t)));
  *slot2 = module_->FuncAddr("good_ioctl");
  int rc = bench_.kernel->IndirectCall<int, kern::Socket*, unsigned, uintptr_t>(
      slot2, "proto_ops::ioctl", nullptr, 0u, uintptr_t{0});
  EXPECT_EQ(rc, 123);
}

TEST_F(IndirectCallTest, StockKernelRunsAnything) {
  Bench stock(/*isolated=*/false);
  auto st = std::make_shared<SlotState>();
  kern::Module* m = stock.kernel->LoadModule(SlotModuleDef(st));
  ASSERT_NE(m, nullptr);
  auto* data = static_cast<SlotData*>(m->data());
  data->handler = stock.kernel->funcs().Register<int(kern::Socket*, unsigned, uintptr_t)>(
      kern::TextKind::kUserText, "stock_payload",
      [](kern::Socket*, unsigned, uintptr_t) { return 777; });
  int rc = stock.kernel->IndirectCall<int, kern::Socket*, unsigned, uintptr_t>(
      &data->handler, "proto_ops::ioctl", nullptr, 0u, uintptr_t{0});
  EXPECT_EQ(rc, 777) << "no isolation: the corrupted pointer runs";
}

}  // namespace
