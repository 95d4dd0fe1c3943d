// Kernel-side indirect-call checks (§4.1): writer-set fast path, CALL
// capability validation, and annotation-hash matching.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/socket.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/reference_indirect_call.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

// A kernel-internal pointer type no annotation names.
constexpr kern::FnPtrType<void()> kKernelCallback{"kernel_callback"};

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
  def.imports = {kern::kPrintk};
  def.functions = {
      lxfi::DeclareFunction("good_ioctl", kern::kProtoIoctl,
                            [](kern::Socket*, unsigned, uintptr_t) { return 123; }),
      lxfi::DeclareFunction("release_fn", kern::kProtoRelease, [](kern::Socket*) { return 0; }),
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
    return bench_.kernel->IndirectCall(&data_->handler, kern::kProtoIoctl, nullptr, 0, 0);
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
  bench_.kernel->IndirectCall(slot.get(), kKernelCallback);
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
  int rc = bench_.kernel->IndirectCall(slot2, kern::kProtoIoctl, nullptr, 0, 0);
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
  int rc = stock.kernel->IndirectCall(&data->handler, kern::kProtoIoctl, nullptr, 0, 0);
  EXPECT_EQ(rc, 777) << "no isolation: the corrupted pointer runs";
}

// IndirectCall and DeclareFunction take their signature from the handle: a
// call with a wrong argument type or count, or a module function of another
// signature, does not compile.
template <typename... Args>
concept IoctlCallableWith = requires(kern::Kernel& k, const uintptr_t* slot, Args... args) {
  k.IndirectCall(slot, kern::kProtoIoctl, args...);
};
static_assert(IoctlCallableWith<kern::Socket*, unsigned, uintptr_t>);
static_assert(!IoctlCallableWith<kern::MsgHdr*, unsigned, uintptr_t>);
static_assert(!IoctlCallableWith<const char*, unsigned, uintptr_t>);
static_assert(!IoctlCallableWith<kern::Socket*, unsigned>);

template <typename Fn>
concept DeclarableAsIoctl = requires(Fn fn) { lxfi::DeclareFunction("f", kern::kProtoIoctl, fn); };
static_assert(DeclarableAsIoctl<decltype([](kern::Socket*, unsigned, uintptr_t) { return 0; })>);
static_assert(!DeclarableAsIoctl<decltype([](kern::Socket*) { return 0; })>);
static_assert(!DeclarableAsIoctl<decltype([](kern::MsgHdr*, unsigned, uintptr_t) { return 0; })>);

// Differential oracle: over seeded combinations of slot writers (none, one
// or several principals, each with or without CALL for the target), targets
// (kernel, module, user text, unmapped, NULL) and annotated or unannotated
// pointer types, the runtime's check gives the verdict of the string-keyed
// reference (tests/reference_indirect_call.h).
constexpr kern::FnPtrType<int(kern::Socket*)> kOracleUnannotated{"oracle_ops::unannotated"};

kern::ModuleDef OracleModuleDef(int i) {
  kern::ModuleDef def;
  def.name = "oracle" + std::to_string(i);
  def.data_size = 64;
  def.imports = {kern::kPrintk};
  def.functions = {
      lxfi::DeclareFunction("ioctl", kern::kProtoIoctl,
                            [](kern::Socket*, unsigned, uintptr_t) { return 0; }),
      lxfi::DeclareFunction("release", kern::kProtoRelease, [](kern::Socket*) { return 0; }),
      lxfi::DeclareFunction("plain", kOracleUnannotated, [](kern::Socket*) { return 0; }),
  };
  def.init = [](kern::Module&) { return 0; };
  return def;
}

class IndirectCallOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndirectCallOracle, VerdictMatchesTheStringKeyedReference) {
  Bench bench(/*isolated=*/true);
  lxfi::Runtime* rt = bench.rt.get();
  kern::Kernel* k = bench.kernel.get();
  rt->options().policy = lxfi::ViolationPolicy::kCount;
  const lxfi::LogLevel log_level = lxfi::SetLogLevel(lxfi::LogLevel::kError);

  std::vector<lxfi::Principal*> principals;
  std::vector<uintptr_t> targets = {
      k->symtab().Find("kmalloc"),  // annotated kernel text
      k->funcs().Register<void()>(kern::TextKind::kKernelText, "plain_kfn", [] {}),
      k->funcs().Register<void()>(kern::TextKind::kUserText, "user_fn", [] {}),
      0x5000,                              // unmapped user page
      kern::kModuleTextBase + 0x7fff000,   // unmapped module text
      0,                                   // NULL
  };
  for (int i = 0; i < 3; ++i) {
    kern::Module* m = k->LoadModule(OracleModuleDef(i));
    ASSERT_NE(m, nullptr);
    principals.push_back(rt->CtxOf(m)->shared());
    for (const char* fn : {"ioctl", "release", "plain"}) {
      targets.push_back(m->FuncAddr(fn));
    }
  }
  principals.push_back(rt->CtxOf(k->FindModule("oracle0"))->global());
  const kern::FnPtrTypeId types[] = {kern::kProtoIoctl, kern::kProtoRelease, kern::kDstOutput,
                                     kOracleUnannotated};

  constexpr int kTrials = 600;
  constexpr size_t kPage = size_t{1} << lxfi::WriterSet::kPageShift;
  // One page per trial, so each slot's writer set is exactly what the trial
  // put there.
  std::unique_ptr<uint8_t[]> pages(new uint8_t[(kTrials + 1) * kPage]);
  uintptr_t base = (reinterpret_cast<uintptr_t>(pages.get()) + kPage - 1) & ~(kPage - 1);
  lxfi::Rng rng(GetParam());
  int allowed = 0;
  int mismatches = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto* slot = reinterpret_cast<uintptr_t*>(base + t * kPage);
    uintptr_t target = targets[rng.Below(targets.size())];
    *slot = target;
    const uint64_t nwriters = rng.Below(4);
    for (uint64_t w = 0; w < nwriters; ++w) {
      lxfi::Principal* p = principals[rng.Below(principals.size())];
      rt->writer_set().AddRange(p, reinterpret_cast<uintptr_t>(slot), sizeof(*slot));
      if (rng.Below(2) == 0) {
        rt->Grant(p, lxfi::Capability::Call(target));
      }
    }
    const kern::FnPtrTypeId& type = types[rng.Below(std::size(types))];

    const lxfitest::IndirectCallVerdict want =
        lxfitest::ReferenceCheckKernelIndirectCall(*rt, slot, type.name, target);
    const uint64_t before = rt->violation_count();
    rt->CheckKernelIndirectCall(slot, type, target, k->funcs().Lookup(target));
    lxfitest::IndirectCallVerdict got;
    if (rt->violation_count() != before) {
      got = lxfitest::Denied(rt->violations().back().kind);
    }
    ASSERT_EQ(got, want) << "trial " << t << " type " << type.name << " target 0x" << std::hex
                         << target << std::dec << " writers " << nwriters << " got "
                         << (got.allowed ? "allow" : lxfi::ViolationKindName(got.kind));
    allowed += got.allowed ? 1 : 0;
    mismatches += !got.allowed && got.kind == lxfi::ViolationKind::kAnnotationMismatch ? 1 : 0;
  }
  lxfi::SetLogLevel(log_level);
  // Every verdict occurs: allowed, annotation mismatch, and CALL/unmapped.
  EXPECT_GT(allowed, 0);
  EXPECT_GT(mismatches, 0);
  EXPECT_GT(kTrials - allowed - mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndirectCallOracle, ::testing::Values(1, 2, 3));

}  // namespace
