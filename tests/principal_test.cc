// ModuleCtx / principal bookkeeping, annotation registry rules, and guard
// accounting units.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/lxfi/annotation_registry.h"
#include "src/lxfi/guards.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "tests/reference_revoke.h"
#include "tests/testbench.h"

namespace {

using lxfi::Capability;
using lxfitest::Bench;

class PrincipalTest : public ::testing::Test {
 protected:
  PrincipalTest() : bench_(/*isolated=*/true) {
    kern::ModuleDef def;
    def.name = "pmod";
    def.imports = {kern::kPrintk};
    def.init = [](kern::Module&) { return 0; };
    module_ = bench_.kernel->LoadModule(std::move(def));
  }

  lxfi::ModuleCtx* ctx() { return bench_.rt->CtxOf(module_); }

  Bench bench_;
  kern::Module* module_ = nullptr;
};

TEST_F(PrincipalTest, GetOrCreateIsIdempotent) {
  lxfi::Principal* a = ctx()->GetOrCreate(0x100);
  lxfi::Principal* b = ctx()->GetOrCreate(0x100);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ctx()->instances().size(), 1u);
  EXPECT_EQ(a->kind(), lxfi::PrincipalKind::kInstance);
  EXPECT_EQ(a->name(), 0x100u);
}

TEST_F(PrincipalTest, LookupWithoutCreate) {
  EXPECT_EQ(ctx()->Lookup(0x200), nullptr);
  ctx()->GetOrCreate(0x200);
  EXPECT_NE(ctx()->Lookup(0x200), nullptr);
}

TEST_F(PrincipalTest, AliasChains) {
  lxfi::Principal* p = ctx()->GetOrCreate(0x1);
  ASSERT_TRUE(ctx()->Alias(0x1, 0x2));
  ASSERT_TRUE(ctx()->Alias(0x2, 0x3));  // alias of an alias
  EXPECT_EQ(ctx()->Lookup(0x2), p);
  EXPECT_EQ(ctx()->Lookup(0x3), p);
  EXPECT_FALSE(ctx()->Alias(0x99, 0x4)) << "unknown source name";
}

TEST_F(PrincipalTest, DropInstanceRemovesAllNames) {
  lxfi::Principal* p = ctx()->GetOrCreate(0x1);
  ctx()->Alias(0x1, 0x2);
  p->caps().GrantCall(0x1234);
  ctx()->DropInstance(0x2);  // dropping by any name kills the principal
  EXPECT_EQ(ctx()->Lookup(0x1), nullptr);
  EXPECT_EQ(ctx()->Lookup(0x2), nullptr);
  EXPECT_TRUE(ctx()->instances().empty());
}

TEST_F(PrincipalTest, DebugNamesAreInformative) {
  EXPECT_NE(ctx()->shared()->DebugName().find("pmod"), std::string::npos);
  EXPECT_NE(ctx()->shared()->DebugName().find("shared"), std::string::npos);
  EXPECT_NE(ctx()->global()->DebugName().find("global"), std::string::npos);
  lxfi::Principal* p = ctx()->GetOrCreate(0xabc);
  EXPECT_NE(p->DebugName().find("0xabc"), std::string::npos);
}

TEST_F(PrincipalTest, RevokeEverywhereCoversAliasesAndInstances) {
  lxfi::Runtime& rt = *bench_.rt;
  lxfi::Principal* a = ctx()->GetOrCreate(0x1);
  lxfi::Principal* b = ctx()->GetOrCreate(0x2);
  ASSERT_TRUE(ctx()->Alias(0x2, 0x3));
  Capability cap = Capability::Call(0x4242);
  rt.Grant(a, cap);
  rt.Grant(ctx()->Lookup(0x3), cap);  // b, through its alias
  rt.Grant(ctx()->shared(), cap);
  rt.RevokeEverywhere(cap);
  EXPECT_FALSE(a->caps().Check(cap));
  EXPECT_FALSE(b->caps().Check(cap));
  EXPECT_FALSE(ctx()->shared()->caps().Check(cap));
  EXPECT_FALSE(lxfitest::ReferenceRevokeEverywhere(rt, cap)) << "the full walk finds nothing left";
}

TEST_F(PrincipalTest, DroppedInstanceLeavesTheHolderIndex) {
  lxfi::Runtime& rt = *bench_.rt;
  const size_t base = rt.holder_index().entries();
  lxfi::Principal* a = ctx()->GetOrCreate(0x1);
  rt.Grant(a, Capability::Call(0x4242));
  rt.Grant(a, Capability::Write(uintptr_t{0x7f0000001000}, 64));
  rt.Grant(a, Capability::Write(uintptr_t{0x7f0000001000}, 64));  // already indexed
  EXPECT_EQ(rt.holder_index().entries(), base + 2);
  ctx()->DropInstance(0x1);
  EXPECT_EQ(rt.holder_index().entries(), base);
}

TEST_F(PrincipalTest, PruneDropsOnlyStaleHolders) {
  lxfi::Runtime& rt = *bench_.rt;
  constexpr uintptr_t kPage = 0x7f0000002000;
  for (uintptr_t name = 1; name <= 12; ++name) {
    rt.Grant(ctx()->GetOrCreate(name), Capability::Write(kPage + name * 64, 64));
  }
  // Twelve holders of one bucket: the revoke prunes, and only the principal
  // that lost its last range in the page leaves the bucket's list.
  const size_t before = rt.holder_index().entries();
  rt.RevokeEverywhere(Capability::Write(kPage + 64, 64));
  EXPECT_EQ(rt.holder_index().entries(), before - 1);
  for (uintptr_t name = 2; name <= 12; ++name) {
    Capability cap = Capability::Write(kPage + name * 64, 64);
    rt.RevokeEverywhere(cap);
    EXPECT_FALSE(lxfitest::ReferenceRevokeEverywhere(rt, cap)) << "pruned a live holder";
  }
}

TEST_F(PrincipalTest, DumpStateListsEveryPrincipal) {
  ctx()->GetOrCreate(0xaa);
  ctx()->GetOrCreate(0xbb);
  std::string dump = bench_.rt->DumpState();
  EXPECT_NE(dump.find("pmod"), std::string::npos);
  EXPECT_NE(dump.find("<shared>"), std::string::npos);
  EXPECT_NE(dump.find("<global>"), std::string::npos);
  EXPECT_NE(dump.find("0xaa"), std::string::npos);
  EXPECT_NE(dump.find("0xbb"), std::string::npos);
}

TEST_F(PrincipalTest, DumpStateIsDeterministic) {
  // Instances created in an order that disagrees with their sorted order:
  // the dump must come out sorted (snapshot-testable), and byte-identical
  // across repeated calls regardless of hash-table iteration order.
  ctx()->GetOrCreate(0xbb);
  ctx()->GetOrCreate(0xaa);
  ctx()->GetOrCreate(0xcc);
  std::string first = bench_.rt->DumpState();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(bench_.rt->DumpState(), first);
  }
  EXPECT_LT(first.find("0xaa"), first.find("0xbb"));
  EXPECT_LT(first.find("0xbb"), first.find("0xcc"));
}

TEST(AnnotationRegistry, IdenticalReRegistrationIsFine) {
  lxfi::AnnotationRegistry reg;
  ASSERT_TRUE(reg.Register("f", {"x"}, "pre(check(write, x, 8))").ok());
  EXPECT_TRUE(reg.Register("f", {"x"}, "pre(check(write,x,8))").ok())
      << "whitespace-insensitive identity";
}

TEST(AnnotationRegistry, ConflictingRedefinitionRejected) {
  lxfi::AnnotationRegistry reg;
  ASSERT_TRUE(reg.Register("f", {"x"}, "pre(check(write, x, 8))").ok());
  lxfi::Status st = reg.Register("f", {"x"}, "pre(check(write, x, 16))");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), lxfi::StatusCode::kAlreadyExists);
}

TEST(AnnotationRegistry, ParseErrorSurfaces) {
  lxfi::AnnotationRegistry reg;
  lxfi::Status st = reg.Register("g", {"x"}, "pre(bogus(write, x))");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), lxfi::StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Find("g"), nullptr) << "failed registrations leave no residue";
}

TEST(AnnotationRegistry, FindByPrecomputedKey) {
  lxfi::AnnotationRegistry reg;
  constexpr kern::FnPtrType<int(void*)> kA{"a_ops::run"};
  EXPECT_EQ(reg.Find(kA.key, kA.name), nullptr) << "unannotated type";
  ASSERT_TRUE(reg.Register(kA.name, {"x"}, "principal(x)").ok());
  ASSERT_TRUE(reg.Register("b_ops::run", {"x"}, "").ok());
  EXPECT_EQ(reg.Find(kA.key, kA.name), reg.Find(kA.name));
  // A key whose slot holds another name (a 64-bit collision) falls back to
  // the exact, name-keyed path.
  EXPECT_EQ(reg.Find(kA.key, "b_ops::run"), reg.Find("b_ops::run"));
  EXPECT_EQ(reg.Find(kA.key, "c_ops::run"), nullptr);
}

TEST(AnnotationRegistry, UsageNotes) {
  lxfi::AnnotationRegistry reg;
  reg.NoteUse("kmalloc", "a");
  reg.NoteUse("kmalloc", "b");
  reg.NoteUse("kmalloc", "a");
  ASSERT_EQ(reg.uses().at("kmalloc").size(), 2u);
}

TEST(GuardStats, CountsPerType) {
  lxfi::GuardStats stats;
  stats.Count(lxfi::GuardType::kMemWrite);
  stats.Count(lxfi::GuardType::kMemWrite);
  stats.Count(lxfi::GuardType::kFunctionEntry);
  stats.Add(lxfi::GuardType::kIndCallAll, 5);
  lxfi::SetThisShardIndex(3);  // another CPU's row sums into the same count
  stats.Count(lxfi::GuardType::kMemWrite);
  lxfi::SetThisShardIndex(0);
  EXPECT_EQ(stats.count(lxfi::GuardType::kMemWrite), 3u);
  EXPECT_EQ(stats.count(lxfi::GuardType::kFunctionEntry), 1u);
  EXPECT_EQ(stats.count(lxfi::GuardType::kIndCallAll), 5u);
  EXPECT_EQ(stats.count(lxfi::GuardType::kFunctionExit), 0u);
  for (int i = 0; i < static_cast<int>(lxfi::GuardType::kCount); ++i) {
    auto t = static_cast<lxfi::GuardType>(i);
    EXPECT_STRNE(CounterName(t), "?");
  }
}

TEST(CapabilityToString, AllKinds) {
  EXPECT_NE(Capability::Write(uintptr_t{0x1000}, 64).ToString().find("WRITE"),
            std::string::npos);
  EXPECT_NE(Capability::Call(0x2000).ToString().find("CALL"), std::string::npos);
  EXPECT_NE(Capability::Ref(lxfi::RefType("pci_dev"), 0x3000).ToString().find("REF"),
            std::string::npos);
}

}  // namespace
