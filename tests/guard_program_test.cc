// The annotation compile pass (guard_program.h): golden disassemblies of the
// compiler's output, the EnforcementContext pre-check memo protocol, and a
// differential property test that drives randomly generated annotation sets
// through both the compiled GuardProgram and the test-side reference
// interpreter (reference_interpreter.h) and demands identical capability
// effects, violation records, and principal selection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/annotation_parser.h"
#include "src/lxfi/guard_program.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/reference_interpreter.h"

namespace {

// The differential tests provoke violations on purpose (counting policy);
// their WARN lines are noise here.
[[maybe_unused]] const bool kQuietLogs = [] {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);
  return true;
}();

using lxfi::Capability;
using lxfi::CompileAnnotations;
using lxfi::GuardProgram;
using lxfi::ParseAnnotations;

std::unique_ptr<lxfi::AnnotationSet> MustParse(const std::string& name,
                                               std::vector<std::string> params,
                                               const std::string& text) {
  std::string error;
  auto set = ParseAnnotations(name, params, text, &error);
  EXPECT_NE(set, nullptr) << error;
  return set;
}

// --- golden disassemblies ----------------------------------------------------

TEST(GuardCompiler, DisassemblyNdoStartXmit) {
  auto set = MustParse("net_device_ops::ndo_start_xmit", {"skb", "dev"},
                       "principal(dev) pre(transfer(skb_caps(skb))) "
                       "post(if (return == 16) transfer(skb_caps(skb)))");
  auto prog = CompileAnnotations(*set, nullptr);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->Disassemble(),
            "guard program 'net_device_ops::ndo_start_xmit' ahash=0x300da23142e5823b ops=9 "
            "principal=expr\n"
            "pre:\n"
            "   0: push_arg   0  ; skb\n"
            "   1: transfer iter skb_caps\n"
            "post:\n"
            "   2: push_ret\n"
            "   3: push_const #0  ; 16\n"
            "   4: eq\n"
            "   5: jz         -> 8\n"
            "   6: push_arg   0  ; skb\n"
            "   7: transfer iter skb_caps\n"
            "principal-expr:\n"
            "   8: push_arg   1  ; dev\n");
}

TEST(GuardCompiler, DisassemblyKmalloc) {
  auto set =
      MustParse("kmalloc", {"size"}, "post(if (return != 0) transfer(write, return, size))");
  auto prog = CompileAnnotations(*set, nullptr);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->Disassemble(),
            "guard program 'kmalloc' ahash=0x9026e4df8100c1e6 ops=7 principal=none\n"
            "pre:\n"
            "post:\n"
            "   0: push_ret\n"
            "   1: push_const #0  ; 0\n"
            "   2: ne\n"
            "   3: jz         -> 7\n"
            "   4: push_ret\n"
            "   5: push_arg   0  ; size\n"
            "   6: transfer write, size\n");
}

TEST(GuardCompiler, DisassemblySpinLockIsMemoizable) {
  auto set = MustParse("spin_lock", {"lock"}, "pre(check(write, lock, 8))");
  auto prog = CompileAnnotations(*set, nullptr);
  ASSERT_NE(prog, nullptr);
  EXPECT_TRUE(prog->pre_memoizable());
  EXPECT_EQ(prog->Disassemble(),
            "guard program 'spin_lock' ahash=0x665a74bcd13d0dc4 ops=3 principal=none "
            "pre_memoizable\n"
            "pre:\n"
            "   0: push_arg   0  ; lock\n"
            "   1: push_const #0  ; 8\n"
            "   2: check    write, size\n"
            "post:\n");
}

TEST(GuardCompiler, MemoizabilityRules) {
  // Pure inline checks: memoizable.
  EXPECT_TRUE(CompileAnnotations(*MustParse("f", {"a"}, "pre(check(write, a, 8))"), nullptr)
                  ->pre_memoizable());
  // Conditional checks stay memoizable (the condition depends only on args).
  EXPECT_TRUE(
      CompileAnnotations(*MustParse("f", {"a", "b"}, "pre(if (b > 0) check(call, a))"), nullptr)
          ->pre_memoizable());
  // Iterator output depends on kernel state: not memoizable.
  EXPECT_FALSE(CompileAnnotations(*MustParse("f", {"a"}, "pre(check(skb_caps(a)))"), nullptr)
                   ->pre_memoizable());
  // Copy/transfer mutate capability state: not memoizable.
  EXPECT_FALSE(CompileAnnotations(*MustParse("f", {"a"}, "pre(transfer(write, a, 8))"), nullptr)
                   ->pre_memoizable());
  // Empty pre section: nothing to memoize.
  EXPECT_FALSE(CompileAnnotations(*MustParse("f", {"a"}, "post(copy(write, a, 8))"), nullptr)
                   ->pre_memoizable());
  // Post sections never affect pre memoizability.
  EXPECT_TRUE(CompileAnnotations(
                  *MustParse("f", {"a"}, "pre(check(write, a, 8)) post(transfer(write, a, 8))"),
                  nullptr)
                  ->pre_memoizable());
}

// Every annotation the kernel API registers lowers to a program (the only
// engine the runtime has).
TEST(GuardCompiler, EntireKernelApiSurfaceCompiles) {
  kern::Kernel kernel;
  lxfi::Runtime rt(&kernel);
  lxfi::InstallKernelApi(&kernel, &rt);
  size_t count = 0;
  for (const auto& [name, set] : rt.annotations().all()) {
    ASSERT_NE(set->program, nullptr) << name;
    // Compile-time iterator resolution: the API installs iterators before
    // annotations, so every slot must already be bound.
    for (size_t i = 0; i < set->program->iter_slot_count(); ++i) {
      EXPECT_NE(set->program->IterFn(i, nullptr), nullptr)
          << name << " slot " << set->program->IterName(i);
    }
    ++count;
  }
  EXPECT_GT(count, 40u);
}

// --- test rig ---------------------------------------------------------------

// A kernel+runtime pair in counting-violation mode, with a module loaded and
// a deterministic capability iterator registered. Two rigs — one running the
// compiled programs, one the reference interpreter — receive identical
// stimuli in the differential tests.
struct Rig {
  explicit Rig(bool compiled) : compiled(compiled) {
    lxfi::RuntimeOptions opt;
    opt.policy = lxfi::ViolationPolicy::kCount;
    kernel = std::make_unique<kern::Kernel>();
    rt = std::make_unique<lxfi::Runtime>(kernel.get(), opt);
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    // Deterministic iterator: emits caps that depend only on the argument
    // value, so both rigs see identical capabilities.
    rt->iterators().Register("obj_caps", [](lxfi::CapIterContext& ctx, uint64_t arg) {
      if (arg == 0) {
        return;
      }
      uintptr_t base = static_cast<uintptr_t>(arg) & ~uintptr_t{0xff};
      ctx.Emit(Capability::Write(base, 256));
      ctx.Emit(Capability::Ref("obj", reinterpret_cast<const void*>(arg)));
    });
    kern::ModuleDef def;
    def.name = "diffmod";
    def.imports = {kern::kPrintk};
    def.init = [](kern::Module&) { return 0; };
    module = kernel->LoadModule(std::move(def));
    EXPECT_NE(module, nullptr);
    mc = rt->CtxOf(module);
  }

  lxfi::Principal* shared() { return mc->shared(); }

  bool compiled;
  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::Module* module = nullptr;
  lxfi::ModuleCtx* mc = nullptr;
};

// Fake object space well above kUserSpaceTop (every module principal holds
// WRITE for user space) and away from the host stack.
constexpr uintptr_t kObjBase = 0x510000000000ull;

// One wrapper-crossing-shaped stimulus against one rig; returns a transcript
// of everything observable so the two rigs can be diffed.
std::string RunShot(Rig& rig, const std::string& name, const uint64_t* args, size_t nargs,
                    uint64_t ret, bool kernel_to_module) {
  const lxfi::AnnotationSet* set = rig.rt->annotations().Find(name);
  EXPECT_NE(set, nullptr);
  lxfi::CallEnv env;
  env.mc = rig.mc;
  env.kernel_to_module = kernel_to_module;
  env.args = args;
  env.nargs = nargs;
  env.ret = ret;
  env.what = name.c_str();
  lxfitest::ReferenceInterpreter oracle(rig.rt.get());
  lxfi::Principal* p = rig.shared();
  if (kernel_to_module) {
    p = rig.compiled ? rig.rt->SelectCalleePrincipal(set, rig.mc, env)
                     : oracle.SelectCalleePrincipal(set, rig.mc, env);
  }
  env.principal = p;
  size_t violations_before = rig.rt->violation_count();
  for (bool post : {false, true}) {
    if (rig.compiled) {
      rig.rt->RunActions(set, env, post);
    } else {
      oracle.RunActions(set, env, post);
    }
  }
  std::string out = "principal=" + p->DebugName() + "\n";
  const auto& violations = rig.rt->violations();
  for (size_t i = violations_before; i < violations.size(); ++i) {
    out += std::string(ViolationKindName(violations[i].kind)) + ": " + violations[i].details + "\n";
  }
  out += rig.rt->DumpState();
  return out;
}

// --- random annotation generator -------------------------------------------

class AnnotationGen {
 public:
  explicit AnnotationGen(lxfi::Rng* rng) : rng_(rng) {}

  std::string GenSet() {
    std::string out;
    bool have_principal = false;
    int n = static_cast<int>(rng_->Range(1, 3));
    for (int i = 0; i < n; ++i) {
      if (!out.empty()) {
        out += " ";
      }
      switch (rng_->Below(4)) {
        case 0:
          out += "pre(" + GenAction(0, false) + ")";
          break;
        case 1:
        case 2:
          out += "post(" + GenAction(0, true) + ")";
          break;
        case 3:
          if (!have_principal) {
            have_principal = true;
            switch (rng_->Below(3)) {
              case 0:
                out += "principal(global)";
                break;
              case 1:
                out += "principal(shared)";
                break;
              default:
                out += "principal(" + GenExpr(0, false) + ")";
                break;
            }
          } else {
            out += "pre(" + GenAction(0, false) + ")";
          }
          break;
      }
    }
    return out;
  }

 private:
  std::string GenExpr(int depth, bool post) {
    if (depth < 3 && rng_->Chance(0.35)) {
      static const char* kOps[] = {"+", "-", "<", ">", "<=", ">=", "==", "!="};
      const char* op = kOps[rng_->Below(8)];
      return "(" + GenExpr(depth + 1, post) + " " + op + " " + GenExpr(depth + 1, post) + ")";
    }
    if (depth < 3 && rng_->Chance(0.1)) {
      return "-" + GenExpr(depth + 1, post);
    }
    switch (rng_->Below(post ? 4u : 3u)) {
      case 0:
        return std::to_string(rng_->Below(100));
      case 1:
        return rng_->Chance(0.5) ? "a" : "b";
      case 2:
        return "c";
      default:
        return "return";
    }
  }

  std::string GenAction(int depth, bool post) {
    if (depth < 2 && rng_->Chance(0.3)) {
      return "if (" + GenExpr(0, post) + ") " + GenAction(depth + 1, post);
    }
    static const char* kActs[] = {"check", "copy", "transfer"};
    std::string act = kActs[rng_->Below(3)];
    switch (rng_->Below(4)) {
      case 0: {
        // Sizes stay literal: an expression-valued size could go negative and
        // turn into a near-2^64 grant, which both engines would dutifully
        // walk page by page.
        std::string caps = "write, " + GenExpr(0, post);
        if (rng_->Chance(0.6)) {
          caps += ", " + std::to_string(rng_->Range(1, 512));
        }
        return act + "(" + caps + ")";
      }
      case 1:
        return act + "(call, " + GenExpr(0, post) + ")";
      case 2:
        return act + "(ref(struct obj), " + GenExpr(0, post) + ")";
      default:
        return act + "(obj_caps(" + GenExpr(0, post) + "))";
    }
  }

  lxfi::Rng* rng_;
};

// --- differential property test ---------------------------------------------

TEST(GuardDifferential, RandomAnnotationSetsMatchInterpreter) {
  lxfi::Rng rng(2011);
  AnnotationGen gen(&rng);
  Rig compiled(/*compiled=*/true);
  Rig interp(/*compiled=*/false);

  // Seed both rigs with identical capabilities so checks can succeed.
  for (int i = 0; i < 8; ++i) {
    uintptr_t base = kObjBase + static_cast<uintptr_t>(i) * 0x1000;
    compiled.rt->Grant(compiled.shared(), Capability::Write(base, 0x400));
    interp.rt->Grant(interp.shared(), Capability::Write(base, 0x400));
  }

  std::vector<std::string> params = {"a", "b", "c"};
  for (int iter = 0; iter < 250; ++iter) {
    std::string text = gen.GenSet();
    std::string name = "diff_fn_" + std::to_string(iter);
    lxfi::Status st1 = compiled.rt->annotations().Register(name, params, text);
    lxfi::Status st2 = interp.rt->annotations().Register(name, params, text);
    ASSERT_TRUE(st1.ok() && st2.ok()) << text;
    const lxfi::AnnotationSet* cset = compiled.rt->annotations().Find(name);
    ASSERT_NE(cset, nullptr);
    ASSERT_NE(cset->program, nullptr) << "generator output must compile: " << text;

    for (int shot = 0; shot < 3; ++shot) {
      // Arguments mix plausible object addresses with small integers; drawn
      // once, replayed into both rigs.
      uint64_t args[3];
      for (uint64_t& a : args) {
        a = rng.Chance(0.6)
                ? kObjBase + rng.Below(8) * 0x1000 + rng.Below(4) * 0x100
                : rng.Below(64);
      }
      uint64_t ret = rng.Chance(0.5) ? args[0] : rng.Below(32);
      bool kernel_to_module = rng.Chance(0.5);
      std::string got = RunShot(compiled, name, args, 3, ret, kernel_to_module);
      std::string want = RunShot(interp, name, args, 3, ret, kernel_to_module);
      ASSERT_EQ(got, want) << "divergence on '" << text << "' shot " << shot << "\n"
                           << cset->program->Disassemble();
    }
  }
}

// The memo must never change observable behavior: replay every shot twice on
// the compiled rig (priming the memo) and once on the interpreter.
TEST(GuardDifferential, MemoizedReplayMatchesInterpreter) {
  lxfi::Rng rng(411);
  AnnotationGen gen(&rng);
  Rig compiled(/*compiled=*/true);
  Rig interp(/*compiled=*/false);
  std::vector<std::string> params = {"a", "b", "c"};
  for (int iter = 0; iter < 100; ++iter) {
    std::string text = "pre(" + (rng.Chance(0.5) ? std::string("check(write, a, 64)")
                                                 : std::string("if (b > 2) check(write, a, 8)")) +
                       ") " + gen.GenSet();
    std::string name = "memo_fn_" + std::to_string(iter);
    ASSERT_TRUE(compiled.rt->annotations().Register(name, params, text).ok()) << text;
    ASSERT_TRUE(interp.rt->annotations().Register(name, params, text).ok()) << text;
    uint64_t args[3] = {kObjBase + rng.Below(4) * 0x1000, rng.Below(8), rng.Below(8)};
    // Same-args replay: the second compiled run may hit the pre memo; state
    // and violations must still match an interpreter that never memoizes.
    for (int rep = 0; rep < 2; ++rep) {
      std::string got = RunShot(compiled, name, args, 3, 0, false);
      std::string want = RunShot(interp, name, args, 3, 0, false);
      ASSERT_EQ(got, want) << "memo divergence on '" << text << "' rep " << rep;
    }
  }
}

// --- memo protocol ----------------------------------------------------------

TEST(GuardMemo, PureCheckPreSectionMemoizes) {
  Rig rig(/*compiled=*/true);
  constexpr uintptr_t kLock = kObjBase;
  rig.rt->Grant(rig.shared(), Capability::Write(kLock, 64));
  ASSERT_TRUE(
      rig.rt->annotations().Register("memo_lock", {"lock"}, "pre(check(write, lock, 8))").ok());
  const lxfi::AnnotationSet* set = rig.rt->annotations().Find("memo_lock");
  ASSERT_TRUE(set->program->pre_memoizable());

  uint64_t args[1] = {kLock};
  lxfi::EnforcementContext& ec = rig.shared()->ctx();
  EXPECT_EQ(RunShot(rig, "memo_lock", args, 1, 0, false), RunShot(rig, "memo_lock", args, 1, 0, false));
  EXPECT_EQ(ec.pre_checks, 2u);
  EXPECT_EQ(ec.pre_memo_hits, 1u);

  // Different args miss the memo.
  uint64_t other[1] = {kLock + 8};
  RunShot(rig, "memo_lock", other, 1, 0, false);
  EXPECT_EQ(ec.pre_memo_hits, 1u);

  // Revocation bumps the epoch: the memo is dropped and the check fails
  // afresh instead of replaying the stale "allowed".
  rig.rt->RevokeEverywhere(Capability::Write(kLock, 64));
  size_t violations_before = rig.rt->violation_count();
  RunShot(rig, "memo_lock", args, 1, 0, false);
  EXPECT_EQ(rig.rt->violation_count(), violations_before + 1);
  EXPECT_EQ(ec.pre_memo_hits, 1u);

  // A failing pass must not fill the memo either.
  RunShot(rig, "memo_lock", args, 1, 0, false);
  EXPECT_EQ(rig.rt->violation_count(), violations_before + 2);
  EXPECT_EQ(ec.pre_memo_hits, 1u);
}

// A kernel->module pre section is a no-op (checks only enforce when the
// module side is granting), so its "clean" pass must never seed the memo a
// module->kernel crossing of the same program could hit.
TEST(GuardMemo, KernelToModulePassDoesNotSeedModuleToKernelSkip) {
  Rig rig(/*compiled=*/true);
  ASSERT_TRUE(
      rig.rt->annotations().Register("dir_fn", {"p"}, "pre(check(write, p, 8))").ok());
  uint64_t args[1] = {kObjBase + 0x7000};  // range the principal does NOT own
  // Kernel->module: check is a no-op, no violation.
  size_t before = rig.rt->violation_count();
  RunShot(rig, "dir_fn", args, 1, 0, /*kernel_to_module=*/true);
  EXPECT_EQ(rig.rt->violation_count(), before);
  // Module->kernel with the same program/principal/args: the real check must
  // still run and fail.
  before = rig.rt->violation_count();
  RunShot(rig, "dir_fn", args, 1, 0, /*kernel_to_module=*/false);
  EXPECT_EQ(rig.rt->violation_count(), before + 1)
      << "memo seeded by a no-op kernel->module pass suppressed a real check";
}

// --- iterator resolution ----------------------------------------------------

TEST(GuardProgram, LateIteratorRegistrationResolvesLazily) {
  Rig rig(/*compiled=*/true);
  // Annotation registered (and compiled) before its iterator exists.
  ASSERT_TRUE(rig.rt->annotations().Register("late_fn", {"a"}, "pre(check(late_caps(a)))").ok());
  const lxfi::AnnotationSet* set = rig.rt->annotations().Find("late_fn");
  ASSERT_NE(set->program, nullptr);
  EXPECT_EQ(set->program->IterFn(0, nullptr), nullptr);

  uint64_t args[1] = {kObjBase};
  size_t before = rig.rt->violation_count();
  RunShot(rig, "late_fn", args, 1, 0, false);
  EXPECT_EQ(rig.rt->violation_count(), before + 1) << "unknown iterator must raise";

  // Register the iterator afterwards; the compiled program resolves lazily.
  rig.rt->iterators().Register("late_caps", [](lxfi::CapIterContext& ctx, uint64_t arg) {
    ctx.Emit(Capability::Write(static_cast<uintptr_t>(arg), 8));
  });
  rig.rt->Grant(rig.shared(), Capability::Write(kObjBase, 64));
  before = rig.rt->violation_count();
  RunShot(rig, "late_fn", args, 1, 0, false);
  EXPECT_EQ(rig.rt->violation_count(), before);
}

// A crossing through bound import wrappers moves capabilities exactly as the
// annotations say: kmalloc transfers the object in, kfree takes it back.
TEST(GuardProgram, WrapperCrossingsTransferCapabilities) {
  auto kernel = std::make_unique<kern::Kernel>();
  auto rt = std::make_unique<lxfi::Runtime>(kernel.get());
  lxfi::InstallKernelApi(kernel.get(), rt.get());

  kern::Module* module = nullptr;
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kSpinLock> spin_lock;
  kern::ModuleDef def;
  def.name = "xmod";
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kSpinLock};
  def.init = [&](kern::Module& m) -> int {
    module = &m;
    kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    kfree = lxfi::GetImport(m, kern::kKfree);
    spin_lock = lxfi::GetImport(m, kern::kSpinLock);
    return 0;
  };
  ASSERT_NE(kernel->LoadModule(std::move(def)), nullptr);

  lxfi::Principal* shared = rt->CtxOf(module)->shared();
  lxfi::ScopedPrincipal as_module(rt.get(), shared);
  void* p = kmalloc(128);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(rt->Owns(shared, Capability::Write(p, 128)));
  spin_lock(static_cast<uintptr_t*>(p));
  kfree(p);
  EXPECT_FALSE(rt->Owns(shared, Capability::Write(p, 128)));
  EXPECT_EQ(rt->violation_count(), 0u);
}

// The compiled program is the only engine, so registration refuses a set
// the compiler rejects instead of leaving it without one.
TEST(GuardProgram, RegistrationRefusesUncompilableSet) {
  kern::Kernel kernel;
  lxfi::Runtime rt(&kernel);
  // Right-nested sums keep every operand live: stack depth beyond kMaxStack.
  std::string expr = "a";
  for (size_t i = 0; i <= GuardProgram::kMaxStack; ++i) {
    expr = "(a + " + expr + ")";
  }
  std::string text = "pre(check(write, " + expr + ", 8))";
  ASSERT_NE(MustParse("deep_fn", {"a"}, text), nullptr);
  lxfi::Status st = rt.annotations().Register("deep_fn", {"a"}, text);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(rt.annotations().Find("deep_fn"), nullptr);
}

}  // namespace
