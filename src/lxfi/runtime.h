// The LXFI runtime (§5): the reference monitor interposed on every control
// transfer between the core kernel and modules. Owns per-module principal
// state, evaluates annotation actions at wrapper boundaries, tracks writer
// sets, maintains shadow stacks, and reports violations.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/compiler.h"
#include "src/kernel/isolation.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/annotation_registry.h"
#include "src/lxfi/cap.h"
#include "src/lxfi/guard_program.h"
#include "src/lxfi/guards.h"
#include "src/lxfi/holder_index.h"
#include "src/lxfi/principal.h"
#include "src/lxfi/shadow_stack.h"
#include "src/lxfi/violation.h"
#include "src/lxfi/writer_set.h"

namespace lxfi {

struct RuntimeOptions {
  ViolationPolicy policy = ViolationPolicy::kThrow;
  // Per-principal partitioned heaps (IA2-style): each principal's kmalloc
  // allocations come from its own arena slot, so the store guard's common
  // case — a module writing memory it allocated itself — collapses to a
  // span compare checked before the memo and any table probe, sealing a
  // principal quarantines its heap, and module unload tears arenas down in
  // bulk. Off by default: the shared heap keeps the slab adjacency the
  // exploit suite (and the stock-kernel baseline) depends on. The trade-off
  // is IA2's: a module can still corrupt *its own* heap objects without a
  // violation; cross-principal writes keep needing explicit grants.
  bool partitioned_heaps = false;
};

// Bound arguments of one wrapped call, for annotation-expression evaluation.
struct CallEnv {
  ModuleCtx* mc = nullptr;
  Principal* principal = nullptr;  // module-side principal of the call
  bool kernel_to_module = false;
  const uint64_t* args = nullptr;
  size_t nargs = 0;
  uint64_t ret = 0;
  const char* what = "";
};

// The factory type the module rewriter stores in kern::FuncDecl: produces
// the instrumented invoker (a std::any holding std::function<Sig>).
class Runtime;
class Containment;
using WrapFactory =
    std::function<std::any(Runtime*, ModuleCtx*, const AnnotationSet*, const std::string&)>;

// Registered as "lxfi" (with the violation count), beside "guard".
enum class RuntimeCounter { kRevokes, kCount };
inline const char* CounterName(RuntimeCounter c) { return CounterNameIn(c, {"revokes"}); }

class Runtime : public kern::IsolationHooks {
 public:
  explicit Runtime(kern::Kernel* kernel, RuntimeOptions options = {});
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  kern::Kernel* kernel() const { return kernel_; }
  AnnotationRegistry& annotations() { return annotations_; }
  IteratorRegistry& iterators() { return iterators_; }
  GuardStats& guards() { return guards_; }
  const GuardStats& guards() const { return guards_; }
  WriterSet& writer_set() { return writer_set_; }
  HolderIndex& holder_index() { return holders_; }
  RuntimeOptions& options() { return options_; }

  // --- kern::IsolationHooks ----------------------------------------------
  bool OnModuleLoad(kern::Module* module) override;
  void OnModuleUnload(kern::Module* module) override;
  int CallModuleInit(kern::Module* module, const std::function<int()>& init) override;
  void CallModuleExit(kern::Module* module, const std::function<void()>& exit_fn) override;
  void CheckKernelIndirectCall(const void* pptr, const kern::FnPtrTypeId& type, uintptr_t target,
                               const kern::DispatchEntry* entry) override;
  void OnInterruptEnter(kern::KthreadContext* ctx) override;
  void OnInterruptExit(kern::KthreadContext* ctx) override;
  void OnKthreadCreate(kern::KthreadContext* ctx) override;
  void OnKthreadDestroy(kern::KthreadContext* ctx) override;

  // --- principal context --------------------------------------------------
  Principal* CurrentPrincipal();
  ShadowStack* CurrentShadow();
  ModuleCtx* CtxOf(kern::Module* module);
  // The principal a kernel-side import implementation acts on behalf of:
  // the current principal, or — when a wrapper already dropped to kernel
  // privilege (current == nullptr) — the caller its frame saved.
  Principal* CallerPrincipal();

  // --- partitioned heaps ---------------------------------------------------
  // Default arena geometry: 16 slots of 1 MiB carved from the kernel arena.
  static constexpr size_t kHeapRegionBytes = 16ull << 20;
  static constexpr size_t kHeapSlotBytes = 1ull << 20;
  // Turns the option on and carves the slab partition region (idempotent;
  // callable after construction, e.g. by benches flipping the ablation on a
  // live harness). `seed` deterministically rotates slot placement.
  void EnablePartitionedHeaps(size_t region_bytes = kHeapRegionBytes,
                              size_t slot_bytes = kHeapSlotBytes, uint64_t seed = 0);
  // kmalloc-path allocation: routes through the calling principal's heap
  // partition (carving one on first use), falling back to the shared heap
  // for trusted contexts, exhausted slots, or when the option is off.
  void* PartitionedAlloc(size_t size);
  // Quarantine: seals the principal's arena. The store-guard fast path then
  // fails closed on the span (violations attributed to the sealed
  // principal), fresh allocations fail, and the revocation epoch bump kills
  // every memoized allow that covered the span.
  void SealPrincipalHeap(Principal* p);
  // Per-object RevokeEverywhere calls since construction; the bulk-teardown
  // tests assert module unload leaves this untouched.
  uint64_t revoke_everywhere_count() const { return stats_.count(RuntimeCounter::kRevokes); }

  // --- capability operations ----------------------------------------------
  // Every capability enters a table here: the holder index records the
  // grant before the table insert (holder_index.h).
  void Grant(Principal* p, const Capability& cap);
  bool Owns(Principal* p, const Capability& cap) const;
  // Transfer semantics (§3.3): revoke from every principal that holds the
  // capability. Visits only the holders the index lists, so the cost does
  // not grow with the number of loaded modules; takes no global lock but
  // the index's own, and never while holding a principal's lock.
  void RevokeEverywhere(const Capability& cap);

  // §3.2 initial capability (2): every module holds WRITE for the current
  // kernel stack. Module locals live on host thread stacks here, so the
  // runtime treats those ranges as module-writable during enforcement: the
  // main thread's stack (captured at construction) plus the current
  // kthread's stack bounds (captured per simulated CPU by kern::CpuSet),
  // and under ASan the thread's fake-stack frames.
  bool OnKernelStack(uintptr_t addr, size_t size) const {
    if (addr >= stack_lo_ && addr + size <= stack_hi_) {
      return true;
    }
    const kern::KthreadContext* ctx = kernel_->current();
    return (ctx != nullptr && ctx->stack_lo != 0 && addr >= ctx->stack_lo &&
            addr + size <= ctx->stack_hi) ||
           OnSanitizerFakeStack(addr, size);
  }
  // Ownership as the enforcement paths see it (stack grant included).
  bool OwnsForEnforcement(Principal* p, const Capability& cap) const {
    if (cap.kind == CapKind::kWrite && OnKernelStack(cap.addr, cap.size)) {
      return true;
    }
    return Owns(p, cap);
  }

  // --- instrumentation entry points ---------------------------------------
  // Module store guard (inserted before each memory write, §4.2). The fast
  // path is the per-(CPU, principal) EnforcementContext write memo; the
  // slow path is one lock-free seqlock-validated flat-table probe per
  // fallback principal.
  void CheckWrite(const void* dst, size_t size);
  // CALL-capability check for a module's direct (wrapped) call.
  void CheckCall(Principal* p, uintptr_t target, const char* name);
  // WRITE/CALL ownership through the principal's per-CPU memo shard
  // (positive answers are memoized; see enforcement_context.h). Public so
  // concurrency stress tests can drive the exact memoized path the guards
  // use.
  bool OwnsWriteFast(Principal* p, uintptr_t addr, size_t size);
  bool OwnsCallFast(Principal* p, uintptr_t target);

  // --- module-facing runtime API (lxfi_* functions, §3.4) ------------------
  // lxfi_check: verify the current principal owns `cap`.
  void LxfiCheck(const Capability& cap);
  // lxfi_princ_alias: name `alias` as the principal currently named
  // `existing` in the current module.
  void PrincAlias(const void* existing, const void* alias);
  // Principal switches (Guideline 6). Use via ScopedPrincipal.
  Principal* SwitchPrincipal(Principal* to);
  Principal* GlobalOfCurrent();
  Principal* SharedOfCurrent();
  Principal* InstanceOfCurrent(const void* name);
  // Drops a per-instance principal (object teardown).
  void DropPrincipal(kern::Module* module, const void* name);

  // --- diagnostics ------------------------------------------------------------
  // Human-readable snapshot of every module's principals and capability
  // counts (the debugging aid a deployed isolation runtime needs).
  std::string DumpState() const;

  // --- violations -----------------------------------------------------------
  // Bounded flight recorder: the last kViolationRingSize violations with
  // full attribution (faulting principal, fault address, innermost crossing
  // label). A long-running runtime under a counting policy used to grow an
  // unbounded vector here; the ring caps memory while violation_seq_ keeps
  // the exact total. The sequence is monotone for the runtime's lifetime —
  // the ExecGuards pre-memo protocol compares it across a guard evaluation,
  // so ClearViolations only moves the visible baseline, never the sequence.
  static constexpr size_t kViolationRingSize = 64;
  void RaiseViolation(ViolationKind kind, const std::string& details, uint64_t fault_addr = 0);
  // Containment engine consulted under ViolationPolicy::kQuarantine
  // (containment.h). Not owned; null means the policy degrades to kThrow.
  void set_containment(Containment* containment) { containment_ = containment; }
  // Lock-free count of violations since construction / the last
  // ClearViolations (any thread).
  uint64_t violation_count() const {
    uint64_t seq = violation_seq_.load(std::memory_order_acquire);
    uint64_t cleared = violation_cleared_.load(std::memory_order_acquire);
    return seq > cleared ? seq - cleared : 0;
  }
  // Snapshot of the retained (post-clear) flight-recorder entries, oldest
  // first, at most kViolationRingSize. By value: the ring mutates in place
  // under its own lock, so references into it would not stay stable.
  std::vector<ViolationRecord> violations() const;
  void ClearViolations() {
    SpinGuard guard(violations_mu_);
    violation_cleared_.store(violation_seq_.load(std::memory_order_acquire),
                             std::memory_order_release);
  }

  // Visits every principal (shared, global, instances) of every loaded
  // module. Quiescent contexts only (stats snapshots, diagnostics) — the
  // instance walk is the non-concurrent one.
  void VisitPrincipals(const std::function<void(Principal*)>& fn) const;

  // --- wrapper machinery (used by wrap.h; internal) -------------------------
  // The guard program a wrapper binds at wrap time. Registration refuses
  // annotation sets the compiler rejects, so every registered set has one;
  // null means the function carries no annotations.
  static const GuardProgram* ProgramOf(const AnnotationSet* set) {
    return set != nullptr ? set->program.get() : nullptr;
  }
  // Evaluates the pre (post=false) or post (post=true) section of `prog`.
  // Wrappers bind `prog` once at wrap time so no lookup happens per
  // crossing; the empty-section skip (most annotations have no post
  // actions) stays inline in the wrapper.
  void RunBound(const GuardProgram* prog, CallEnv& env, bool post) {
    if (prog != nullptr && (post ? prog->pre_end() != prog->post_end() : prog->pre_end() != 0)) {
      ExecGuards(*prog, env, post);
    }
  }
  // RunBound over a set's program (tests, benches, non-bound callers).
  void RunActions(const AnnotationSet* set, CallEnv& env, bool post) {
    RunBound(ProgramOf(set), env, post);
  }
  // Resolves the principal() annotation for a kernel->module call.
  Principal* SelectCalleePrincipal(const GuardProgram* prog, ModuleCtx* mc, const CallEnv& env);
  Principal* SelectCalleePrincipal(const AnnotationSet* set, ModuleCtx* mc, const CallEnv& env) {
    return SelectCalleePrincipal(ProgramOf(set), mc, env);
  }
  // Applies one copy/transfer/check action to one materialized capability.
  // `from_module` says which side is granting: pre of module->kernel and
  // post of kernel->module flow *from* the module; the opposite two flow
  // from the (all-owning) kernel toward the module principal. The compiled
  // evaluator calls this for every capability; so does the reference
  // interpreter the differential tests run, so the two engines cannot
  // drift in semantics or violation messages.
  void ApplyOneCap(Action::Op op, const Capability& cap, const CallEnv& env, bool from_module);
  // Shadow-stack push + principal switch; returns the frame token.
  uint64_t WrapperEnter(Principal* switch_to, const char* what);
  void WrapperExit(uint64_t token, const char* what);
  // Unwind-safe exit used while an exception is in flight.
  void WrapperAbort(uint64_t token, const char* what);

  // Binds a wrapped import for a module (module rewriter output; §4.2
  // "function wrappers"). Declared in wrap.h.
  template <typename Ret, typename... Args>
  std::function<Ret(Args...)> BindImport(ModuleCtx* mc,
                                         const kern::KernelSymbol<Ret(Args...)>& sym);

  // Wraps a module-defined function per its fn-ptr type annotations.
  template <typename Ret, typename... Args>
  std::function<Ret(Args...)> WrapModuleFunction(ModuleCtx* mc, const AnnotationSet* set,
                                                 const std::string& label,
                                                 std::function<Ret(Args...)> inner);

 private:
  // --- compiled guard evaluation (guard_program.h) -------------------------
  // Runs one section (pre or post) of a compiled program, including the
  // EnforcementContext pre-check memo protocol for memoizable pre sections.
  void ExecGuards(const GuardProgram& prog, CallEnv& env, bool post);
  // The tight switch-loop evaluator over ops [pc, end); returns the top of
  // stack (the principal-expression sections' result, 0 otherwise).
  int64_t ExecOps(const GuardProgram& prog, uint32_t pc, uint32_t end, const CallEnv& env,
                  bool post);

  // --- enforcement fast-path internals ------------------------------------
  // The write-memo protocol, one copy of each half: memo probe (count +
  // hit test) and table probe (fallback chain + memo fill).
  bool WriteMemoProbe(EnforcementContext& ec, uintptr_t addr, size_t size);
  bool WriteTableProbe(Principal* p, EnforcementContext& ec, uintptr_t addr, size_t size);
  // Grant minus its kCapGrant trace record: the indexed table insert plus
  // writer-page attribution. Module load's initial CALL capabilities use it
  // directly; the kModuleLoad record announces them.
  void GrantQuiet(Principal* p, const Capability& cap);

  kern::Kernel* kernel_;
  RuntimeOptions options_;
  AnnotationRegistry annotations_;
  IteratorRegistry iterators_;
  GuardStats guards_;
  WriterSet writer_set_;
  HolderIndex holders_;
  // Guards the ctxs_ map itself: loader-thread load/unload against CtxOf and
  // the quiescent walkers (VisitPrincipals, DumpState). Never taken on a
  // crossing or a transfer — wrappers capture their ModuleCtx* at
  // registration, module code goes through Module::lxfi_ctx, and
  // RevokeEverywhere finds holders through holders_.
  mutable Spinlock ctxs_mu_;
  std::unordered_map<kern::Module*, std::unique_ptr<ModuleCtx>> ctxs_;
  Spinlock shadows_mu_;  // guards shadows_ (kthreads appear from CPU threads)
  std::unordered_map<kern::KthreadContext*, std::unique_ptr<ShadowStack>> shadows_;
  mutable Spinlock violations_mu_;  // guards violation_ring_
  std::atomic<uint64_t> violation_seq_{0};      // monotone, never reset
  std::atomic<uint64_t> violation_cleared_{0};  // ClearViolations baseline
  std::array<ViolationRecord, kViolationRingSize> violation_ring_;
  uintptr_t stack_lo_ = 0;
  uintptr_t stack_hi_ = 0;
  PerCpuCounters<RuntimeCounter> stats_;
  Containment* containment_ = nullptr;
};

// RAII principal switch for module code that must run as global/shared or as
// another instance (Guideline 6). The constructor enforces that the switch
// stays within the current module.
class ScopedPrincipal {
 public:
  ScopedPrincipal(Runtime* rt, Principal* to) : rt_(rt), prev_(rt->SwitchPrincipal(to)) {}
  ~ScopedPrincipal() { rt_->SwitchPrincipal(prev_); }

  ScopedPrincipal(const ScopedPrincipal&) = delete;
  ScopedPrincipal& operator=(const ScopedPrincipal&) = delete;

 private:
  Runtime* rt_;
  Principal* prev_;
};

}  // namespace lxfi
