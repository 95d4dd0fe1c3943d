#include "src/lxfi/runtime.h"

#include <pthread.h>

#include <algorithm>
#include <utility>

#include "src/base/clock.h"
#include "src/base/compiler.h"
#include "src/base/log.h"
#include "src/base/string_util.h"
#include "src/base/trace.h"
#include "src/kernel/panic.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/guard_program.h"
#include "src/lxfi/lxfi_stats.h"

namespace lxfi {

namespace {
// Attribution key for trace records: minted principal id, 0 for the trusted
// kernel (no principal).
uint32_t TraceIdOf(const Principal* p) { return p != nullptr ? p->trace_id() : 0; }
// A capability record's arg1 (trace.h): size | kind << 56.
uint64_t CapTraceArg(const Capability& cap) {
  return static_cast<uint64_t>(cap.size) | (static_cast<uint64_t>(cap.kind) << 56);
}
}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kWrite:
      return "write-violation";
    case ViolationKind::kCall:
      return "call-violation";
    case ViolationKind::kRef:
      return "ref-violation";
    case ViolationKind::kCapCheck:
      return "cap-check-violation";
    case ViolationKind::kIndirectCall:
      return "indirect-call-violation";
    case ViolationKind::kAnnotationMismatch:
      return "annotation-mismatch";
    case ViolationKind::kShadowStack:
      return "shadow-stack-violation";
    case ViolationKind::kPrincipal:
      return "principal-violation";
  }
  return "?";
}

Runtime::Runtime(kern::Kernel* kernel, RuntimeOptions options)
    : kernel_(kernel), options_(options) {
  if (options_.partitioned_heaps) {
    EnablePartitionedHeaps();
  }
  // The registration-time compile pass resolves iterator-func names against
  // this runtime's iterator registry.
  annotations_.BindIterators(&iterators_);
  // Locate the current thread's stack: it stands in for the kernel stack the
  // paper grants every module WRITE access to (§3.2).
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      stack_lo_ = reinterpret_cast<uintptr_t>(stack_addr);
      stack_hi_ = stack_lo_ + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  kernel_->set_isolation(this);
  CounterRegistry& counters = kernel_->counters();
  counters.Register(this, "guard", &guards_);
  counters.Register(this, "lxfi", &stats_);
  counters.Register(this, "lxfi", [this](const CounterRegistry::Sink& sink) {
    sink("violations", violation_count());
  });
}

Runtime::~Runtime() {
  kernel_->counters().Unregister(this);
  // Drop the cached shadow-stack pointers so a later Runtime on the same
  // kernel cannot observe pointers into this one's freed shadow map. Only
  // safe while we are still the kernel's isolation: once replaced, kthread
  // lifecycle events stopped reaching us, so keys in shadows_ may name
  // contexts that were since destroyed.
  if (kernel_->isolation() == this) {
    for (auto& [ctx, shadow] : shadows_) {
      if (ctx->lxfi_shadow == shadow.get()) {
        ctx->lxfi_shadow = nullptr;
      }
    }
    kernel_->set_isolation(nullptr);
  }
}

// --- module lifecycle -------------------------------------------------------

bool Runtime::OnModuleLoad(kern::Module* module) {
  const kern::ModuleDef& def = module->def();
  // Check, then commit: every import and every function is vetted before
  // the module gets a context, a capability or a text address, so a
  // refused load leaves no state behind and needs no rollback.
  //
  // The safe default applies to imports: importing an unannotated kernel
  // function fails the load, since LXFI could not enforce any contract on
  // it.
  for (const kern::KernelSymbolId& sym : def.imports) {
    if (kernel_->symtab().Find(sym.name) == 0) {
      LXFI_LOG_ERROR("module %s imports unknown symbol %s", module->name().c_str(), sym.name);
      return false;
    }
    if (annotations_.Find(sym.key, sym.name) == nullptr) {
      LXFI_LOG_ERROR("module %s imports unannotated kernel function %s (safe default: refuse)",
                     module->name().c_str(), sym.name);
      return false;
    }
  }
  // Module-defined functions take their annotations from the declared
  // function-pointer type (§4.2); a function whose own annotations differ
  // is refused, as is one the module rewriter never processed.
  auto sets_of = [this](const kern::FuncDecl& fd) {
    return std::pair(annotations_.Find(fd.type.key, fd.type.name), annotations_.Find(fd.name));
  };
  for (const kern::FuncDecl& fd : def.functions) {
    auto [type_set, fn_set] = sets_of(fd);
    if (type_set != nullptr && fn_set != nullptr && type_set->ahash != fn_set->ahash) {
      LXFI_LOG_ERROR("module %s: function %s obtains conflicting annotations from %s",
                     module->name().c_str(), fd.name.c_str(), fd.type.name);
      return false;
    }
    if (std::any_cast<WrapFactory>(&fd.wrapper_factory) == nullptr) {
      LXFI_LOG_ERROR("module %s: function %s was not processed by the module rewriter",
                     module->name().c_str(), fd.name.c_str());
      return false;
    }
  }

  auto ctx = std::make_unique<ModuleCtx>(this, module);
  ModuleCtx* mc = ctx.get();
  {
    SpinGuard guard(ctxs_mu_);
    ctxs_[module] = std::move(ctx);
  }
  module->lxfi_ctx = mc;
  Principal* shared = mc->shared();

  // Initial CALL capabilities: one per imported kernel symbol (§3.2).
  for (const kern::KernelSymbolId& sym : def.imports) {
    GrantQuiet(shared, Capability::Call(kernel_->symtab().Find(sym.name)));
    annotations_.NoteUse(sym.name, module->name());
  }

  // Register each function's instrumented wrapper under a minted
  // module-text address.
  for (const kern::FuncDecl& fd : def.functions) {
    auto [type_set, fn_set] = sets_of(fd);
    const AnnotationSet* set = type_set != nullptr ? type_set : fn_set;
    std::any wrapped = (*std::any_cast<WrapFactory>(&fd.wrapper_factory))(this, mc, set, fd.name);
    uintptr_t addr =
        kernel_->funcs().RegisterAny(kern::TextKind::kModuleText, module->name() + "." + fd.name,
                                     std::move(wrapped), set != nullptr ? set->ahash : 0, module);
    module->SetFuncAddr(fd.name, addr);
    GrantQuiet(shared, Capability::Call(addr));
    if (type_set != nullptr) {
      annotations_.NoteUse(fd.type.name, module->name());
    }
  }

  // Initial WRITE capabilities: writable sections (and the simulated user
  // window, standing in for the current process's user memory that modules
  // may legitimately target through checked uaccess helpers). The shared
  // principal also lands in the writer set for every writable section, since
  // those sections may contain function pointers the kernel will call (§5).
  if (module->data() != nullptr) {
    Grant(shared, Capability::Write(module->data(), module->data_size()));
  }
  Grant(shared, Capability::Write(uintptr_t{0}, kern::kUserSpaceTop));
  TRACE_EVENT(TraceEvent::kModuleLoad, shared->trace_id(), module->def().imports.size(),
              module->def().functions.size());
  return true;
}

void Runtime::OnModuleUnload(kern::Module* module) {
  std::unique_ptr<ModuleCtx> owned;
  {
    SpinGuard guard(ctxs_mu_);
    auto it = ctxs_.find(module);
    if (it == ctxs_.end()) {
      return;
    }
    owned = std::move(it->second);
    ctxs_.erase(it);
  }
  ModuleCtx* mc = owned.get();
  // By now the module is unpublished from every dispatch surface a walker
  // could take a *new* reference through (exit_fn dropped its filters from
  // the chain snapshots before we got here), and leaving the holder index
  // unpublishes its principals from revokers. Readers that already hold an
  // old snapshot or holder list may still be mid-crossing through the
  // module's wrappers or mid-revoke, so wait out a grace period before
  // unregistering its text and tearing down its principals — the
  // synchronize_rcu() in real module unload.
  mc->ForgetHolders();
  EpochReclaimer::Global().Synchronize();
  // Unregister module text so stale function pointers fault rather than run.
  for (const kern::FuncDecl& fd : module->def().functions) {
    uintptr_t addr = module->FuncAddr(fd.name);
    if (addr != 0) {
      kernel_->funcs().Unregister(addr);
    }
  }
  // Bulk arena teardown: one writer-set range clear plus one slab sweep per
  // partition the module's principals ever owned — batched at arena-chunk
  // granularity, never a per-object revoke storm (the capability tables die
  // wholesale with the principals below).
  auto partitions = mc->TakeHeapPartitions();
  for (const auto& rec : partitions) {
    writer_set_.ClearRange(rec.lo, rec.hi - rec.lo);
    kernel_->slab().TeardownPartition(rec.id);
  }
  TRACE_EVENT(TraceEvent::kModuleUnload, mc->shared()->trace_id(), mc->instances().size(),
              partitions.size());
  // Drop writer attribution for the module's principals. (A real kernel
  // would also have to treat still-reachable module-written pointers as
  // poisoned; unloading with live references is already a bug upstream.)
  writer_set_.RemoveWriter(mc->shared());
  writer_set_.RemoveWriter(mc->global());
  for (const auto& inst : mc->instances()) {
    writer_set_.RemoveWriter(inst.get());
  }
  module->lxfi_ctx = nullptr;
}

int Runtime::CallModuleInit(kern::Module* module, const std::function<int()>& init) {
  ModuleCtx* mc = CtxOf(module);
  uint64_t token = WrapperEnter(mc->shared(), "module_init");
  int rc;
  try {
    rc = init();
  } catch (...) {
    WrapperExit(token, "module_init");
    throw;
  }
  WrapperExit(token, "module_init");
  return rc;
}

void Runtime::CallModuleExit(kern::Module* module, const std::function<void()>& exit_fn) {
  ModuleCtx* mc = CtxOf(module);
  uint64_t token = WrapperEnter(mc->shared(), "module_exit");
  try {
    exit_fn();
  } catch (...) {
    WrapperExit(token, "module_exit");
    throw;
  }
  WrapperExit(token, "module_exit");
}

ModuleCtx* Runtime::CtxOf(kern::Module* module) {
  SpinGuard guard(ctxs_mu_);
  auto it = ctxs_.find(module);
  return it == ctxs_.end() ? nullptr : it->second.get();
}

// --- thread / interrupt context ----------------------------------------------

ShadowStack* Runtime::CurrentShadow() {
  kern::KthreadContext* ctx = kernel_->current();
  // The kthread context caches its shadow stack; every enforcement check
  // starts here, so the common case must not pay a map lookup (or a lock:
  // lxfi_shadow is only dereferenced by the CPU the kthread runs on — see
  // kthread.h on migration). The owner tag rejects a stack cached by a
  // different Runtime on the same kernel.
  if (LXFI_LIKELY(ctx->lxfi_shadow != nullptr)) {
    auto* shadow = static_cast<ShadowStack*>(ctx->lxfi_shadow);
    if (LXFI_LIKELY(shadow->owner == this)) {
      return shadow;
    }
  }
  SpinGuard guard(shadows_mu_);
  auto it = shadows_.find(ctx);
  if (it == shadows_.end()) {
    it = shadows_.emplace(ctx, std::make_unique<ShadowStack>()).first;
    it->second->owner = this;
  }
  ctx->lxfi_shadow = it->second.get();
  return it->second.get();
}

Principal* Runtime::CurrentPrincipal() { return CurrentShadow()->current; }

Principal* Runtime::CallerPrincipal() {
  ShadowStack* shadow = CurrentShadow();
  if (shadow->current != nullptr) {
    return shadow->current;
  }
  // Inside a module->kernel wrapper the FrameGuard already switched to
  // kernel privilege; the module caller sits in the saved frame.
  return shadow->TopSavedPrincipal();
}

// --- partitioned heaps --------------------------------------------------------

void Runtime::EnablePartitionedHeaps(size_t region_bytes, size_t slot_bytes, uint64_t seed) {
  options_.partitioned_heaps = true;
  kernel_->slab().EnablePartitions(region_bytes, slot_bytes, seed);
}

void* Runtime::PartitionedAlloc(size_t size) {
  kern::SlabAllocator& slab = kernel_->slab();
  if (!options_.partitioned_heaps || !slab.partitions_enabled()) {
    return slab.Alloc(size);
  }
  Principal* caller = CallerPrincipal();
  if (caller == nullptr) {
    return slab.Alloc(size);  // trusted context: shared heap, as before
  }
  if (caller->arena_sealed()) {
    return nullptr;  // quarantined principals get no fresh memory
  }
  int pid = caller->heap_partition();
  if (pid == Principal::kNoHeap) {
    // First allocation by this principal: carve its slot and publish the
    // span. A failed carve (all slots taken) degrades to the shared heap
    // with per-object capabilities, exactly the pre-partition behavior.
    pid = slab.CreatePartition();
    if (pid != kern::SlabAllocator::kNoPartition) {
      uintptr_t lo = 0, hi = 0;
      slab.PartitionSpan(pid, &lo, &hi);
      caller->PublishArena(pid, lo, hi);
      caller->module()->RecordHeapPartition(pid, lo, hi);
    }
  }
  void* obj =
      pid == kern::SlabAllocator::kNoPartition ? slab.Alloc(size) : slab.AllocIn(pid, size);
  // Shared-heap fallback (no slot free, or the slot's pages exhausted):
  // each such object sits outside the arena span the bulk sweep and the
  // quarantine seal cover, so record it — containment revokes exactly this
  // list — and trace it, since every fallback weakens the range-compare
  // isolation the partition was supposed to provide.
  if (obj != nullptr &&
      !caller->ArenaContains(reinterpret_cast<uintptr_t>(obj), size > 0 ? size : 1)) {
    ++caller->ctx().arena_fallbacks;
    caller->module()->RecordArenaFallback(caller, reinterpret_cast<uintptr_t>(obj), size);
    TRACE_EVENT(TraceEvent::kArenaFallback, caller->trace_id(),
                reinterpret_cast<uint64_t>(obj), static_cast<uint64_t>(size));
  }
  return obj;
}

void Runtime::SealPrincipalHeap(Principal* p) {
  if (p == nullptr) {
    return;
  }
  p->SealArena();
  if (p->heap_partition() != Principal::kNoHeap) {
    kernel_->slab().SealPartition(p->heap_partition());
  }
  // Memoized allows covering the span (and pre-check memos) die here; the
  // span check itself runs before the memo, so the fast path is already
  // closed on every CPU that observes the seal.
  RevocationEpoch::Bump();
  TRACE_EVENT(TraceEvent::kHeapSeal, p->trace_id(), p->arena_lo(), p->arena_hi());
}

void Runtime::OnKthreadCreate(kern::KthreadContext* ctx) {
  SpinGuard guard(shadows_mu_);
  if (shadows_.count(ctx) == 0) {
    auto shadow = std::make_unique<ShadowStack>();
    shadow->owner = this;
    ctx->lxfi_shadow = shadow.get();
    shadows_[ctx] = std::move(shadow);
  }
}

void Runtime::OnKthreadDestroy(kern::KthreadContext* ctx) {
  SpinGuard guard(shadows_mu_);
  shadows_.erase(ctx);
  ctx->lxfi_shadow = nullptr;
}

void Runtime::OnInterruptEnter(kern::KthreadContext* ctx) {
  // Save the interrupted principal on the shadow stack and run the handler
  // with kernel privilege until a wrapper switches again (§3.1).
  ShadowStack* shadow = CurrentShadow();
  uint64_t token = shadow->Push(shadow->current, "irq");
  shadow->irq_tokens.push_back(token);
  shadow->current = nullptr;
}

void Runtime::OnInterruptExit(kern::KthreadContext* ctx) {
  ShadowStack* shadow = CurrentShadow();
  if (shadow->irq_tokens.empty()) {
    RaiseViolation(ViolationKind::kShadowStack, "interrupt exit without matching entry");
    return;
  }
  uint64_t token = shadow->irq_tokens.back();
  shadow->irq_tokens.pop_back();
  bool ok = false;
  Principal* saved = shadow->Pop(token, &ok);
  if (!ok) {
    RaiseViolation(ViolationKind::kShadowStack, "shadow stack corrupted across interrupt");
    return;
  }
  shadow->current = saved;
}

// --- capability operations ----------------------------------------------------

void Runtime::Grant(Principal* p, const Capability& cap) {
  TRACE_EVENT(TraceEvent::kCapGrant, p->trace_id(), cap.addr, CapTraceArg(cap));
  GrantQuiet(p, cap);
}

void Runtime::GrantQuiet(Principal* p, const Capability& cap) {
  // Mutate the table under the principal's lock, and record writer pages
  // against the principal's private page set while we hold it: steady
  // per-packet grants (skb transfers re-granting slab pages seen before)
  // then never touch the global writer-set lock.
  constexpr size_t kMaxInlinePages = 64;
  uint64_t new_pages[kMaxInlinePages];
  size_t n_new = 0;
  bool huge_range = false;
  // Kernel-stack ranges are never writer-recorded: stack write authority is
  // the transient §3.2 initial capability (OwnsForEnforcement allows it
  // with no cap at all), while the writer set is monotone and stack frames
  // recycle. Recording an out-param grant here would permanently mark a
  // frame page and poison later kernel dispatch through stack slots (e.g.
  // the page cache's stack writeback bio).
  bool on_stack =
      cap.kind == CapKind::kWrite && cap.size > 0 && OnKernelStack(cap.addr, cap.size);
  {
    SpinGuard guard(p->lock());
    // Index before insert: a revoker that finds the capability in the table
    // must also find this principal in the index.
    holders_.Note(p, cap);
    p->caps().Grant(cap);
    if (cap.kind == CapKind::kWrite && cap.size > 0 && !on_stack) {
      // A ClearRange/RemoveWriter since we last recorded invalidates every
      // record: re-attribute from scratch so erased pages get re-inserted.
      uint64_t gen = writer_set_.clear_generation();
      if (gen != p->writer_pages_gen()) {
        p->writer_pages().Clear();
        p->set_writer_pages_gen(gen);
      }
      uintptr_t first = cap.addr >> WriterSet::kPageShift;
      uintptr_t last = (cap.addr + cap.size - 1) >> WriterSet::kPageShift;
      if (last - first >= kMaxInlinePages) {
        huge_range = true;  // module-lifetime grant (e.g. the user window)
      } else {
        for (uintptr_t page = first; page <= last; ++page) {
          if (p->writer_pages().Insert(page)) {
            new_pages[n_new++] = page;
          }
        }
      }
    }
  }
  if (huge_range) {
    writer_set_.AddRange(p, cap.addr, cap.size);
  } else if (n_new > 0) {
    writer_set_.AddPages(p, new_pages, n_new);
  }
}

bool Runtime::Owns(Principal* p, const Capability& cap) const {
  return p->module()->Owns(p, cap);
}

void Runtime::RevokeEverywhere(const Capability& cap) {
  TRACE_EVENT(TraceEvent::kCapRevoke, 0, cap.addr, CapTraceArg(cap));
  RevokeEverywhereQuiet(cap);
}

void Runtime::RevokeEverywhereQuiet(const Capability& cap) {
  stats_.Count(RuntimeCounter::kRevokes);
  // The holder list is copied under the index lock and walked after it is
  // released (lock order: principal, then index). Each holder is
  // pre-filtered lock-free, so a stale entry costs one probe and the
  // per-packet transfer locks only the principal that holds the skb. Table
  // mutation precedes the revocation-epoch bump (inside CapTable::Revoke),
  // so a revoke that has returned is never passed afterwards. A principal
  // dropped meanwhile is freed only after a grace period this walk is
  // inside of.
  HolderList holders;
  size_t keyed = holders_.Collect(cap, &holders);
  for (Principal* p : holders) {
    if (!p->caps().MightHold(cap)) {
      continue;
    }
    SpinGuard guard(p->lock());
    p->caps().Revoke(cap);
  }
  if (keyed > HolderIndex::kPruneAbove) {
    holders_.Prune(cap, holders);
  }
}

// --- instrumentation checks -----------------------------------------------------

// The two halves of the write-memo protocol, kept in exactly one place each
// so the store guard (CheckWrite, which wedges the kernel-stack test
// between them) and OwnsWriteFast (LxfiCheck, no stack grant) cannot drift.
LXFI_ALWAYS_INLINE bool Runtime::WriteMemoProbe(EnforcementContext& ec, uintptr_t addr,
                                                size_t size) {
  ++ec.write_checks;
  // Fast path: the last granted range that satisfied a check for this
  // principal (memset / field-by-field store pattern). Three compares
  // against the context the CurrentPrincipal() load already touched.
  if (LXFI_LIKELY(ec.WriteMemoHit(addr, size))) {
    ++ec.write_memo_hits;
    return true;
  }
  return false;
}

LXFI_ALWAYS_INLINE bool Runtime::WriteTableProbe(Principal* p, EnforcementContext& ec,
                                                 uintptr_t addr, size_t size) {
  // Epoch before the probe: if a revoke interleaves, the memo is filled
  // already stale instead of outliving the revoke (see enforcement_context.h).
  uint64_t epoch = RevocationEpoch::Current();
  uintptr_t lo, hi;
  if (!p->module()->OwnsWrite(p, addr, size, &lo, &hi)) {
    return false;
  }
  ec.FillWriteMemo(lo, hi, epoch);
  return true;
}

void Runtime::CheckWrite(const void* dst, size_t size) {
  Principal* p = CurrentPrincipal();
  if (p == nullptr) {
    return;  // trusted (core kernel) context
  }
  guards_.Count(GuardType::kMemWrite);
  uintptr_t addr = reinterpret_cast<uintptr_t>(dst);
  EnforcementContext& ec = p->ctx();
  // Partitioned-heap fast path: the overwhelmingly common store — a module
  // writing memory it kmalloc'd itself — resolves on the principal's own
  // span before the memo and any table probe. Two relaxed loads and a
  // flag-combining compare chain; when partitions are off both bounds sit
  // at their at-rest sentinels and the first compare falls through. Sealing
  // turns the same compare into an immediate violation attributed to the
  // sealed principal: its own heap fails closed without consulting the
  // table (which may still hold per-object grants).
  if (p->ArenaContains(addr, size)) {
    ++ec.write_checks;
    if (LXFI_LIKELY(!p->arena_sealed())) {
      ++ec.arena_span_hits;
      return;
    }
    RaiseViolation(ViolationKind::kWrite,
                   StrFormat("%s attempted %zu-byte store to %p in its sealed heap partition",
                             p->DebugName().c_str(), size, reinterpret_cast<void*>(addr)),
                   addr);
    return;
  }
  if (WriteMemoProbe(ec, addr, size)) {
    return;
  }
  // §3.2 initial capability (2): the current kernel stack is always
  // module-writable. Two compares; no memo (the table path below would
  // otherwise never warm up for heap objects).
  if (OnKernelStack(addr, size)) {
    return;
  }
  if (LXFI_LIKELY(WriteTableProbe(p, ec, addr, size))) {
    return;
  }
  RaiseViolation(ViolationKind::kWrite,
                 StrFormat("%s attempted %zu-byte store to %p without WRITE capability",
                           p->DebugName().c_str(), size, reinterpret_cast<void*>(addr)),
                 addr);
}

bool Runtime::OwnsWriteFast(Principal* p, uintptr_t addr, size_t size) {
  // Same ordering as the store guard: span (sealed fails closed, before the
  // memo can resurrect a stale allow), then memo, then tables.
  if (p->ArenaContains(addr, size)) {
    return !p->arena_sealed();
  }
  EnforcementContext& ec = p->ctx();
  return WriteMemoProbe(ec, addr, size) || WriteTableProbe(p, ec, addr, size);
}

bool Runtime::OwnsCallFast(Principal* p, uintptr_t target) {
  EnforcementContext& ec = p->ctx();
  ++ec.call_checks;
  if (ec.CallMemoHit(target)) {
    ++ec.call_memo_hits;
    return true;
  }
  uint64_t epoch = RevocationEpoch::Current();
  if (!p->module()->OwnsCall(p, target)) {
    return false;
  }
  ec.FillCallMemo(target, epoch);
  return true;
}

void Runtime::CheckCall(Principal* p, uintptr_t target, const char* name) {
  if (p == nullptr) {
    return;
  }
  if (!OwnsCallFast(p, target)) {
    RaiseViolation(ViolationKind::kCall,
                   StrFormat("%s has no CALL capability for %s (%#llx)", p->DebugName().c_str(),
                             name, static_cast<unsigned long long>(target)),
                   target);
  }
}

void Runtime::CheckKernelIndirectCall(const void* pptr, const kern::FnPtrTypeId& type,
                                      uintptr_t target, const kern::DispatchEntry* entry) {
  guards_.Count(GuardType::kIndCallAll);
  if (target >= kern::kModuleTextBase) {
    guards_.Count(GuardType::kIndCallModule);
  }
  uintptr_t slot = reinterpret_cast<uintptr_t>(pptr);
  if (LXFI_LIKELY(writer_set_.Empty(slot))) {
    return;  // fast path: no principal could have written this slot
  }
  guards_.Count(GuardType::kIndCallFull);
  const WriterVec writers = writer_set_.WritersFor(slot);
  if (writers.empty()) {
    return;
  }
  // Every principal that could have written the slot must hold a CALL
  // capability for the stored target (§4.1).
  for (Principal* writer : writers) {
    if (!OwnsCallFast(writer, target)) {
      RaiseViolation(
          ViolationKind::kIndirectCall,
          StrFormat("kernel indirect call through %p (type %s) to %#llx: writer %s lacks CALL",
                    pptr, type.name, static_cast<unsigned long long>(target),
                    writer->DebugName().c_str()),
          target);
      return;
    }
  }
  // Annotation hashes of the pointer type and the invoked function must
  // match, so a module cannot launder a function through a pointer with
  // different (weaker) annotations. Kernel functions without annotations are
  // exempt (§7).
  if (entry == nullptr) {
    RaiseViolation(ViolationKind::kIndirectCall,
                   StrFormat("kernel indirect call to unmapped address %#llx via %s",
                             static_cast<unsigned long long>(target), type.name),
                   target);
    return;
  }
  if (entry->ahash != 0 || entry->kind == kern::TextKind::kModuleText) {
    const AnnotationSet* type_set = annotations_.Find(type.key, type.name);
    uint64_t type_hash = type_set == nullptr ? 0 : type_set->ahash;
    if (entry->ahash != type_hash) {
      RaiseViolation(ViolationKind::kAnnotationMismatch,
                     StrFormat("function %s (ahash %#llx) invoked through pointer type %s "
                               "(ahash %#llx)",
                               entry->name.c_str(), static_cast<unsigned long long>(entry->ahash),
                               type.name, static_cast<unsigned long long>(type_hash)),
                     target);
    }
  }
}

// --- module-facing runtime API ---------------------------------------------------

void Runtime::LxfiCheck(const Capability& cap) {
  Principal* p = CurrentPrincipal();
  if (p == nullptr) {
    return;
  }
  // WRITE and CALL route through the EnforcementContext memos; the memo only
  // ever caches table-backed (not stack) ranges, so semantics match Owns().
  bool ok;
  switch (cap.kind) {
    case CapKind::kWrite:
      ok = OwnsWriteFast(p, cap.addr, cap.size);
      break;
    case CapKind::kCall:
      ok = OwnsCallFast(p, cap.addr);
      break;
    default:
      ok = Owns(p, cap);
      break;
  }
  if (!ok) {
    RaiseViolation(ViolationKind::kCapCheck,
                   StrFormat("lxfi_check failed: %s does not own %s", p->DebugName().c_str(),
                             cap.ToString().c_str()),
                   cap.addr);
  }
}

void Runtime::PrincAlias(const void* existing, const void* alias) {
  Principal* p = CurrentPrincipal();
  if (p == nullptr) {
    RaiseViolation(ViolationKind::kPrincipal, "lxfi_princ_alias outside module context");
    return;
  }
  ModuleCtx* mc = p->module();
  if (!mc->Alias(reinterpret_cast<uintptr_t>(existing), reinterpret_cast<uintptr_t>(alias))) {
    RaiseViolation(ViolationKind::kPrincipal,
                   StrFormat("lxfi_princ_alias: %p names no principal in %s", existing,
                             mc->name().c_str()),
                   reinterpret_cast<uintptr_t>(existing));
    return;
  }
  TRACE_EVENT(TraceEvent::kPrincipalAlias, p->trace_id(), reinterpret_cast<uintptr_t>(existing),
              reinterpret_cast<uintptr_t>(alias));
}

Principal* Runtime::SwitchPrincipal(Principal* to) {
  ShadowStack* shadow = CurrentShadow();
  Principal* prev = shadow->current;
  if (prev != nullptr && to != nullptr && to->module() != prev->module()) {
    RaiseViolation(ViolationKind::kPrincipal,
                   StrFormat("principal switch across modules: %s -> %s",
                             prev->DebugName().c_str(), to->DebugName().c_str()));
    return prev;
  }
  shadow->current = to;
  return prev;
}

Principal* Runtime::GlobalOfCurrent() {
  Principal* p = CurrentPrincipal();
  if (p == nullptr) {
    RaiseViolation(ViolationKind::kPrincipal, "global-principal switch outside module context");
    return nullptr;
  }
  return p->module()->global();
}

Principal* Runtime::SharedOfCurrent() {
  Principal* p = CurrentPrincipal();
  if (p == nullptr) {
    RaiseViolation(ViolationKind::kPrincipal, "shared-principal switch outside module context");
    return nullptr;
  }
  return p->module()->shared();
}

Principal* Runtime::InstanceOfCurrent(const void* name) {
  Principal* p = CurrentPrincipal();
  if (p == nullptr) {
    RaiseViolation(ViolationKind::kPrincipal, "instance-principal switch outside module context");
    return nullptr;
  }
  return p->module()->GetOrCreate(reinterpret_cast<uintptr_t>(name));
}

void Runtime::DropPrincipal(kern::Module* module, const void* name) {
  ModuleCtx* mc = CtxOf(module);
  if (mc == nullptr) {
    return;
  }
  Principal* p = mc->Lookup(reinterpret_cast<uintptr_t>(name));
  if (p != nullptr) {
    // An instance that dies with an empty slot gives it straight back (one
    // range clear, one bulk sweep); a slot with live objects — the kernel
    // may still reference them — stays orphaned until module unload.
    int pid = p->heap_partition();
    if (pid != Principal::kNoHeap && kernel_->slab().partition_live_objects(pid) == 0) {
      writer_set_.ClearRange(p->arena_lo(), p->arena_hi() - p->arena_lo());
      kernel_->slab().TeardownPartition(pid);
      mc->ForgetHeapPartition(pid);
      p->ResetArena();
    }
    writer_set_.RemoveWriter(p);
    mc->DropInstance(reinterpret_cast<uintptr_t>(name));
  }
}

// --- diagnostics ----------------------------------------------------------------------

std::string Runtime::DumpState() const {
  SpinGuard guard(ctxs_mu_);
  std::string out;
  out += StrFormat("lxfi runtime: %zu module(s), %zu tracked writer page(s), %llu violation(s)\n",
                   ctxs_.size(), writer_set_.TrackedPages(),
                   static_cast<unsigned long long>(violation_count()));
  // Deterministic order (snapshot-testable): modules sorted by name,
  // principals as shared, global, then instances sorted by principal name.
  std::vector<ModuleCtx*> modules;
  modules.reserve(ctxs_.size());
  for (const auto& [kmod, mc] : ctxs_) {
    modules.push_back(mc.get());
  }
  std::sort(modules.begin(), modules.end(),
            [](const ModuleCtx* a, const ModuleCtx* b) { return a->name() < b->name(); });
  for (ModuleCtx* mc : modules) {
    out += StrFormat("module %s: %zu instance principal(s)\n", mc->name().c_str(),
                     mc->instances().size());
    auto describe = [&](const Principal* p) {
      out += StrFormat("  %-28s WRITE=%zu CALL=%zu REF=%zu\n", p->DebugName().c_str(),
                       p->caps().write_count(), p->caps().call_count(), p->caps().ref_count());
      if (p->has_arena()) {
        // Spans print as offsets from the partition region base, so golden
        // DumpState output reproduces across runs regardless of where the
        // OS mapped the arena.
        uintptr_t base = kernel_->slab().region_base();
        out += StrFormat("    heap partition: [+%#llx, +%#llx)%s\n",
                         static_cast<unsigned long long>(p->arena_lo() - base),
                         static_cast<unsigned long long>(p->arena_hi() - base),
                         p->arena_sealed() ? " sealed" : "");
      }
    };
    describe(mc->shared());
    describe(mc->global());
    std::vector<const Principal*> insts;
    insts.reserve(mc->instances().size());
    for (const auto& inst : mc->instances()) {
      insts.push_back(inst.get());
    }
    std::sort(insts.begin(), insts.end(),
              [](const Principal* a, const Principal* b) { return a->name() < b->name(); });
    for (const Principal* inst : insts) {
      describe(inst);
    }
  }
  return out;
}

// --- violations ---------------------------------------------------------------------

void Runtime::RaiseViolation(ViolationKind kind, const std::string& details,
                             uint64_t fault_addr) {
  // Attribute before anything else: the faulting principal is the current
  // one, or — inside a kernel-side import that already dropped privilege —
  // the caller whose frame the shadow stack saved. The innermost frame label
  // names the crossing the fault happened under.
  ShadowStack* shadow = CurrentShadow();
  Principal* p = shadow->current != nullptr ? shadow->current : shadow->TopSavedPrincipal();
  TRACE_EVENT(TraceEvent::kViolation, TraceIdOf(p), static_cast<uint64_t>(kind), fault_addr);
  {
    SpinGuard guard(violations_mu_);
    uint64_t seq = violation_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
    ViolationRecord& rec = violation_ring_[(seq - 1) % kViolationRingSize];
    rec.kind = kind;
    rec.details = details;
    rec.principal = p != nullptr ? p->DebugName() : "";
    rec.principal_id = TraceIdOf(p);
    rec.fault_addr = fault_addr;
    rec.crossing = shadow->TopWhat();
    rec.seq = seq;
  }
  LXFI_LOG_WARN("lxfi violation: %s: %s", ViolationKindName(kind), details.c_str());
  switch (options_.policy) {
    case ViolationPolicy::kThrow:
      throw LxfiViolation(kind, details);
    case ViolationPolicy::kPanic:
      kern::Panic(std::string("lxfi: ") + ViolationKindName(kind) + ": " + details);
    case ViolationPolicy::kCount:
      return;
    case ViolationPolicy::kQuarantine:
      // Contain the faulting principal's module (seal + revoke + drop from
      // dispatch, microreboot pending), then fail the in-flight request the
      // same way kThrow does — the wrappers' unwind paths restore principal
      // state, and the syscall surface reports the error.
      if (containment_ != nullptr) {
        containment_->OnViolation(p, kind, fault_addr);
      }
      throw LxfiViolation(kind, details);
  }
}

std::vector<ViolationRecord> Runtime::violations() const {
  SpinGuard guard(violations_mu_);
  uint64_t total = violation_seq_.load(std::memory_order_acquire);
  uint64_t cleared = violation_cleared_.load(std::memory_order_acquire);
  uint64_t lo = total > kViolationRingSize ? total - kViolationRingSize : 0;
  if (cleared > lo) {
    lo = cleared;
  }
  std::vector<ViolationRecord> out;
  out.reserve(total - lo);
  for (uint64_t s = lo; s < total; ++s) {
    const ViolationRecord& rec = violation_ring_[s % kViolationRingSize];
    if (rec.seq == s + 1) {  // slot may predate a wrap-around in flight
      out.push_back(rec);
    }
  }
  return out;
}

void Runtime::VisitPrincipals(const std::function<void(Principal*)>& fn) const {
  SpinGuard guard(ctxs_mu_);
  for (const auto& [kmod, mc] : ctxs_) {
    fn(mc->shared());
    fn(mc->global());
    for (const auto& inst : mc->instances()) {
      fn(inst.get());
    }
  }
}

// --- annotation-action evaluation ----------------------------------------------------
//
// The GuardProgram evaluator (ExecOps) is the one execution engine: a tight
// switch-loop over the flat IR compiled at registration time. Capability
// application lives in ApplyOneCap, which the test-side reference
// interpreter (tests/reference_interpreter.h) shares for differential runs.

void Runtime::ApplyOneCap(Action::Op op, const Capability& cap, const CallEnv& env,
                          bool from_module) {
  guards_.Count(GuardType::kAnnotationAction);
  switch (op) {
    case Action::Op::kCheck:
      if (from_module && !OwnsForEnforcement(env.principal, cap)) {
        RaiseViolation(cap.kind == CapKind::kRef ? ViolationKind::kRef : ViolationKind::kCapCheck,
                       StrFormat("check failed in %s: %s does not own %s", env.what,
                                 env.principal->DebugName().c_str(), cap.ToString().c_str()),
                       cap.addr);
      }
      break;
    case Action::Op::kCopy:
      if (from_module) {
        if (!OwnsForEnforcement(env.principal, cap)) {
          RaiseViolation(ViolationKind::kCapCheck,
                         StrFormat("copy source check failed in %s: %s does not own %s", env.what,
                                   env.principal->DebugName().c_str(), cap.ToString().c_str()),
                         cap.addr);
        }
        // Copy toward the kernel: nothing to track, the kernel owns all.
      } else {
        Grant(env.principal, cap);
      }
      break;
    case Action::Op::kTransfer:
      TRACE_EVENT(TraceEvent::kCapTransfer, TraceIdOf(env.principal), cap.addr,
                  CapTraceArg(cap) | (from_module ? 0 : kTraceToModule));
      if (from_module) {
        if (!OwnsForEnforcement(env.principal, cap)) {
          RaiseViolation(ViolationKind::kCapCheck,
                         StrFormat("transfer source check failed in %s: %s does not own %s",
                                   env.what, env.principal->DebugName().c_str(),
                                   cap.ToString().c_str()),
                         cap.addr);
        }
        RevokeEverywhereQuiet(cap);
      } else {
        RevokeEverywhereQuiet(cap);
        GrantQuiet(env.principal, cap);
      }
      break;
    case Action::Op::kIf:
      break;
  }
}

// --- compiled-path evaluator ---------------------------------------------------------

int64_t Runtime::ExecOps(const GuardProgram& prog, uint32_t pc, uint32_t end, const CallEnv& env,
                         bool post) {
  int64_t stack[GuardProgram::kMaxStack];
  size_t sp = 0;
  const GuardOp* ops = prog.ops().data();
  const int64_t* consts = prog.consts().data();
  const bool from_module = env.kernel_to_module == post;
  while (pc < end) {
    const GuardOp op = ops[pc];
    switch (op.op) {
      case GuardOpcode::kPushConst:
        stack[sp++] = consts[op.a];
        break;
      case GuardOpcode::kPushArg:
        stack[sp++] = op.a < env.nargs ? static_cast<int64_t>(env.args[op.a]) : 0;
        break;
      case GuardOpcode::kPushRet:
        stack[sp++] = static_cast<int64_t>(env.ret);
        break;
      case GuardOpcode::kNeg:
        stack[sp - 1] = -stack[sp - 1];
        break;
      case GuardOpcode::kAdd:
        --sp;
        stack[sp - 1] = stack[sp - 1] + stack[sp];
        break;
      case GuardOpcode::kSub:
        --sp;
        stack[sp - 1] = stack[sp - 1] - stack[sp];
        break;
      case GuardOpcode::kLt:
        --sp;
        stack[sp - 1] = stack[sp - 1] < stack[sp];
        break;
      case GuardOpcode::kGt:
        --sp;
        stack[sp - 1] = stack[sp - 1] > stack[sp];
        break;
      case GuardOpcode::kLe:
        --sp;
        stack[sp - 1] = stack[sp - 1] <= stack[sp];
        break;
      case GuardOpcode::kGe:
        --sp;
        stack[sp - 1] = stack[sp - 1] >= stack[sp];
        break;
      case GuardOpcode::kEq:
        --sp;
        stack[sp - 1] = stack[sp - 1] == stack[sp];
        break;
      case GuardOpcode::kNe:
        --sp;
        stack[sp - 1] = stack[sp - 1] != stack[sp];
        break;
      case GuardOpcode::kJumpIfZero:
        if (stack[--sp] == 0) {
          pc = op.a;
          continue;
        }
        break;
      case GuardOpcode::kActInline: {
        auto action = static_cast<Action::Op>(op.flags & GuardProgram::kActionMask);
        auto kind =
            static_cast<CapKind>((op.flags >> GuardProgram::kCapShift) & GuardProgram::kCapMask);
        size_t size = sizeof(uintptr_t);
        if ((op.flags & GuardProgram::kHasSize) != 0) {
          size = static_cast<size_t>(stack[--sp]);
        }
        auto addr = static_cast<uintptr_t>(stack[--sp]);
        Capability cap;
        switch (kind) {
          case CapKind::kWrite:
            cap = Capability::Write(addr, size);
            break;
          case CapKind::kCall:
            cap = Capability::Call(addr);
            break;
          case CapKind::kRef:
            cap = Capability::Ref(static_cast<RefTypeId>(consts[op.b]), addr);
            break;
        }
        ApplyOneCap(action, cap, env, from_module);
        break;
      }
      case GuardOpcode::kActIter: {
        auto action = static_cast<Action::Op>(op.flags & GuardProgram::kActionMask);
        auto arg = static_cast<uint64_t>(stack[--sp]);
        const CapIterator* fn = prog.IterFn(op.a, &iterators_);
        if (fn == nullptr) {
          RaiseViolation(ViolationKind::kCapCheck, "unknown capability iterator '" +
                                                       prog.IterName(op.a) + "' in " + env.what);
          break;
        }
        CapIterContext ctx(kernel_);
        (*fn)(ctx, arg);
        for (const Capability& cap : ctx.caps()) {
          ApplyOneCap(action, cap, env, from_module);
        }
        break;
      }
    }
    ++pc;
  }
  return sp > 0 ? stack[sp - 1] : 0;
}

void Runtime::ExecGuards(const GuardProgram& prog, CallEnv& env, bool post) {
  const uint32_t begin = post ? prog.pre_end() : 0;
  const uint32_t end = post ? prog.post_end() : prog.pre_end();
  if (begin == end) {
    return;
  }
  // Pure-check pre sections under the (program, args) memo: a clean pass
  // repeats until a revocation bumps the epoch, so the common back-to-back
  // crossing costs a handful of compares instead of guard evaluation. Only
  // the module->kernel direction participates: kernel->module pre checks are
  // no-ops (from_module is false), and a "clean" no-op pass must not seed
  // the memo a module->kernel crossing of the same program could then hit.
  if (!post && !env.kernel_to_module && prog.pre_memoizable() && env.principal != nullptr &&
      env.nargs <= EnforcementContext::kPreMemoArgs) {
    EnforcementContext& ec = env.principal->ctx();
    ++ec.pre_checks;
    if (ec.PreMemoHit(&prog, env.args, env.nargs)) {
      ++ec.pre_memo_hits;
      return;
    }
    // Epoch before evaluation, violation sequence around it: a pass is
    // memoized only if it was clean and no revoke raced the checks.
    uint64_t epoch = RevocationEpoch::Current();
    uint64_t violations_before = violation_seq_.load(std::memory_order_relaxed);
    ExecOps(prog, begin, end, env, post);
    // Under the throwing policy a violation already unwound past us; under
    // the counting policy the sequence says whether the pass was clean.
    if (violation_seq_.load(std::memory_order_relaxed) == violations_before) {
      ec.FillPreMemo(&prog, env.args, env.nargs, epoch);
    }
    return;
  }
  ExecOps(prog, begin, end, env, post);
}

Principal* Runtime::SelectCalleePrincipal(const GuardProgram* prog, ModuleCtx* mc,
                                          const CallEnv& env) {
  if (prog == nullptr) {
    return mc->shared();
  }
  switch (prog->principal_kind()) {
    case GuardProgram::PrincipalKind::kNone:
    case GuardProgram::PrincipalKind::kShared:
      return mc->shared();
    case GuardProgram::PrincipalKind::kGlobal:
      return mc->global();
    case GuardProgram::PrincipalKind::kExpr: {
      auto name = static_cast<uintptr_t>(ExecOps(
          *prog, prog->post_end(), static_cast<uint32_t>(prog->ops().size()), env, /*post=*/false));
      return mc->GetOrCreate(name);
    }
  }
  return mc->shared();
}

// --- wrapper entry/exit --------------------------------------------------------------

uint64_t Runtime::WrapperEnter(Principal* switch_to, const char* what) {
  guards_.Count(GuardType::kFunctionEntry);
  ShadowStack* shadow = CurrentShadow();
  uint64_t token = shadow->Push(shadow->current, what);
  shadow->current = switch_to;
  // Per-principal crossing metrics are a static key, same as tracing: one
  // relaxed load when off, a frame timestamp when on (read back at exit).
  if (LXFI_UNLIKELY(LxfiStats::EnabledRelaxed())) {
    shadow->SetTopEnterTicks(CycleNow());
  }
  TRACE_EVENT(TraceEvent::kGuardEnter,
              TraceIdOf(switch_to != nullptr ? switch_to : shadow->TopSavedPrincipal()), token,
              shadow->depth());
  return token;
}

void Runtime::WrapperExit(uint64_t token, const char* what) {
  guards_.Count(GuardType::kFunctionExit);
  ShadowStack* shadow = CurrentShadow();
  // Crossing attribution mirrors CallerPrincipal(): the module principal
  // still current (kernel->module call about to return), or the caller the
  // frame saved (module->kernel import whose wrapper dropped privilege).
  // The delta lands in the attributed principal's per-CPU shard — the one
  // the crossing's CALL check already pulled into cache.
  uint64_t crossing_ns = 0;
  if (LXFI_UNLIKELY(LxfiStats::EnabledRelaxed())) {
    uint64_t enter = shadow->TopEnterTicks();
    Principal* attributed =
        shadow->current != nullptr ? shadow->current : shadow->TopSavedPrincipal();
    if (enter != 0 && attributed != nullptr) {
      crossing_ns = TickCalibration::Global().DeltaToNs(CycleNow() - enter);
      attributed->ctx().CountCrossing(crossing_ns);
    }
  }
  bool ok = false;
  Principal* saved = shadow->Pop(token, &ok);
  if (!ok) {
    RaiseViolation(ViolationKind::kShadowStack,
                   StrFormat("return-path corruption detected leaving %s", what));
    return;
  }
  shadow->current = saved;
  TRACE_EVENT(TraceEvent::kGuardExit, TraceIdOf(saved), token, crossing_ns);
}

void Runtime::WrapperAbort(uint64_t token, const char* what) {
  // Unwind path: pop frames down to (and including) `token` without raising
  // nested violations while an exception is in flight.
  ShadowStack* shadow = CurrentShadow();
  while (shadow->depth() > 0) {
    bool ok = false;
    Principal* saved = shadow->PopAny(&ok, token);
    shadow->current = saved;
    if (ok) {
      return;
    }
  }
}

}  // namespace lxfi
