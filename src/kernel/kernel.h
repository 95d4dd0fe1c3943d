// The simulated kernel: one object owning the kernel address space (arena),
// allocators, processes, symbol tables, kthread contexts, modules and
// subsystems. Tests construct a fresh Kernel per case; attaching an LXFI
// runtime via set_isolation() turns it into the protected configuration.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "src/base/arena.h"
#include "src/base/counters.h"
#include "src/kernel/isolation.h"
#include "src/kernel/kmalloc.h"
#include "src/kernel/ksymtab.h"
#include "src/kernel/kthread.h"
#include "src/kernel/module.h"
#include "src/kernel/process.h"
#include "src/kernel/types.h"
#include "src/kernel/uaccess.h"

namespace kern {

// CPU-local current kthread: null on the harness main thread (which uses
// the kernel's own member, preserving single-threaded determinism), set by
// CpuSet worker threads via Kernel::AdoptCurrentThread. Thread-local rather
// than per-kernel because a host thread simulates a CPU of exactly one
// kernel at a time.
inline thread_local KthreadContext* tls_cpu_kthread = nullptr;

class Kernel {
 public:
  // `arena_bytes` bounds the simulated kernel address space.
  explicit Kernel(size_t arena_bytes = 64ull << 20);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  lxfi::Arena& arena() { return arena_; }
  SlabAllocator& slab() { return slab_; }
  ProcessTable& procs() { return *procs_; }
  SymbolTable& symtab() { return symtab_; }
  FuncRegistry& funcs() { return funcs_; }
  UserSpace& user() { return user_; }

  IsolationHooks* isolation() const { return isolation_; }
  void set_isolation(IsolationHooks* hooks);

  // --- Kthreads ---------------------------------------------------------
  // Thread-safe (ids from an atomic counter, registration under the kernel
  // lock); callable from CPU threads.
  KthreadContext* CreateKthread();
  // The current execution context: CPU-local on simulated-CPU threads,
  // the kernel member on the main thread.
  KthreadContext* current() {
    return tls_cpu_kthread != nullptr ? tls_cpu_kthread : current_ctx_;
  }
  void SwitchTo(KthreadContext* ctx) {
    if (tls_cpu_kthread != nullptr) {
      tls_cpu_kthread = ctx;
    } else {
      current_ctx_ = ctx;
    }
  }
  // Binds/unbinds the calling host thread as a simulated CPU running `ctx`
  // (used by smp.cc; main-thread semantics are untouched).
  static void AdoptCurrentThread(KthreadContext* ctx) { tls_cpu_kthread = ctx; }
  static void ReleaseCurrentThread() { tls_cpu_kthread = nullptr; }
  Task* current_task() {
    KthreadContext* ctx = current();
    return ctx != nullptr ? ctx->current_task : nullptr;
  }
  void SetCurrentTask(Task* task) { current()->current_task = task; }

  // Simulated interrupt delivery: runs `handler` in interrupt context on the
  // current kthread, with principal save/restore around it when isolated.
  void DeliverInterrupt(const std::function<void()>& handler);

  // --- Exported symbols --------------------------------------------------
  // EXPORT_SYMBOL: registers `fn` as the implementation of `sym` and
  // returns its minted kernel-text address. lxfi::Export pairs this with
  // the symbol's annotation.
  template <typename Ret, typename... Args>
  uintptr_t ExportSymbol(const KernelSymbol<Ret(Args...)>& sym,
                         std::type_identity_t<std::function<Ret(Args...)>> fn) {
    uintptr_t addr = funcs_.Register<Ret(Args...)>(TextKind::kKernelText, sym.name, std::move(fn));
    symtab_.Add(sym.name, addr);
    return addr;
  }

  // --- Modules -----------------------------------------------------------
  // insmod: allocates sections, runs isolation setup, then the module's init
  // under its shared principal. Returns nullptr (and logs) on init failure.
  Module* LoadModule(ModuleDef def);
  void UnloadModule(Module* module);
  // Containment unload: like UnloadModule but absorbs a throwing exit_fn (a
  // quarantined module's exit may itself violate against its sealed arena)
  // so isolation teardown and the state transition always complete.
  void ForceUnloadModule(Module* module);
  Module* FindModule(const std::string& name);
  const std::vector<std::unique_ptr<Module>>& modules() const { return modules_; }

  // --- Indirect calls from core kernel code ------------------------------
  // Every indirect call site in the core kernel is "rewritten" to go through
  // this helper (§4.1): pptr is the home slot of the function pointer (e.g.
  // &dev->ops->handler rather than &local_copy), `type` its declared type,
  // which fixes the signature. The check and the call share one lookup.
  template <typename Ret, typename... Args>
  Ret IndirectCall(const uintptr_t* pptr, const FnPtrType<Ret(Args...)>& type,
                   std::type_identity_t<Args>... args) {
    uintptr_t target = *pptr;
    const DispatchEntry* entry = funcs_.Lookup(target);
    if (isolation_ != nullptr) {
      isolation_->CheckKernelIndirectCall(pptr, type, target, entry);
    }
    return FuncRegistry::Call<Ret, Args...>(target, entry, args...);
  }

  // --- Subsystems ---------------------------------------------------------
  // Every named counter set of this kernel and its runtime (one Snapshot()
  // covers the whole kernel); outlives the subsystems.
  lxfi::CounterRegistry& counters() { return counters_; }

  // Typed singleton slots for net/pci/block/sound substrates, created on
  // first use so kernel.h need not know their types.
  template <typename T, typename... A>
  T* EnsureSubsystem(A&&... args) {
    auto it = subsystems_.find(std::type_index(typeid(T)));
    if (it == subsystems_.end()) {
      auto holder = std::make_shared<T>(std::forward<A>(args)...);
      T* raw = holder.get();
      subsystems_.emplace(std::type_index(typeid(T)), std::move(holder));
      return raw;
    }
    return static_cast<T*>(it->second.get());
  }

  template <typename T>
  T* GetSubsystem() {
    auto it = subsystems_.find(std::type_index(typeid(T)));
    return it == subsystems_.end() ? nullptr : static_cast<T*>(it->second.get());
  }

 private:
  lxfi::Arena arena_;
  SlabAllocator slab_;
  SymbolTable symtab_;
  FuncRegistry funcs_;
  UserSpace user_;
  std::unique_ptr<ProcessTable> procs_;
  IsolationHooks* isolation_ = nullptr;

  std::mutex kthreads_mu_;  // guards kthreads_ (CPU threads create contexts)
  std::atomic<int> next_kthread_id_{0};
  std::vector<std::unique_ptr<KthreadContext>> kthreads_;
  KthreadContext* current_ctx_ = nullptr;  // main-thread current

  std::vector<std::unique_ptr<Module>> modules_;
  lxfi::CounterRegistry counters_;
  std::unordered_map<std::type_index, std::shared_ptr<void>> subsystems_;
};

// Core services exported to modules: simulated single-core spinlocks (each
// call writes the lock word) and printk.
inline constexpr KernelSymbol<void(uintptr_t* lock)> kSpinLockInit{"spin_lock_init"};
inline constexpr KernelSymbol<void(uintptr_t* lock)> kSpinLock{"spin_lock"};
inline constexpr KernelSymbol<void(uintptr_t* lock)> kSpinUnlock{"spin_unlock"};
inline constexpr KernelSymbol<void(const char* fmt)> kPrintk{"printk"};

}  // namespace kern
