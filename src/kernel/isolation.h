// Hook interface the kernel substrate uses to talk to an isolation runtime.
//
// The kernel never depends on LXFI types directly; a stock kernel runs with
// no hooks installed (every check passes), which is the "Stock" column in the
// paper's Figure 12 and the configuration in which the §8.1 exploits succeed.
#pragma once

#include <cstdint>
#include <functional>

namespace kern {

class Module;
struct DispatchEntry;
struct FnPtrTypeId;
struct KthreadContext;

class IsolationHooks {
 public:
  virtual ~IsolationHooks() = default;

  // Module lifecycle. OnModuleLoad runs before the module's init function
  // (the paper's generated initialization function: grant initial
  // capabilities, register function wrappers). Returns false to reject,
  // having changed nothing.
  virtual bool OnModuleLoad(Module* module) = 0;
  virtual void OnModuleUnload(Module* module) = 0;

  // Runs the module's init/exit under the module's shared principal.
  virtual int CallModuleInit(Module* module, const std::function<int()>& init) = 0;
  virtual void CallModuleExit(Module* module, const std::function<void()>& exit_fn) = 0;

  // The check the kernel rewriter inserts before every indirect call in core
  // kernel code (§4.1): pptr is the (possibly module-written) slot, the
  // intra-procedural trace-back result; `type` the pointer's declared type;
  // target the value about to be invoked and `entry` its dispatch entry
  // (null when unmapped), which the call then runs. Must panic on violation.
  virtual void CheckKernelIndirectCall(const void* pptr, const FnPtrTypeId& type, uintptr_t target,
                                       const DispatchEntry* entry) = 0;

  // Interrupt entry/exit: save/restore the current principal (§3.1).
  virtual void OnInterruptEnter(KthreadContext* ctx) = 0;
  virtual void OnInterruptExit(KthreadContext* ctx) = 0;

  // Thread lifecycle, for shadow-stack setup.
  virtual void OnKthreadCreate(KthreadContext* ctx) = 0;
  virtual void OnKthreadDestroy(KthreadContext* ctx) = 0;
};

}  // namespace kern
