// Function wrappers (§4.2): the output of the module rewriter.
//
// Module->kernel: every imported symbol is reached through a wrapper that
// checks the CALL capability, runs pre actions, drops to kernel privilege
// for the call, then runs post actions. An import is named by its
// kern::KernelSymbol handle, which fixes the wrapper's signature, so an
// import that disagrees with the export does not compile.
//
// Kernel->module: every module-defined function the kernel can reach via a
// function pointer is registered as a wrapped invoker that selects the
// callee principal (per the principal() annotation), runs pre actions,
// invokes the module code under that principal, and runs post actions.
//
// Both directions push/pop the shadow stack (FrameGuard), so return-path and
// principal integrity hold even across nested crossings and exceptions.
#pragma once

#include <array>
#include <exception>
#include <functional>
#include <string_view>
#include <type_traits>

#include "src/kernel/module.h"
#include "src/lxfi/principal.h"
#include "src/lxfi/runtime.h"

namespace lxfi {

// Converts a wrapped call's argument to the uint64 domain the annotation
// expressions evaluate over (pointers as addresses, integers sign-extended).
template <typename T>
uint64_t ToRaw(T v) {
  if constexpr (std::is_pointer_v<T>) {
    return reinterpret_cast<uint64_t>(v);
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<uint64_t>(v);
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<uint64_t>(static_cast<int64_t>(v));
  } else {
    static_assert(std::is_pointer_v<T>, "unsupported argument type at an annotated boundary");
    return 0;
  }
}

// RAII shadow-stack frame; unwind-safe.
class FrameGuard {
 public:
  FrameGuard(Runtime* rt, Principal* switch_to, const char* what)
      : rt_(rt), what_(what), token_(rt->WrapperEnter(switch_to, what)) {}

  ~FrameGuard() {
    if (std::uncaught_exceptions() > 0) {
      rt_->WrapperAbort(token_, what_);
    } else {
      rt_->WrapperExit(token_, what_);
    }
  }

  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;

 private:
  Runtime* rt_;
  const char* what_;
  uint64_t token_;
};

template <typename Ret, typename... Args>
std::function<Ret(Args...)> Runtime::BindImport(ModuleCtx* mc,
                                                const kern::KernelSymbol<Ret(Args...)>& sym) {
  const char* name = sym.name;
  bool declared = false;
  for (const kern::KernelSymbolId& imp : mc->kmod()->def().imports) {
    declared = declared || std::string_view(imp.name) == name;
  }
  uintptr_t kaddr = kernel_->symtab().Find(name);
  const AnnotationSet* set = annotations_.Find(sym.key, name);
  if (!declared || kaddr == 0 || set == nullptr) {
    RaiseViolation(ViolationKind::kCall,
                   "module " + mc->name() + " binds undeclared/unannotated import '" + name + "'");
    return {};
  }
  Runtime* rt = this;
  kern::Kernel* k = kernel_;
  // Bind the compiled guard program once, at wrap time: per crossing the
  // wrapper holds the program pointer and the handle's name, never a
  // registry lookup or a std::string.
  const GuardProgram* prog = ProgramOf(set);
  return [rt, k, mc, kaddr, prog, name](Args... args) -> Ret {
    Principal* caller = rt->CurrentPrincipal();
    if (caller == nullptr) {
      // Trusted context (e.g. test setup poking the module's import table):
      // no module privilege is being exercised, call straight through.
      return k->funcs().Invoke<Ret, Args...>(kaddr, args...);
    }
    // CALL check through the caller's EnforcementContext: a wrapper invoked
    // back-to-back (packet paths) hits the 1-entry call memo instead of
    // probing the capability tables.
    rt->CheckCall(caller, kaddr, name);
    std::array<uint64_t, sizeof...(Args)> raw{ToRaw(args)...};
    CallEnv env;
    env.mc = mc;
    env.principal = caller;
    env.kernel_to_module = false;
    env.args = raw.data();
    env.nargs = raw.size();
    env.what = name;
    rt->RunBound(prog, env, /*post=*/false);
    if constexpr (std::is_void_v<Ret>) {
      {
        FrameGuard frame(rt, nullptr, name);
        k->funcs().Invoke<Ret, Args...>(kaddr, args...);
      }
      rt->RunBound(prog, env, /*post=*/true);
    } else {
      Ret result;
      {
        FrameGuard frame(rt, nullptr, name);
        result = k->funcs().Invoke<Ret, Args...>(kaddr, args...);
      }
      env.ret = ToRaw(result);
      rt->RunBound(prog, env, /*post=*/true);
      return result;
    }
  };
}

template <typename Ret, typename... Args>
std::function<Ret(Args...)> Runtime::WrapModuleFunction(ModuleCtx* mc, const AnnotationSet* set,
                                                        const std::string& label,
                                                        std::function<Ret(Args...)> inner) {
  Runtime* rt = this;
  const GuardProgram* prog = ProgramOf(set);
  return [rt, mc, prog, label, inner](Args... args) -> Ret {
    std::array<uint64_t, sizeof...(Args)> raw{ToRaw(args)...};
    CallEnv env;
    env.mc = mc;
    env.kernel_to_module = true;
    env.args = raw.data();
    env.nargs = raw.size();
    env.what = label.c_str();
    Principal* target = rt->SelectCalleePrincipal(prog, mc, env);
    env.principal = target;
    FrameGuard frame(rt, target, label.c_str());
    rt->RunBound(prog, env, /*post=*/false);
    if constexpr (std::is_void_v<Ret>) {
      inner(args...);
      rt->RunBound(prog, env, /*post=*/true);
    } else {
      Ret result = inner(args...);
      env.ret = ToRaw(result);
      rt->RunBound(prog, env, /*post=*/true);
      return result;
    }
  };
}

// --- module-side linkage helpers (used by module source files) ---------------

// Declares a module-defined function reachable from the kernel through a
// function pointer of `type`, whose signature `fn` must have. The rewriter
// output (wrapper factory) travels inside the FuncDecl; a stock kernel uses
// the raw invoker.
template <typename Ret, typename... Args>
kern::FuncDecl DeclareFunction(std::string name, const kern::FnPtrType<Ret(Args...)>& type,
                               std::type_identity_t<std::function<Ret(Args...)>> fn) {
  kern::FuncDecl decl;
  decl.name = std::move(name);
  decl.type = type;
  decl.invoker = fn;
  WrapFactory factory = [fn](Runtime* rt, ModuleCtx* mc, const AnnotationSet* set,
                             const std::string& label) -> std::any {
    return std::any(rt->WrapModuleFunction<Ret, Args...>(mc, set, label, fn));
  };
  decl.wrapper_factory = factory;
  return decl;
}

// Resolves the module's import of `sym` for module code: a wrapper under
// LXFI, a direct call on a stock kernel. The handle fixes the returned
// std::function's signature (a module api struct declares the field as
// kern::ImportFn<sym>); the symbol must be in the module's def().imports.
template <typename Ret, typename... Args>
std::function<Ret(Args...)> GetImport(kern::Module& m,
                                      const kern::KernelSymbol<Ret(Args...)>& sym) {
  if (m.lxfi_ctx != nullptr) {
    auto* mc = static_cast<ModuleCtx*>(m.lxfi_ctx);
    return mc->runtime()->BindImport(mc, sym);
  }
  kern::Kernel* k = m.kernel();
  uintptr_t addr = k->symtab().Find(sym.name);
  return [k, addr](Args... args) -> Ret { return k->funcs().Invoke<Ret, Args...>(addr, args...); };
}

// Runtime handle for module code (null on a stock kernel).
inline Runtime* RuntimeOf(kern::Module& m) {
  return m.lxfi_ctx != nullptr ? static_cast<ModuleCtx*>(m.lxfi_ctx)->runtime() : nullptr;
}

}  // namespace lxfi
