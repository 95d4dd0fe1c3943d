// The annotated core-kernel API surface.
//
// Each kernel export is declared once, as a kern::KernelSymbol handle next to
// the subsystem it calls into (kern::kKmalloc in kmalloc.h, kern::kSubmitBio
// in block.h, ...). The handle fixes the export's name and signature for its
// implementation, its contract and every module import (lxfi::GetImport).
//
// InstallKernelApi registers every export the modules use through Export(),
// which takes the handle, the contract's parameter names, the contract (the
// LXFI annotations of the paper's Figures 2–4) and the implementation, so no
// export exists without its contract. Function-pointer types (kernel ->
// module) get their contracts through Annotate(), from their FnPtrType
// handles. A stock kernel (rt == null) installs the same exports at the same
// addresses with no annotations, which is the uninstrumented baseline of
// Figure 12.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <type_traits>

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"

namespace lxfi {

class Runtime;

// A contract's parameter names, one per argument of the handle's signature.
using ParamNames = std::initializer_list<const char*>;

// Registers `contract` as the annotation set of `id`, whose signature takes
// `arity` arguments; does nothing more when rt is null. Panics when the
// parameter list's length differs from `arity` (with or without a runtime)
// or when the contract does not parse or compile. Export and Annotate pass
// their handle's arity.
void RegisterContract(Runtime* rt, const kern::SymbolKey& id, size_t arity, ParamNames params,
                      const char* contract);

// Registers the contract of `sym`, then exports `impl` as `sym`.
template <typename Ret, typename... Args>
void Export(kern::Kernel* k, Runtime* rt, const kern::KernelSymbol<Ret(Args...)>& sym,
            ParamNames params, const char* contract,
            std::type_identity_t<std::function<Ret(Args...)>> impl) {
  RegisterContract(rt, sym, sizeof...(Args), params, contract);
  k->ExportSymbol(sym, std::move(impl));
}

// Registers the contract of a function-pointer type; module functions
// declared with `type` inherit it (§4.2).
template <typename Ret, typename... Args>
void Annotate(Runtime* rt, const kern::FnPtrType<Ret(Args...)>& type, ParamNames params,
              const char* contract) {
  RegisterContract(rt, type, sizeof...(Args), params, contract);
}

// Installs the exports (always) and the iterators and contracts (when
// rt != null).
void InstallKernelApi(kern::Kernel* kernel, Runtime* rt);

}  // namespace lxfi
