// Shared import list for the dm modules.
#pragma once

#include <vector>

#include "src/lxfi/wrap.h"
#include "src/modules/dm/dm_modules.h"

namespace mods {

// The one list of the dm modules' imports: each DmImports field with the
// handle it binds, in import order. DmImportNames and BindDmImports both
// walk it.
template <typename F>
void ForEachDmImport(DmImports& api, F&& f) {
  f(api.kmalloc, kern::kKmalloc);
  f(api.kfree, kern::kKfree);
  f(api.dm_register_target, kern::kDmRegisterTarget);
  f(api.dm_unregister_target, kern::kDmUnregisterTarget);
  f(api.submit_bio, kern::kSubmitBio);
  f(api.dm_get_device, kern::kDmGetDevice);
  f(api.printk, kern::kPrintk);
}

inline void BindDmImports(kern::Module& m, DmImports* api) {
  ForEachDmImport(*api, [&m](auto& field, const auto& sym) { field = lxfi::GetImport(m, sym); });
}

inline std::vector<kern::KernelSymbolId> DmImportNames() {
  std::vector<kern::KernelSymbolId> imports;
  DmImports api;
  ForEachDmImport(api, [&imports](auto&, const auto& sym) { imports.push_back(sym); });
  return imports;
}

}  // namespace mods
