// Checked memory stores — the write guards the module rewriter inserts
// before every store instruction in module code (§4.2 "Memory writes").
//
// Module source in this repo performs all stores to kernel-visible memory
// through these helpers; on a stock kernel (no runtime attached) they
// degrade to plain stores, which is the uninstrumented baseline.
#pragma once

#include <cstring>

#include "src/kernel/module.h"
#include "src/lxfi/principal.h"
#include "src/lxfi/runtime.h"

namespace lxfi {

template <typename T>
inline void Store(kern::Module& m, T* dst, T value) {
  if (m.lxfi_ctx != nullptr) {
    static_cast<ModuleCtx*>(m.lxfi_ctx)->runtime()->CheckWrite(dst, sizeof(T));
  }
  *dst = value;
}

inline void MemCopy(kern::Module& m, void* dst, const void* src, size_t n) {
  if (m.lxfi_ctx != nullptr) {
    static_cast<ModuleCtx*>(m.lxfi_ctx)->runtime()->CheckWrite(dst, n);
  }
  std::memcpy(dst, src, n);
}

inline void MemSet(kern::Module& m, void* dst, int c, size_t n) {
  if (m.lxfi_ctx != nullptr) {
    static_cast<ModuleCtx*>(m.lxfi_ctx)->runtime()->CheckWrite(dst, n);
  }
  std::memset(dst, c, n);
}

// Ranged store: dst[i] = value_of(i) for every i in [0, n), behind one
// WRITE check over the whole run — the compiler plugin's hoisting of a
// loop's per-store guards into a single check on the object (§4.2). The
// helper generates every index itself, so each store lands inside the
// checked range by construction. Same contract as MemCopy: a run any
// per-element guard would reject is rejected before its first store, as
// one violation at `dst`. n == 0 checks and stores nothing.
template <typename T, typename ValueOf>
inline void StoreEach(kern::Module& m, T* dst, size_t n, ValueOf&& value_of) {
  if (n == 0) {
    return;
  }
  if (m.lxfi_ctx != nullptr) {
    static_cast<ModuleCtx*>(m.lxfi_ctx)->runtime()->CheckWrite(dst, n * sizeof(T));
  }
  for (size_t i = 0; i < n; ++i) {
    dst[i] = value_of(i);
  }
}

}  // namespace lxfi
