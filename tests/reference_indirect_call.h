// Reference string-keyed indirect-call check: the test-side oracle the
// handle-keyed Runtime::CheckKernelIndirectCall is diffed against.
//
// This is the check as it stood when function-pointer types were plain
// names: skip slots no principal wrote, require CALL of every writer, look
// the target up in the dispatch table itself, then hash the pointer type's
// name to find its annotation set and compare annotation hashes. It returns
// a verdict instead of raising, so a test can put it beside what the runtime
// raised for the same (slot, type, target).
#pragma once

#include <cstdint>

#include "src/kernel/kernel.h"
#include "src/lxfi/principal.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/violation.h"

namespace lxfitest {

struct IndirectCallVerdict {
  bool allowed = true;
  lxfi::ViolationKind kind = lxfi::ViolationKind::kIndirectCall;  // meaningful when denied
  bool operator==(const IndirectCallVerdict& o) const {
    return allowed == o.allowed && (allowed || kind == o.kind);
  }
};

inline IndirectCallVerdict Denied(lxfi::ViolationKind kind) { return {false, kind}; }

inline IndirectCallVerdict ReferenceCheckKernelIndirectCall(lxfi::Runtime& rt, const void* pptr,
                                                            const char* fnptr_type,
                                                            uintptr_t target) {
  uintptr_t slot = reinterpret_cast<uintptr_t>(pptr);
  if (rt.writer_set().Empty(slot)) {
    return {};
  }
  const lxfi::WriterVec writers = rt.writer_set().WritersFor(slot);
  if (writers.empty()) {
    return {};
  }
  for (lxfi::Principal* writer : writers) {
    if (!rt.OwnsCallFast(writer, target)) {
      return Denied(lxfi::ViolationKind::kIndirectCall);
    }
  }
  const kern::DispatchEntry* entry = rt.kernel()->funcs().Lookup(target);
  if (entry == nullptr) {
    return Denied(lxfi::ViolationKind::kIndirectCall);
  }
  const lxfi::AnnotationSet* type_set = rt.annotations().Find(fnptr_type);
  uint64_t type_hash = type_set == nullptr ? 0 : type_set->ahash;
  if ((entry->ahash != 0 || entry->kind == kern::TextKind::kModuleText) &&
      entry->ahash != type_hash) {
    return Denied(lxfi::ViolationKind::kAnnotationMismatch);
  }
  return {};
}

}  // namespace lxfitest
