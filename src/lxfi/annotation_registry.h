// Registry of annotation sets and capability iterators.
//
// Keyed by symbol name (kernel exports such as kmalloc) or function-pointer
// type name (net_device_ops::ndo_start_xmit). Annotation propagation
// (§4.2) gives each module-defined function the annotation set of its
// declared function-pointer type; the §4.1 indirect-call check compares the
// ahash of the invoked function against the ahash of the call site's pointer
// type. The registry also tracks, for Figure 9, which modules use each
// annotated name.
//
// Registration is the compile step of the annotation pipeline: Register()
// parses the text into an AST and immediately lowers it into a GuardProgram
// (guard_program.h), so wrapper crossings never touch the AST. Name lookups
// probe a FlatTable keyed by FNV-1a of the name (the indirect-call check
// passes its FnPtrType's precomputed key) instead of walking a std::map of
// strings; the ordered map is kept for ownership and for deterministic
// all()/uses() iteration (DumpState, the Figure 9 survey).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/hash.h"
#include "src/base/status.h"
#include "src/lxfi/annotation.h"
#include "src/lxfi/cap.h"
#include "src/lxfi/cap_iterator.h"

namespace lxfi {

class AnnotationRegistry {
 public:
  // Binds the iterator registry the compile pass resolves iterator-func
  // names against (optional; unresolved slots resolve lazily at execution).
  void BindIterators(const IteratorRegistry* iters) { iters_ = iters; }

  // Registers (or re-registers identically) annotations for `name`. Returns
  // an error on parse failure or on a conflicting redefinition, mirroring
  // the rewriter's "annotations must be exactly the same" rule.
  lxfi::Status Register(const std::string& name, const std::vector<std::string>& params,
                        const std::string& text);

  const AnnotationSet* Find(std::string_view name) const { return Find(Fnv1a64(name), name); }
  // Find by the name's precomputed FNV-1a key (a kern::FnPtrType's key).
  const AnnotationSet* Find(uint64_t key, std::string_view name) const;

  // Figure 9 accounting: a module's loader calls this for every annotated
  // name the module touches (imports and function-pointer types).
  void NoteUse(const std::string& name, const std::string& module_name);
  const std::map<std::string, std::set<std::string>>& uses() const { return uses_; }

  const std::map<std::string, std::unique_ptr<AnnotationSet>>& all() const { return sets_; }

 private:
  const IteratorRegistry* iters_ = nullptr;
  // Fast path: FNV-1a(name) -> set. On the astronomically unlikely hash
  // collision the first name keeps the slot and colliding names fall back to
  // the ordered map (see Register/Find).
  FlatTable<const AnnotationSet*> index_;
  std::map<std::string, std::unique_ptr<AnnotationSet>> sets_;
  std::map<std::string, std::set<std::string>> uses_;  // name -> modules using it
};

}  // namespace lxfi
