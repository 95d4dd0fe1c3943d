#include "src/lxfi/annotation_registry.h"

#include "src/lxfi/annotation_parser.h"
#include "src/lxfi/guard_program.h"

namespace lxfi {

lxfi::Status AnnotationRegistry::Register(const std::string& name,
                                          const std::vector<std::string>& params,
                                          const std::string& text) {
  uint64_t new_hash = AnnotationHash(text);
  auto it = sets_.find(name);
  if (it != sets_.end()) {
    if (it->second->ahash != new_hash) {
      return AlreadyExists("conflicting annotations for '" + name +
                           "': a function may not obtain different annotations "
                           "from multiple sources");
    }
    return OkStatus();
  }
  std::string error;
  auto set = ParseAnnotations(name, params, text, &error);
  if (set == nullptr) {
    return InvalidArgument("annotation parse error for '" + name + "': " + error);
  }
  // The compile pass: lower the AST once, at registration time. The
  // compiled program is the only engine, so a set beyond compiler limits
  // is refused like a parse error.
  set->program = CompileAnnotations(*set, iters_);
  if (set->program == nullptr) {
    return InvalidArgument("annotations for '" + name + "' exceed guard compiler limits");
  }
  const AnnotationSet* raw = set.get();
  sets_[name] = std::move(set);
  // Insert() never overwrites an occupied colliding slot here because we only
  // reach it for genuinely new names; if the FNV slot is already taken by a
  // *different* name (a real 64-bit collision), keep the incumbent — Find()
  // falls back to the ordered map when the slot's name mismatches.
  uint64_t key = Fnv1a64(name);
  const AnnotationSet** slot = index_.Find(key);
  if (slot == nullptr) {
    index_.Insert(key, raw);
  }
  return OkStatus();
}

const AnnotationSet* AnnotationRegistry::Find(uint64_t key, std::string_view name) const {
  const AnnotationSet* const* slot = index_.Find(key);
  if (slot == nullptr) {
    return nullptr;
  }
  if (LXFI_LIKELY((*slot)->name == name)) {
    return *slot;
  }
  // Hash collision: the slow, exact path.
  auto it = sets_.find(std::string(name));
  return it == sets_.end() ? nullptr : it->second.get();
}

void AnnotationRegistry::NoteUse(const std::string& name, const std::string& module_name) {
  uses_[name].insert(module_name);
}

}  // namespace lxfi
