// Kernel module representation and loading.
//
// A module declares: the kernel symbols it imports (its symbol table, from
// which LXFI derives initial CALL capabilities — §3.2; each a KernelSymbol
// handle, so the import carries the export's signature), the functions it
// defines that the kernel may call through function pointers (each tied to a
// function-pointer *type* whose annotations propagate to it — §4.2), its
// writable and read-only data section sizes, and init/exit entry points.
#pragma once

#include <any>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/types.h"

namespace kern {

class Kernel;
class Module;

// A function defined by the module and exposed to the kernel via a function
// pointer of `type` (a FnPtrType, e.g. kNdoStartXmit), whose annotations
// propagate to the function; `invoker` holds a std::function<Sig> of that
// type's signature (lxfi::DeclareFunction deduces it from the handle).
struct FuncDecl {
  std::string name;
  FnPtrTypeId type{};
  std::any invoker;
  // Opaque wrapper factory installed by the module rewriter (lxfi): given
  // the runtime and module context it produces the instrumented invoker.
  // Absent on modules "compiled without the plugin", which an isolating
  // kernel refuses to load.
  std::any wrapper_factory;
};

// The std::function a module binds an import of `kSym` to (a field of the
// module's api struct; lxfi::GetImport returns one).
template <const auto& kSym>
using ImportFn = std::function<SigOf<kSym>>;

struct ModuleDef {
  std::string name;
  std::vector<KernelSymbolId> imports;  // kernel exports, by their handles
  std::vector<FuncDecl> functions;
  size_t data_size = 0;    // .data/.bss
  size_t rodata_size = 0;  // .rodata (ops tables live here unless noted)
  // Static section initialization: runs right after sections are allocated,
  // BEFORE isolation setup — it stands in for the initialized .data/.rodata
  // image the ELF loader would have copied in (e.g. `static const struct
  // proto_ops`). Function-pointer fields cannot be filled here because text
  // addresses are minted later; use `init` for those.
  std::function<void(Module&)> init_sections;
  // Relocation patching: runs after module functions have text addresses but
  // before init, standing in for the loader writing relocated function
  // addresses into initialized (including read-only) sections — how a
  // `static const struct proto_ops` gets its pointers in a real kernel.
  std::function<void(Module&)> patch_relocs;
  std::function<int(Module&)> init;
  std::function<void(Module&)> exit_fn;
};

enum class ModuleState {
  kLoaded,
  kLive,
  kUnloaded,
};

class Module {
 public:
  Module(Kernel* kernel, ModuleDef def) : kernel_(kernel), def_(std::move(def)) {}

  const std::string& name() const { return def_.name; }
  const ModuleDef& def() const { return def_; }
  Kernel* kernel() const { return kernel_; }

  void* data() const { return data_; }
  size_t data_size() const { return def_.data_size; }
  void* rodata() const { return rodata_; }
  size_t rodata_size() const { return def_.rodata_size; }

  ModuleState state() const { return state_; }

  // Containment flag (containment.cc): set when the module's principal
  // violates under ViolationPolicy::kQuarantine. Read lock-free by dispatch
  // paths (the VFS filter chain, mount/fstype probes) so in-flight calls
  // fail fast instead of entering the quarantined module.
  bool quarantined() const { return quarantined_.load(std::memory_order_acquire); }
  void set_quarantined(bool q) { quarantined_.store(q, std::memory_order_release); }

  // Text address minted for a module-defined function (0 if unknown).
  uintptr_t FuncAddr(const std::string& fn_name) const {
    auto it = func_addrs_.find(fn_name);
    return it == func_addrs_.end() ? 0 : it->second;
  }

  // Called by the loader / isolation runtime when registering functions.
  void SetFuncAddr(const std::string& fn_name, uintptr_t addr) { func_addrs_[fn_name] = addr; }

  // Module-private C++ state (the "driver object"); owned via std::any.
  std::any& state_any() { return instance_state_; }
  template <typename T>
  T* instance() {
    return std::any_cast<T>(&instance_state_);
  }

  // Opaque pointer to the LXFI module context (null on a stock kernel).
  void* lxfi_ctx = nullptr;

 private:
  friend class Kernel;

  Kernel* kernel_;
  ModuleDef def_;
  void* data_ = nullptr;
  void* rodata_ = nullptr;
  ModuleState state_ = ModuleState::kLoaded;
  std::atomic<bool> quarantined_{false};
  std::unordered_map<std::string, uintptr_t> func_addrs_;
  std::any instance_state_;
};

}  // namespace kern
