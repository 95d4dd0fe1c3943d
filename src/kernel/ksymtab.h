// Exported-symbol table and text-address dispatch.
//
// The simulated kernel mints synthetic text addresses in disjoint ranges:
//   kernel text   0xffffffff81000000+
//   module text   0xffffffffa0000000+
//   user space    [0, 0x200000)        (attacker-mappable, including page 0)
// Function-pointer fields in shared data structures store these addresses as
// plain uintptr_t, so an exploit can overwrite them with arbitrary values;
// invoking an address goes through FuncRegistry::Call, which is the
// simulation's "instruction fetch": unknown addresses fault (kernel panic,
// like a real wild jump), registered addresses run the registered callable.
// LXFI's indirect-call check runs between Lookup and Call, on the same
// entry, and is what distinguishes a protected kernel from a stock one.
//
// Concurrency: dispatch is the one table every worker CPU probes on every
// indirect call, and module load/unload mutates it — so Lookup is lock-free
// (seqlock-validated FlatTable probe of a word-sized entry pointer) while
// Register/Unregister serialize on a spinlock and retire superseded entries
// through the global grace-period reclaimer. A CPU mid-call through an entry
// whose address is being unregistered keeps a valid pointer until it
// quiesces — the property the module-churn storm leans on.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "src/base/flat_table.h"
#include "src/base/sync.h"
#include "src/kernel/panic.h"

namespace kern {

class Module;

enum class TextKind {
  kKernelText,
  kModuleText,
  kUserText,
};

struct DispatchEntry {
  TextKind kind;
  std::string name;
  // FNV-1a hash of the canonical annotation text attached to this function
  // (0 when the function has no annotations). Compared against the hash of
  // the function-pointer type's annotations on kernel indirect calls (§4.1).
  uint64_t ahash = 0;
  Module* module = nullptr;  // owning module for kModuleText
  uintptr_t addr = 0;        // the text address this entry is registered at
  std::any invoker;          // std::function<Sig>
};

inline constexpr uintptr_t kKernelTextBase = 0xffffffff81000000ull;
inline constexpr uintptr_t kModuleTextBase = 0xffffffffa0000000ull;
inline constexpr uintptr_t kUserSpaceTop = 0x200000;

inline bool IsUserAddress(uintptr_t addr) { return addr < kUserSpaceTop; }

class FuncRegistry {
 public:
  // Sentinel: mint an address instead of using a caller-chosen one.
  static constexpr uintptr_t kMintAddress = ~uintptr_t{0};

  FuncRegistry() = default;

  ~FuncRegistry() {
    // No concurrent readers can exist at registry destruction (the kernel is
    // gone); reclaim entries directly.
    dispatch_.ForEach([](uint64_t, DispatchEntry* e) { delete e; });
  }

  FuncRegistry(const FuncRegistry&) = delete;
  FuncRegistry& operator=(const FuncRegistry&) = delete;

  // Registers a type-erased callable (a std::any holding std::function<Sig>)
  // and mints a text address in the range for `kind`, unless `fixed_addr` is
  // given (used for user-space mappings at chosen addresses — including the
  // NULL page at 0, which the econet exploit maps). Re-registering at the
  // same fixed address replaces the entry; the superseded one is retired,
  // not freed, so concurrent callers mid-dispatch stay safe.
  uintptr_t RegisterAny(TextKind kind, const std::string& name, std::any invoker,
                        uint64_t ahash = 0, Module* module = nullptr,
                        uintptr_t fixed_addr = kMintAddress) {
    auto* entry = new DispatchEntry();
    entry->kind = kind;
    entry->name = name;
    entry->ahash = ahash;
    entry->module = module;
    entry->invoker = std::move(invoker);
    lxfi::SpinGuard guard(mu_);
    uintptr_t addr = fixed_addr != kMintAddress ? fixed_addr : MintAddress(kind);
    entry->addr = addr;
    DispatchEntry* old = nullptr;
    if (DispatchEntry** slot = dispatch_.Find(addr)) {
      old = *slot;
    }
    dispatch_.Insert(addr, entry);
    RetireEntry(old);
    return addr;
  }

  template <typename Sig>
  uintptr_t Register(TextKind kind, const std::string& name, std::function<Sig> fn,
                     uint64_t ahash = 0, Module* module = nullptr,
                     uintptr_t fixed_addr = kMintAddress) {
    return RegisterAny(kind, name, std::any(std::move(fn)), ahash, module, fixed_addr);
  }

  // Lock-free: safe against concurrent Register/Unregister. The returned
  // entry stays valid until the calling CPU passes a quiescent point.
  const DispatchEntry* Lookup(uintptr_t addr) const {
    DispatchEntry* entry = nullptr;
    return dispatch_.FindValueConcurrent(addr, &entry) ? entry : nullptr;
  }

  void Unregister(uintptr_t addr) {
    DispatchEntry* old = nullptr;
    {
      lxfi::SpinGuard guard(mu_);
      if (DispatchEntry** slot = dispatch_.Find(addr)) {
        old = *slot;
        dispatch_.Erase(addr);
      }
    }
    RetireEntry(old);
  }

  // Control transfer to `addr` through its looked-up `entry`. Faults on an
  // unmapped address or a signature mismatch, as hardware would.
  template <typename Ret, typename... Args>
  static Ret Call(uintptr_t addr, const DispatchEntry* entry, Args... args) {
    if (entry == nullptr) {
      Panic("unable to handle kernel paging request at text address " + std::to_string(addr));
    }
    const auto* fn = std::any_cast<std::function<Ret(Args...)>>(&entry->invoker);
    if (fn == nullptr) {
      Panic("invalid opcode: calling " + entry->name + " with mismatched signature");
    }
    return (*fn)(args...);
  }

  template <typename Ret, typename... Args>
  Ret Invoke(uintptr_t addr, Args... args) const {
    return Call<Ret, Args...>(addr, Lookup(addr), args...);
  }

  size_t size() const { return dispatch_.size(); }

 private:
  uintptr_t MintAddress(TextKind kind) {
    switch (kind) {
      case TextKind::kKernelText: {
        uintptr_t a = next_kernel_;
        next_kernel_ += 0x100;
        return a;
      }
      case TextKind::kModuleText: {
        uintptr_t a = next_module_;
        next_module_ += 0x100;
        return a;
      }
      case TextKind::kUserText: {
        uintptr_t a = next_user_;
        next_user_ += 0x1000;
        return a;
      }
    }
    KERN_BUG_ON(true);
    return 0;
  }

  static void RetireEntry(DispatchEntry* entry) {
    if (entry != nullptr) {
      lxfi::EpochReclaimer::Global().Retire([entry] { delete entry; });
    }
  }

  lxfi::FlatTable<DispatchEntry*> dispatch_;  // addr -> heap-owned entry
  lxfi::Spinlock mu_;                         // serializes writers + minting
  uintptr_t next_kernel_ = kKernelTextBase;   // guarded by mu_
  uintptr_t next_module_ = kModuleTextBase;
  uintptr_t next_user_ = 0x10000;
};

// Name -> text address map for EXPORT_SYMBOL lookups at module link time.
class SymbolTable {
 public:
  void Add(const std::string& name, uintptr_t addr) { symbols_[name] = addr; }

  // Returns 0 when the symbol is not exported.
  uintptr_t Find(const std::string& name) const {
    auto it = symbols_.find(name);
    return it == symbols_.end() ? 0 : it->second;
  }

  const std::unordered_map<std::string, uintptr_t>& symbols() const { return symbols_; }

 private:
  std::unordered_map<std::string, uintptr_t> symbols_;
};

}  // namespace kern
