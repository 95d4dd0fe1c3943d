// Fundamental types for the simulated kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/base/hash.h"

namespace kern {

inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kPageShift = 12;

using Pid = int32_t;
using Uid = uint32_t;

// Linux-style errno values used at simulated syscall/module boundaries.
inline constexpr int kEperm = 1;
inline constexpr int kEnoent = 2;
inline constexpr int kEio = 5;
inline constexpr int kEfault = 14;
inline constexpr int kEbusy = 16;
inline constexpr int kEexist = 17;
inline constexpr int kExdev = 18;
inline constexpr int kEnodev = 19;
inline constexpr int kEnotdir = 20;
inline constexpr int kEisdir = 21;
inline constexpr int kEinval = 22;
inline constexpr int kEnospc = 28;
inline constexpr int kEnomem = 12;
inline constexpr int kEnotempty = 39;
inline constexpr int kEnotconn = 107;

// netdev_tx_t values (include/linux/netdevice.h).
inline constexpr int kNetdevTxOk = 0;
inline constexpr int kNetdevTxBusy = 16;

// A name and that name's FNV-1a key, computed at compile time: the identity
// a function-pointer type and a kernel export both carry.
struct SymbolKey {
  const char* name;
  uint64_t key;
};

// A function-pointer type (§4.1): the name its annotations are registered
// under. Declared once, next to the ops struct it types; call sites and
// module functions take the handle, so a call that does not match its
// signature does not compile.
struct FnPtrTypeId : SymbolKey {};

template <typename Sig>
struct FnPtrType;

template <typename Ret, typename... Args>
struct FnPtrType<Ret(Args...)> : FnPtrTypeId {
  using Signature = Ret(Args...);
  constexpr explicit FnPtrType(const char* type_name)
      : FnPtrTypeId{{type_name, lxfi::Fnv1a64(type_name)}} {}
};

// A kernel export (EXPORT_SYMBOL, §3.3): the symbol name and the signature
// its implementation, its annotation and every module import share.
// Declared once, next to the subsystem the export calls into; a distinct
// type from FnPtrTypeId, so neither handle passes for the other.
struct KernelSymbolId : SymbolKey {};

template <typename Sig>
struct KernelSymbol;

template <typename Ret, typename... Args>
struct KernelSymbol<Ret(Args...)> : KernelSymbolId {
  using Signature = Ret(Args...);
  constexpr explicit KernelSymbol(const char* symbol_name)
      : KernelSymbolId{{symbol_name, lxfi::Fnv1a64(symbol_name)}} {}
};

// The signature a handle (FnPtrType or KernelSymbol) declares.
template <const auto& kHandle>
using SigOf = typename std::remove_cvref_t<decltype(kHandle)>::Signature;

}  // namespace kern
