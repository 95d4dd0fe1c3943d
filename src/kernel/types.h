// Fundamental types for the simulated kernel.
#pragma once

#include <cstddef>
#include <cstdint>

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

// A function-pointer type (§4.1): the name its annotations are registered
// under and that name's FNV-1a key, computed at compile time. Declared once,
// next to the ops struct it types; call sites and module functions take the
// handle, so a call that does not match its signature does not compile.
struct FnPtrTypeId {
  const char* name;
  uint64_t key;
};

template <typename Sig>
struct FnPtrType;

template <typename Ret, typename... Args>
struct FnPtrType<Ret(Args...)> : FnPtrTypeId {
  constexpr explicit FnPtrType(const char* type_name)
      : FnPtrTypeId{type_name, lxfi::Fnv1a64(type_name)} {}
};

}  // namespace kern
