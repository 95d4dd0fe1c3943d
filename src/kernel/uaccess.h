// Simulated user address space and user-memory accessors.
//
// User virtual addresses live in [0, kUserSpaceTop) and are backed by one
// flat buffer. copy_to_user/copy_from_user perform the access_ok() check;
// the *_unchecked variants are the __copy_* family whose callers must check
// — the RDS module's missing check (CVE-2010-3904) is a call to the
// unchecked variant with an attacker-controlled destination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/kernel/ksymtab.h"
#include "src/kernel/types.h"

namespace kern {

class UserSpace {
 public:
  UserSpace() : mem_(kUserSpaceTop, 0) {}

  bool AccessOk(uintptr_t uaddr, size_t len) const {
    return uaddr < kUserSpaceTop && len <= kUserSpaceTop - uaddr;
  }

  // access_ok-checked accessors; return -EFAULT on bad addresses.
  int CopyToUser(uintptr_t dst_uaddr, const void* src, size_t len);
  int CopyFromUser(void* dst, uintptr_t src_uaddr, size_t len);

  // __copy_to_user: NO access_ok. A kernel destination address is written
  // raw — this is the arbitrary-kernel-write primitive of CVE-2010-3904.
  int CopyToUserUnchecked(uintptr_t dst_addr, const void* src, size_t len);

  // Direct view of backing storage for user-side test setup.
  uint8_t* UserPtr(uintptr_t uaddr) { return mem_.data() + uaddr; }
  const uint8_t* UserPtr(uintptr_t uaddr) const { return mem_.data() + uaddr; }

 private:
  std::vector<uint8_t> mem_;
};

inline constexpr KernelSymbol<int(uintptr_t dst, const void* src, size_t n)> kCopyToUser{
    "copy_to_user"};
inline constexpr KernelSymbol<int(void* dst, uintptr_t src, size_t n)> kCopyFromUser{
    "copy_from_user"};
inline constexpr KernelSymbol<int(uintptr_t dst, const void* src, size_t n)>
    kCopyToUserUnchecked{"__copy_to_user"};

}  // namespace kern
