// Compiler helpers shared across the project.
#pragma once

#include <cstddef>
#include <cstdint>
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#define LXFI_LIKELY(x) (__builtin_expect(!!(x), 1))
#define LXFI_UNLIKELY(x) (__builtin_expect(!!(x), 0))
#define LXFI_ALWAYS_INLINE inline __attribute__((always_inline))
#define LXFI_NOINLINE __attribute__((noinline))

namespace lxfi {

inline constexpr std::size_t kCacheLineSize = 64;

// ASan's detect_stack_use_after_return moves locals into a per-thread heap
// "fake stack"; a live frame there is still the calling thread's stack.
inline bool OnSanitizerFakeStack([[maybe_unused]] uintptr_t addr, [[maybe_unused]] size_t size) {
#if defined(__SANITIZE_ADDRESS__)
  void* end = nullptr;
  return __asan_addr_is_in_fake_stack(__asan_get_current_fake_stack(),
                                      reinterpret_cast<void*>(addr), nullptr, &end) != nullptr &&
         addr + size <= reinterpret_cast<uintptr_t>(end);
#else
  return false;
#endif
}

}  // namespace lxfi
