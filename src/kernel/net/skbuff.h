// sk_buff: the Linux network packet representation, reduced to the fields
// the paper's contracts talk about (§2.2 "data structure integrity"): a
// header struct plus a separately-allocated payload that `data`/`len` point
// into. Both pieces live in slab memory so WRITE capabilities cover them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/kernel/types.h"

namespace kern {

class Kernel;

struct SkBuff {
  uint8_t* head = nullptr;  // start of the payload buffer
  uint8_t* data = nullptr;  // current packet start (head + headroom)
  uint32_t len = 0;         // bytes of packet data at `data`
  uint32_t capacity = 0;    // bytes allocated at `head`
  uint16_t protocol = 0;    // ethertype-like demux key
  int ifindex = -1;         // receiving device index
  SkBuff* next = nullptr;   // intrusive queue link
};

// alloc_skb(): allocates header + payload from the kernel slab; returns
// nullptr on exhaustion. `headroom` reserves space before data.
SkBuff* AllocSkb(Kernel* kernel, uint32_t size, uint32_t headroom = 0);

// kfree_skb(): frees payload then header.
void FreeSkb(Kernel* kernel, SkBuff* skb);

// skb_put(): extends the data area by len bytes and returns the old tail.
uint8_t* SkbPut(SkBuff* skb, uint32_t len);

// Simple FIFO of sk_buffs using the intrusive next pointer.
struct SkBuffQueue {
  SkBuff* head = nullptr;
  SkBuff* tail = nullptr;
  size_t count = 0;

  void Push(SkBuff* skb);
  SkBuff* Pop();
  bool empty() const { return head == nullptr; }
};

inline constexpr KernelSymbol<SkBuff*(uint32_t size)> kAllocSkb{"alloc_skb"};
inline constexpr KernelSymbol<void(SkBuff*)> kKfreeSkb{"kfree_skb"};
inline constexpr KernelSymbol<uint8_t*(SkBuff*, uint32_t len)> kSkbPut{"skb_put"};

}  // namespace kern
