// Kernel timers (timer_list / mod_timer / del_timer).
//
// Another kernel interface that stores module-provided function pointers in
// module-writable memory and invokes them later from trusted context — the
// same shape the paper's indirect-call check exists for. The wheel is
// tick-driven: tests and harnesses advance it explicitly.
//
// Pending timers live in a binary min-heap keyed on (expires, arm order), so
// Advance pops exactly the expired prefix in deadline order (FIFO among
// equal deadlines) instead of scanning every pending timer per tick. Each
// pending timer has exactly one heap entry: rearm and delete eagerly remove
// the old entry (O(n), rare control-plane events), keeping the per-tick pop
// O(log n) and leaving no stale entries that could dangle after a module
// frees a cancelled timer.
#pragma once

#include <cstdint>
#include <vector>

#include "src/kernel/types.h"

namespace kern {

class Kernel;

// Lives in module (or kernel) memory; `function` is a text address of type
// kTimerFn.
struct TimerList {
  uintptr_t function = 0;
  void* data = nullptr;
  uint64_t expires = 0;  // absolute tick
  bool pending = false;
};
inline constexpr FnPtrType<void(void* data)> kTimerFn{"timer_fn"};

class TimerWheel {
 public:
  explicit TimerWheel(Kernel* kernel) : kernel_(kernel) {}

  uint64_t now() const { return now_; }

  // mod_timer: (re)arms the timer for absolute tick `expires`. Returns 1 if
  // it was already pending (rearm), 0 otherwise, like Linux.
  int ModTimer(TimerList* timer, uint64_t expires);

  // del_timer: returns 1 if the timer was pending.
  int DelTimer(TimerList* timer);

  // Advances time by `ticks`, firing expired timers through the checked
  // indirect-call path in deadline order (arm order among ties). Returns
  // the number fired.
  int Advance(uint64_t ticks);

  size_t pending_count() const { return heap_.size(); }

 private:
  struct HeapEntry {
    uint64_t expires;
    uint64_t seq;  // arm order: deterministic FIFO among equal deadlines
    TimerList* timer;
  };
  // Max-heap comparator inverted into a min-heap on (expires, seq).
  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    return a.expires != b.expires ? a.expires > b.expires : a.seq > b.seq;
  }
  // Removes the (single) heap entry of `timer`; restores the heap property.
  void RemoveEntry(TimerList* timer);

  Kernel* kernel_;
  uint64_t now_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<HeapEntry> heap_;
};

TimerWheel* GetTimerWheel(Kernel* kernel);

inline constexpr KernelSymbol<int(TimerList*, uint64_t expires)> kModTimer{"mod_timer"};
inline constexpr KernelSymbol<int(TimerList*)> kDelTimer{"del_timer"};

}  // namespace kern
