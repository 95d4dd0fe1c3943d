#include "src/kernel/timer.h"

#include <algorithm>

#include "src/kernel/kernel.h"

namespace kern {

void TimerWheel::RemoveEntry(TimerList* timer) {
  for (auto it = heap_.begin(); it != heap_.end(); ++it) {
    if (it->timer == timer) {
      heap_.erase(it);
      std::make_heap(heap_.begin(), heap_.end(), Later);
      return;
    }
  }
}

int TimerWheel::ModTimer(TimerList* timer, uint64_t expires) {
  int was_pending = timer->pending ? 1 : 0;
  if (timer->pending) {
    RemoveEntry(timer);  // rearm replaces the entry; never two per timer
  }
  timer->expires = expires;
  timer->pending = true;
  heap_.push_back(HeapEntry{expires, next_seq_++, timer});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  return was_pending;
}

int TimerWheel::DelTimer(TimerList* timer) {
  if (!timer->pending) {
    return 0;
  }
  timer->pending = false;
  RemoveEntry(timer);
  return 1;
}

int TimerWheel::Advance(uint64_t ticks) {
  now_ += ticks;
  // Pop the expired prefix first: handlers may rearm (mod_timer)
  // reentrantly, and a rearm during dispatch must not perturb this tick's
  // firing set. The heap pops in (expires, seq) order, so firing is
  // deadline-ordered with FIFO tie-break.
  std::vector<TimerList*> expired;
  while (!heap_.empty() && heap_.front().expires <= now_) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    TimerList* timer = heap_.back().timer;
    heap_.pop_back();
    timer->pending = false;
    expired.push_back(timer);
  }
  int fired = 0;
  for (TimerList* timer : expired) {
    // The home slot is the timer's own function field — module-writable
    // memory, so the writer-set full check applies (§4.1).
    kernel_->IndirectCall(&timer->function, kTimerFn, timer->data);
    ++fired;
  }
  return fired;
}

TimerWheel* GetTimerWheel(Kernel* kernel) { return kernel->EnsureSubsystem<TimerWheel>(kernel); }

}  // namespace kern
