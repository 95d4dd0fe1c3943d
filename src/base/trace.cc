#include "src/base/trace.h"

#include <algorithm>

namespace lxfi {

const char* TraceEventName(TraceEvent event) {
  // In TraceEvent order.
  static constexpr const char* kNames[] = {
      "none", "guard-enter", "guard-exit", "violation", "cap-grant", "cap-revoke", "cap-transfer",
      "epoch-bump", "epoch-retire", "epoch-reclaim", "module-load", "module-unload",
      "principal-create", "principal-drop", "principal-alias", "heap-seal", "dcache-hit",
      "dcache-miss", "dcache-retry", "pagecache-hit", "pagecache-miss", "bio-submit",
      "bio-complete", "quarantine", "microreboot", "reboot-failed", "arena-fallback"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(TraceEvent::kCount));
  auto i = static_cast<size_t>(event);
  return i < static_cast<size_t>(TraceEvent::kCount) ? kNames[i] : "?";
}

uint32_t MintPrincipalTraceId() {
  // Process-wide like RevocationEpoch: trace ids must stay unique across
  // runtimes so a merged trace stream attributes unambiguously.
  static std::atomic<uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

TraceBuffer& TraceBuffer::Global() {
  static TraceBuffer instance;
  return instance;
}

template <typename Take>
size_t TraceBuffer::DrainWith(size_t max, Take take) {
  SpinGuard guard(drain_mu_);
  const TickLine line = TickCalibration::Global().Reanchor();
  size_t drained = 0;
  for (Shard& shard : shards_) {
    // Acquire the head once: everything the writer published before that
    // store is visible. Records appended after this snapshot wait for the
    // next drain — the epoch-safe cut.
    uint64_t head = shard.head.load(std::memory_order_acquire);
    uint64_t tail = shard.tail.load(std::memory_order_relaxed);
    for (; tail != head && drained < max; ++tail, ++drained) {
      TraceRecord rec = shard.slots[tail & (kRingCapacity - 1)];
      rec.ts_ns = shard.last_ns = std::max(line.ToNs(rec.ts_ns), shard.last_ns);
      take(rec);
    }
    // Release the tail: the writer's acquire load sees the slots are free
    // only after our reads of them completed.
    shard.tail.store(tail, std::memory_order_release);
  }
  return drained;
}

size_t TraceBuffer::Drain(std::vector<TraceRecord>* out) {
  return DrainWith(SIZE_MAX, [out](const TraceRecord& rec) { out->push_back(rec); });
}

size_t TraceBuffer::DrainInto(TraceRecord* out, size_t max) {
  return DrainWith(max, [&out](const TraceRecord& rec) { *out++ = rec; });
}

void TraceBuffer::ResetForTest() {
  SpinGuard guard(drain_mu_);
  for (Shard& shard : shards_) {
    shard.tail.store(shard.head.load(std::memory_order_acquire), std::memory_order_release);
    shard.drops = 0;
  }
}

}  // namespace lxfi
