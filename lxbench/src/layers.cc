#include "lxbench/src/layers.h"

#include "src/base/trace.h"
#include "src/kernel/fs/pagecache.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/nicsim.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/guards.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"

namespace lxbench {

static_assert(static_cast<int>(lxfi::GuardType::kCount) <= 8, "Snapshot::guard too small");

Snapshot TakeSnapshot(const Workload& w) {
  const LayerHandles h = w.handles();
  Snapshot s;
  s.workload = w.counts();
  kern::Kernel* k = h.kernel;
  s.slab_live = k->slab().live_objects();
  s.slab_pages = k->slab().pages_allocated();
  for (const auto& m : k->modules()) {
    s.modules_live += m->state() == kern::ModuleState::kLive ? 1 : 0;
  }
  if (h.rt != nullptr) {
    for (int g = 0; g < static_cast<int>(lxfi::GuardType::kCount); ++g) {
      s.guard[g] = h.rt->guards().count(static_cast<lxfi::GuardType>(g));
    }
    for (const auto& pm : lxfi::LxfiStats::Collect(*h.rt)) {
      PrincipalCounts& pc = s.principals[{pm.name, pm.id}];
      pc.crossings = pm.crossings;
      pc.crossing_ns = pm.crossing_ns;
      pc.write_checks = pm.write_checks;
      pc.write_memo_hits = pm.write_memo_hits;
      pc.arena_span_hits = pm.arena_span_hits;
      pc.call_checks = pm.call_checks;
      pc.call_memo_hits = pm.call_memo_hits;
      pc.pre_checks = pm.pre_checks;
      pc.pre_memo_hits = pm.pre_memo_hits;
      pc.arena_fallbacks = pm.arena_fallbacks;
    }
    s.revokes = h.rt->revoke_everywhere_count();
    s.violations = h.rt->violation_count();
  }
  if (h.vfs != nullptr) {
    s.lookup_dispatches = h.vfs->lookup_dispatches();
    s.dcache_negative_hits = h.vfs->dcache().negative_hits();
    s.dcache_retries = h.vfs->dcache().seqlock_retries();
    s.filters = h.vfs->filters().count();
  }
  // GetSubsystem, not GetPageCache: reading a counter must not create the
  // page cache on a kernel that has none.
  if (const kern::PageCache* pc = k->GetSubsystem<kern::PageCache>()) {
    s.pc_hits = pc->hits();
    s.pc_misses = pc->misses();
    s.pc_writebacks = pc->writebacks();
    s.pc_io_errors = pc->io_errors();
  }
  if (h.containment != nullptr) {
    s.quarantines = h.containment->quarantines();
    s.reboots = h.containment->reboots();
    s.retired = h.containment->retired();
    s.backoff_ns = h.containment->backoff_ns();
  }
  s.trace_drops = lxfi::TraceBuffer::Global().TotalDrops();
  if (h.nic != nullptr) {
    s.rx_drops = h.nic->rx_drops();
  }
  if (h.stack != nullptr) {
    s.backlog_drops = h.stack->backlog_drops();
  }
  if (h.netdev != nullptr) {
    s.tx_busy = h.netdev->tx_busy;
    s.tx_packets = h.netdev->tx_packets;
  }
  return s;
}

PrincipalCounts SurvivorDelta(const Snapshot& before, const Snapshot& after) {
  PrincipalCounts d;
  for (const auto& [key, a] : after.principals) {
    auto it = before.principals.find(key);
    if (it == before.principals.end()) {
      continue;
    }
    const PrincipalCounts& b = it->second;
    d.crossings += a.crossings - b.crossings;
    d.crossing_ns += a.crossing_ns - b.crossing_ns;
    d.write_checks += a.write_checks - b.write_checks;
    d.write_memo_hits += a.write_memo_hits - b.write_memo_hits;
    d.arena_span_hits += a.arena_span_hits - b.arena_span_hits;
    d.call_checks += a.call_checks - b.call_checks;
    d.call_memo_hits += a.call_memo_hits - b.call_memo_hits;
    d.pre_checks += a.pre_checks - b.pre_checks;
    d.pre_memo_hits += a.pre_memo_hits - b.pre_memo_hits;
    d.arena_fallbacks += a.arena_fallbacks - b.arena_fallbacks;
  }
  return d;
}

}  // namespace lxbench
