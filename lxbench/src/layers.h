// Per-layer counters, read only through the system's existing public
// accessors (GuardStats, LxfiStats::Collect, Runtime, Dcache, PageCache,
// Vfs, Containment, TraceBuffer, SlabAllocator, NicHw, NetStack,
// NetDevice), snapshotted around the traced run's count window.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "lxbench/src/workload.h"

namespace lxbench {

struct PrincipalCounts {
  uint64_t crossings = 0;
  uint64_t crossing_ns = 0;
  uint64_t write_checks = 0;
  uint64_t write_memo_hits = 0;
  uint64_t arena_span_hits = 0;
  uint64_t call_checks = 0;
  uint64_t call_memo_hits = 0;
  uint64_t pre_checks = 0;
  uint64_t pre_memo_hits = 0;
  uint64_t arena_fallbacks = 0;
};

struct Snapshot {
  // GuardStats by lxfi::GuardType.
  uint64_t guard[8] = {};
  // LxfiStats rows keyed by (principal name, trace id): a principal that
  // is dropped or reloaded inside the window is a different key.
  std::map<std::pair<std::string, uint32_t>, PrincipalCounts> principals;
  uint64_t revokes = 0;
  uint64_t violations = 0;
  uint64_t lookup_dispatches = 0;
  uint64_t dcache_negative_hits = 0;
  uint64_t dcache_retries = 0;
  uint64_t filters = 0;
  uint64_t pc_hits = 0;
  uint64_t pc_misses = 0;
  uint64_t pc_writebacks = 0;
  uint64_t pc_io_errors = 0;
  uint64_t slab_live = 0;
  uint64_t slab_pages = 0;
  uint64_t modules_live = 0;
  uint64_t quarantines = 0;
  uint64_t reboots = 0;
  uint64_t retired = 0;
  uint64_t backoff_ns = 0;
  uint64_t trace_drops = 0;
  uint64_t rx_drops = 0;
  uint64_t backlog_drops = 0;
  uint64_t tx_busy = 0;
  uint64_t tx_packets = 0;
  WorkloadCounts workload;
};

Snapshot TakeSnapshot(const Workload& w);

// Sums `after - before` over the principals present in both snapshots.
PrincipalCounts SurvivorDelta(const Snapshot& before, const Snapshot& after);

}  // namespace lxbench
