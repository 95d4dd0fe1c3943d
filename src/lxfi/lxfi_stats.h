// Per-principal metrics registry (lxfi_stats).
//
// The raw material lives in the per-(CPU, principal) EnforcementContext
// shards the enforcement hot paths already touch: guard counters, memo hit
// rates, and — when collection is enabled — crossing counts with a log2
// latency histogram (updated by Runtime::WrapperExit against the attributed
// principal's shard, so the hot path gains no new cache misses). This file
// is the read side: a quiescent snapshot walk over every module's
// principals, summed across shards, plus a JSON dump in the shared bench
// schema ({"bench": tag, "results": [...]}) so CI merges it into
// bench_results.json, and so the lxfi_stats kernel export can hand it to a
// monitoring module under enforcement.
//
// Enable gate: same static-key discipline as TRACE_EVENT — one relaxed
// load + predictable branch per crossing when off (timing costs two clock
// reads per crossing when on, which is why it is not always-on).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/types.h"
#include "src/lxfi/enforcement_context.h"

namespace lxfi {

// A monitoring module's (statmon's) poll entry point.
inline constexpr kern::FnPtrType<long(void* arg)> kStatmonPoll{"statmon::poll"};

// Observability exports: read-only snapshots copied into a module-supplied
// buffer the annotation has verified the module may WRITE (the
// copy_from_user pattern). lxfi_stats fills a NUL-terminated JSON snapshot
// and returns the full length; lxfi_trace_read drains whole TraceRecords and
// returns the record count.
inline constexpr kern::KernelSymbol<long(char* buf, size_t bytes)> kLxfiStats{"lxfi_stats"};
inline constexpr kern::KernelSymbol<long(void* buf, size_t bytes)> kLxfiTraceRead{
    "lxfi_trace_read"};

class Runtime;

class LxfiStats {
 public:
  static bool EnabledRelaxed() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_seq_cst); }

  // One principal's metrics, summed over its per-CPU shards. Not a
  // linearizable snapshot (RelaxedCell discipline); read after a barrier /
  // join for exact totals, like every other stats surface here.
  struct PrincipalMetrics {
    std::string name;
    uint32_t id = 0;
    uint64_t crossings = 0;
    uint64_t crossing_ns = 0;
    uint64_t hist[EnforcementContext::kCrossingHistBuckets] = {};
    uint64_t write_checks = 0;
    uint64_t write_memo_hits = 0;
    uint64_t arena_span_hits = 0;
    uint64_t call_checks = 0;
    uint64_t call_memo_hits = 0;
    uint64_t pre_checks = 0;
    uint64_t pre_memo_hits = 0;
    // Allocations that fell back to the shared heap because the principal's
    // partition slot was exhausted (each one is also a kArenaFallback trace
    // event and a containment revocation).
    uint64_t arena_fallbacks = 0;
  };

  static std::vector<PrincipalMetrics> Collect(const Runtime& rt);

  // JSON snapshot: one "principal:<name>" row per principal, then one row
  // per prefix of rt.kernel()->counters().Snapshot() ("guard", "pagecache",
  // ...), each counter a field. `tag` becomes the "bench" key so --stats
  // artifacts merge cleanly next to throughput rows.
  static std::string DumpJson(const Runtime& rt, const std::string& tag = kLxfiStats.name);

 private:
  static inline std::atomic<bool> enabled_{false};
};

}  // namespace lxfi
