// Guard accounting (Figure 13).
//
// Every runtime check ("guard") increments a counter by type; when timing is
// enabled the runtime also accumulates real nanoseconds per guard type, which
// is how bench_guards reproduces the paper's guards-per-packet and
// time-per-guard breakdown for the UDP_STREAM TX workload.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/base/clock.h"
#include "src/base/compiler.h"
#include "src/base/sync.h"

namespace lxfi {

enum class GuardType : int {
  kAnnotationAction = 0,  // copy/transfer/check action executed
  kFunctionEntry,         // wrapper entry (shadow push, principal switch)
  kFunctionExit,          // wrapper exit (shadow pop/validate)
  kMemWrite,              // module store check
  kIndCallAll,            // kernel indirect-call guard, any outcome
  kIndCallFull,           // kernel indirect-call guard that took the slow path
  kIndCallModule,         // indirect calls whose target is module text
                          // (Figure 13's "Kernel ind-call e1000" row)
  kCount,
};

const char* GuardTypeName(GuardType type);

// Sharded per-CPU: each simulated CPU increments its own cache-line-aligned
// shard (plain single-writer increments — no lock prefix, so single-core
// cost is identical to the flat array this replaced), and readers sum
// shards. Aggregation reads are race-free (RelaxedCell) but not a
// linearizable snapshot; callers read after a CpuSet barrier for exact
// totals, which is what every bench and eval harness does.
class GuardStats {
 public:
  // Reset never writes the shards (a plain store racing a shard owner's
  // RelaxedCell increment would lose updates and resurrect pre-reset
  // counts). Instead it snapshots the current per-type totals as baselines;
  // count()/time_ns() report the raw sum minus the baseline. Concurrent
  // increments therefore stay single-writer-per-shard, and Reset() is safe
  // from any thread at any time — the TSan regression test in trace_test.cc
  // storms it against shard writers.
  void Reset() {
    for (size_t i = 0; i < static_cast<size_t>(GuardType::kCount); ++i) {
      auto type = static_cast<GuardType>(i);
      base_counts_[i].store(raw_count(type), std::memory_order_relaxed);
      base_time_ns_[i].store(raw_time_ns(type), std::memory_order_relaxed);
    }
  }

  void Count(GuardType type) { ++shards_[ThisShardIndex()].counts[static_cast<size_t>(type)]; }
  void AddTime(GuardType type, uint64_t ns) {
    shards_[ThisShardIndex()].time_ns[static_cast<size_t>(type)].Add(ns);
  }

  uint64_t count(GuardType type) const {
    return Since(raw_count(type), base_counts_[static_cast<size_t>(type)]);
  }
  uint64_t time_ns(GuardType type) const {
    return Since(raw_time_ns(type), base_time_ns_[static_cast<size_t>(type)]);
  }

  double MeanNs(GuardType type) const {
    uint64_t n = count(type);
    return n == 0 ? 0.0 : static_cast<double>(time_ns(type)) / static_cast<double>(n);
  }

  uint64_t TotalTimeNs() const {
    uint64_t t = 0;
    for (size_t i = 0; i < static_cast<size_t>(GuardType::kCount); ++i) {
      t += time_ns(static_cast<GuardType>(i));
    }
    return t;
  }

  bool timing_enabled = false;

  std::string Report() const;

 private:
  struct alignas(kCacheLineSize) Shard {
    std::array<RelaxedCell, static_cast<size_t>(GuardType::kCount)> counts;
    std::array<RelaxedCell, static_cast<size_t>(GuardType::kCount)> time_ns;
  };

  uint64_t raw_count(GuardType type) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.counts[static_cast<size_t>(type)];
    }
    return total;
  }
  uint64_t raw_time_ns(GuardType type) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.time_ns[static_cast<size_t>(type)];
    }
    return total;
  }
  // Clamped subtraction: a raw sum read concurrently with shard increments
  // is not a linearizable snapshot, so a baseline captured "later" can
  // momentarily exceed a raw sum read across racing shards. Reporting 0
  // beats underflowing to ~2^64.
  static uint64_t Since(uint64_t raw, const std::atomic<uint64_t>& base) {
    uint64_t b = base.load(std::memory_order_relaxed);
    return raw > b ? raw - b : 0;
  }

  std::array<Shard, kMaxCpuShards> shards_;
  std::array<std::atomic<uint64_t>, static_cast<size_t>(GuardType::kCount)> base_counts_{};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(GuardType::kCount)> base_time_ns_{};
};

// RAII guard accounting, resolved at compile time per instantiation:
//
//   GuardScope<false> — counter-only. One increment, empty destructor, no
//     clock reads and no per-guard branch; this is what every enforcement
//     hot path instantiates when guard_timing is off.
//   GuardScope<true>  — counts and accumulates wall time (the two clock
//     reads Figure 13 needs).
//
// Call sites branch once on GuardStats::timing_enabled and run the whole
// check body under the matching instantiation, instead of paying a
// timing_enabled test in both the constructor and destructor of every guard
// (the layout this replaced).
template <bool kTimed>
class GuardScope;

template <>
class GuardScope<false> {
 public:
  GuardScope(GuardStats* stats, GuardType type) { stats->Count(type); }

  GuardScope(const GuardScope&) = delete;
  GuardScope& operator=(const GuardScope&) = delete;
};

template <>
class GuardScope<true> {
 public:
  GuardScope(GuardStats* stats, GuardType type)
      : stats_(stats), type_(type), start_(MonotonicNowNs()) {
    stats_->Count(type_);
  }
  ~GuardScope() { stats_->AddTime(type_, MonotonicNowNs() - start_); }

  GuardScope(const GuardScope&) = delete;
  GuardScope& operator=(const GuardScope&) = delete;

 private:
  GuardStats* stats_;
  GuardType type_;
  uint64_t start_;
};

// Runtime-dispatched variant for paths that already do heap or string work
// per guard (annotation actions), where splitting timed/untimed bodies buys
// nothing. Counts always; times only when enabled.
class GuardScopeDyn {
 public:
  GuardScopeDyn(GuardStats* stats, GuardType type) : stats_(stats), type_(type) {
    stats_->Count(type_);
    if (stats_->timing_enabled) {
      start_ = MonotonicNowNs();
    }
  }
  ~GuardScopeDyn() {
    if (start_ != 0) {
      stats_->AddTime(type_, MonotonicNowNs() - start_);
    }
  }

  GuardScopeDyn(const GuardScopeDyn&) = delete;
  GuardScopeDyn& operator=(const GuardScopeDyn&) = delete;

 private:
  GuardStats* stats_;
  GuardType type_;
  uint64_t start_ = 0;
};

}  // namespace lxfi
