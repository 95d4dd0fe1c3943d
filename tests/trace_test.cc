// lxfi-trace: trace-ring integrity, static-key gating, per-principal
// metrics differential, violation flight recorder, the per-CPU counter
// storm, and the kernel counter registry (snapshot vs accessors, lifetime,
// DumpJson golden).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/counters.h"
#include "src/base/trace.h"
#include "src/eval/fsperf.h"
#include "src/kernel/fs/pagecache.h"
#include "src/kernel/fs/vfs.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/wrap.h"
#include "tests/testbench.h"

namespace {

constexpr kern::FnPtrType<void(void* arg)> kStatTick{"stat_ops::tick"};

using lxfi::TraceBuffer;
using lxfi::TraceEvent;
using lxfi::TraceRecord;
using lxfitest::Bench;

// --- static-key gate ---------------------------------------------------------

TEST(TraceGate, DisabledTracepointEvaluatesNoArguments) {
  TraceBuffer& tb = TraceBuffer::Global();
  tb.ResetForTest();
  lxfi::TraceBuffer::SetEnabled(false);
  int evals = 0;
  auto bump = [&evals]() -> uint64_t {
    ++evals;
    return 1;
  };
  TRACE_EVENT(TraceEvent::kGuardEnter, 0, bump(), bump());
  EXPECT_EQ(evals, 0) << "disabled tracepoints must not evaluate arguments";
  std::vector<TraceRecord> out;
  EXPECT_EQ(tb.Drain(&out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tb.TotalDrops(), 0u);
}

TEST(TraceGate, EnabledTracepointLandsOneRecord) {
  TraceBuffer& tb = TraceBuffer::Global();
  tb.ResetForTest();
  lxfi::TraceBuffer::SetEnabled(true);
  TRACE_EVENT(TraceEvent::kCapGrant, 42, 0x1000, 64);
  lxfi::TraceBuffer::SetEnabled(false);
  std::vector<TraceRecord> out;
  ASSERT_EQ(tb.Drain(&out), 1u);
  EXPECT_EQ(out[0].event, static_cast<uint16_t>(TraceEvent::kCapGrant));
  EXPECT_EQ(out[0].principal, 42u);
  EXPECT_EQ(out[0].cpu, 0u);
  EXPECT_EQ(out[0].arg0, 0x1000u);
  EXPECT_EQ(out[0].arg1, 64u);
  EXPECT_GT(out[0].ts_ns, 0u);
  tb.ResetForTest();
}

// --- ring protocol: drop-never-overwrite, exact accounting -------------------

TEST(TraceRing, FullRingDropsAndCountsExactly) {
  TraceBuffer& tb = TraceBuffer::Global();
  tb.ResetForTest();
  const uint64_t extra = 100;
  for (uint64_t i = 0; i < TraceBuffer::kRingCapacity + extra; ++i) {
    tb.Emit(TraceEvent::kGuardEnter, 7, i, ~i);
  }
  EXPECT_EQ(tb.drops(0), extra);
  std::vector<TraceRecord> out;
  ASSERT_EQ(tb.Drain(&out), TraceBuffer::kRingCapacity);
  // A full ring keeps the oldest records (drop-newest): the drained stream
  // is exactly the first kRingCapacity emissions, in order.
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].arg0, i);
    ASSERT_EQ(out[i].arg1, ~static_cast<uint64_t>(i));
  }
  // Drained tail frees space again.
  tb.Emit(TraceEvent::kGuardExit, 7, 999, 0);
  out.clear();
  ASSERT_EQ(tb.Drain(&out), 1u);
  EXPECT_EQ(out[0].arg0, 999u);
  tb.ResetForTest();
}

TEST(TraceRing, DrainIntoRespectsCallerCapacity) {
  TraceBuffer& tb = TraceBuffer::Global();
  tb.ResetForTest();
  for (uint64_t i = 0; i < 10; ++i) {
    tb.Emit(TraceEvent::kBioSubmit, 0, i, 0);
  }
  TraceRecord buf[4];
  EXPECT_EQ(tb.DrainInto(buf, 4), 4u);
  EXPECT_EQ(tb.DrainInto(buf, 4), 4u);
  EXPECT_EQ(tb.DrainInto(buf, 4), 2u);
  EXPECT_EQ(tb.DrainInto(buf, 4), 0u);
  tb.ResetForTest();
}

// --- the 3-CPU storm: writers vs a concurrently draining reader --------------
//
// Each writer owns one shard and emits a self-checking payload
// (arg1 = arg0 ^ per-shard magic). The reader drains concurrently the whole
// time. Afterwards every drained record must be untorn, per-shard sequence
// numbers strictly increasing, and drained + dropped must equal emitted
// exactly. Run under TSan this is the data-race regression for the SPSC
// head/tail protocol.
TEST(TraceStorm, ThreeWritersOneDrainerZeroTornExactDrops) {
  TraceBuffer& tb = TraceBuffer::Global();
  tb.ResetForTest();
  constexpr int kWriters = 3;
  constexpr uint64_t kPerWriter = 60000;
  constexpr uint64_t kMagic[kWriters + 1] = {0, 0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full,
                                             0x165667b19e3779f9ull};

  std::atomic<bool> writers_done{false};
  std::vector<TraceRecord> drained;
  std::thread reader([&] {
    std::vector<TraceRecord> batch;
    while (!writers_done.load(std::memory_order_acquire)) {
      batch.clear();
      tb.Drain(&batch);
      drained.insert(drained.end(), batch.begin(), batch.end());
    }
    batch.clear();
    tb.Drain(&batch);
    drained.insert(drained.end(), batch.begin(), batch.end());
  });

  std::vector<std::thread> writers;
  for (int w = 1; w <= kWriters; ++w) {
    writers.emplace_back([&tb, w, &kMagic] {
      lxfi::SetThisShardIndex(w);
      for (uint64_t seq = 0; seq < kPerWriter; ++seq) {
        tb.Emit(TraceEvent::kGuardEnter, static_cast<uint32_t>(w), seq, seq ^ kMagic[w]);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  writers_done.store(true, std::memory_order_release);
  reader.join();

  uint64_t count[kWriters + 1] = {};
  int64_t prev_seq[kWriters + 1] = {-1, -1, -1, -1};
  uint64_t torn = 0;
  uint64_t out_of_order = 0;
  for (const TraceRecord& r : drained) {
    ASSERT_GE(r.cpu, 1);
    ASSERT_LE(r.cpu, kWriters);
    if (r.event != static_cast<uint16_t>(TraceEvent::kGuardEnter) || r.principal != r.cpu ||
        r.arg1 != (r.arg0 ^ kMagic[r.cpu])) {
      ++torn;
    }
    if (static_cast<int64_t>(r.arg0) <= prev_seq[r.cpu]) {
      ++out_of_order;
    }
    prev_seq[r.cpu] = static_cast<int64_t>(r.arg0);
    ++count[r.cpu];
  }
  EXPECT_EQ(torn, 0u) << "drained a torn record";
  EXPECT_EQ(out_of_order, 0u) << "per-shard order not preserved";
  for (int w = 1; w <= kWriters; ++w) {
    EXPECT_EQ(count[w] + tb.drops(w), kPerWriter)
        << "shard " << w << ": drained + dropped must equal emitted exactly";
  }
  tb.ResetForTest();
}

// --- differential: per-principal crossings vs GuardStats ---------------------

uint64_t TotalCrossings(const lxfi::Runtime& rt) {
  uint64_t total = 0;
  for (const auto& pm : lxfi::LxfiStats::Collect(rt)) {
    total += pm.crossings;
  }
  return total;
}

// On a clean fixed workload with metrics enabled throughout, every wrapper
// exit both bumps GuardStats kFunctionExit and attributes one crossing to a
// principal — so the two totals move in lockstep. This pins the metrics
// registry to the guard counters it claims to refine.
TEST(LxfiStatsDifferential, CrossingsMatchFunctionExitGuards) {
  lxfi::LxfiStats::SetEnabled(true);
  Bench bench(/*isolated=*/true);
  lxfi::Runtime* rt = bench.rt.get();
  ASSERT_TRUE(rt->annotations().Register(kStatTick.name, {"arg"}, "").ok());
  int hits = 0;
  kern::ModuleDef def;
  def.name = "diffmod";
  def.data_size = 16;
  def.imports = {kern::kPrintk};
  def.functions = {lxfi::DeclareFunction("tick", kStatTick, [&hits](void*) { ++hits; })};
  def.init = [](kern::Module&) { return 0; };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  auto* slot = static_cast<uintptr_t*>(m->data());
  *slot = m->FuncAddr("tick");

  const uint64_t exits_before = rt->guards().count(lxfi::GuardType::kFunctionExit);
  const uint64_t crossings_before = TotalCrossings(*rt);
  constexpr int kCalls = 257;
  for (int i = 0; i < kCalls; ++i) {
    bench.kernel->IndirectCall(slot, kStatTick, nullptr);
  }
  EXPECT_EQ(hits, kCalls);
  const uint64_t exits = rt->guards().count(lxfi::GuardType::kFunctionExit) - exits_before;
  const uint64_t crossings = TotalCrossings(*rt) - crossings_before;
  EXPECT_GE(exits, static_cast<uint64_t>(kCalls));
  EXPECT_EQ(crossings, exits)
      << "per-principal crossing totals must equal the kFunctionExit guard count";

  // Histogram conservation: every counted crossing lands in exactly one
  // latency bucket, and its nanoseconds are accounted.
  for (const auto& pm : lxfi::LxfiStats::Collect(*rt)) {
    uint64_t hist_total = 0;
    for (uint64_t b : pm.hist) {
      hist_total += b;
    }
    EXPECT_EQ(hist_total, pm.crossings) << pm.name;
  }

  std::string json = lxfi::LxfiStats::DumpJson(*rt);
  EXPECT_NE(json.find("\"bench\": \"lxfi_stats\""), std::string::npos) << json;
  EXPECT_NE(json.find("principal:"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"name\": \"guard\", \"annotation-action\": "), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"function-exit\": " +
                      std::to_string(rt->guards().count(lxfi::GuardType::kFunctionExit))),
            std::string::npos)
      << json;
  lxfi::LxfiStats::SetEnabled(false);
}

// --- violation flight recorder -----------------------------------------------

TEST(FlightRecorder, BoundedRingKeepsExactTotalAndLastN) {
  lxfi::RuntimeOptions options;
  options.policy = lxfi::ViolationPolicy::kCount;
  Bench bench(/*isolated=*/true, options);
  lxfi::Runtime* rt = bench.rt.get();

  constexpr uint64_t kTotal = 150;  // > 2x the ring
  for (uint64_t i = 0; i < kTotal; ++i) {
    rt->RaiseViolation(lxfi::ViolationKind::kWrite, "probe " + std::to_string(i), 0x1000 + i);
  }
  EXPECT_EQ(rt->violation_count(), kTotal);
  auto v = rt->violations();
  ASSERT_EQ(v.size(), lxfi::Runtime::kViolationRingSize);
  EXPECT_EQ(v.front().seq, kTotal - lxfi::Runtime::kViolationRingSize + 1);
  EXPECT_EQ(v.back().seq, kTotal);
  EXPECT_EQ(v.back().details, "probe " + std::to_string(kTotal - 1));
  EXPECT_EQ(v.back().fault_addr, 0x1000 + kTotal - 1);
  EXPECT_EQ(v.back().kind, lxfi::ViolationKind::kWrite);

  // ClearViolations moves the visible baseline but never the sequence (the
  // ExecGuards pre-memo protocol depends on monotonicity).
  rt->ClearViolations();
  EXPECT_EQ(rt->violation_count(), 0u);
  EXPECT_TRUE(rt->violations().empty());
  rt->RaiseViolation(lxfi::ViolationKind::kCall, "after clear", 0x2000);
  EXPECT_EQ(rt->violation_count(), 1u);
  auto v2 = rt->violations();
  ASSERT_EQ(v2.size(), 1u);
  EXPECT_EQ(v2.back().seq, kTotal + 1) << "sequence must stay monotone across ClearViolations";
  EXPECT_EQ(v2.back().details, "after clear");
}

TEST(FlightRecorder, AttributesPrincipalAndFaultAddress) {
  lxfi::RuntimeOptions options;
  options.policy = lxfi::ViolationPolicy::kCount;
  Bench bench(/*isolated=*/true, options);
  lxfi::Runtime* rt = bench.rt.get();
  kern::ModuleDef def;
  def.name = "golden";
  def.data_size = 16;
  def.imports = {kern::kPrintk};
  def.init = [](kern::Module&) { return 0; };
  kern::Module* m = bench.kernel->LoadModule(std::move(def));
  ASSERT_NE(m, nullptr);
  lxfi::Principal* shared = rt->CtxOf(m)->shared();

  {
    lxfi::ScopedPrincipal as_module(rt, shared);
    rt->RaiseViolation(lxfi::ViolationKind::kWrite, "golden probe", 0xdeadbeef);
  }
  ASSERT_EQ(rt->violation_count(), 1u);
  const auto rec = rt->violations().back();
  EXPECT_EQ(rec.kind, lxfi::ViolationKind::kWrite);
  EXPECT_EQ(rec.details, "golden probe");
  EXPECT_EQ(rec.fault_addr, 0xdeadbeefu);
  EXPECT_EQ(rec.principal, shared->DebugName());
  EXPECT_EQ(rec.principal_id, shared->trace_id());
  EXPECT_NE(rec.principal_id, 0u);
  EXPECT_EQ(rec.seq, 1u);
}

// --- PerCpuCounters: cross-shard reads vs concurrent shard writers (TSan) ----
//
// Each shard has one writer doing plain (non-RMW) Count and Add; a reader
// sums every shard, directly and through a registry snapshot, while the
// writers run. This storm is the TSan witness that cross-shard reads are
// race-free, and the exact totals after the join show that no increment
// was lost.
enum class StormCounter { kCounted, kAdded, kIdle, kCount };
const char* CounterName(StormCounter c) {
  static constexpr const char* kNames[] = {"counted", "added", "idle"};
  return kNames[static_cast<int>(c)];
}

TEST(PerCpuCountersStorm, CountAndAddRaceFreeAgainstConcurrentReaders) {
  constexpr uint64_t kPerWriter = 200000;
  constexpr int kWriters = 3;
  lxfi::PerCpuCounters<StormCounter> stats;
  lxfi::CounterRegistry registry;
  registry.Register(&stats, "storm", &stats);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_LE(stats.count(StormCounter::kCounted), kWriters * kPerWriter);
      auto snap = registry.Snapshot();
      EXPECT_LE(snap.at("storm.added"), 3 * kWriters * kPerWriter);
      EXPECT_EQ(snap.size(), 3u);
    }
  });
  std::vector<std::thread> writers;
  for (int shard = 1; shard <= kWriters; ++shard) {
    writers.emplace_back([&stats, shard] {
      lxfi::SetThisShardIndex(shard);
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        stats.Count(StormCounter::kCounted);
        stats.Add(StormCounter::kAdded, 3);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(stats.count(StormCounter::kCounted), kWriters * kPerWriter);
  EXPECT_EQ(stats.count(StormCounter::kAdded), 3 * kWriters * kPerWriter);
  EXPECT_EQ(stats.count(StormCounter::kIdle), 0u);
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.at("storm.counted"), kWriters * kPerWriter);
  EXPECT_EQ(snap.at("storm.added"), 3 * kWriters * kPerWriter);
  registry.Unregister(&stats);
  EXPECT_TRUE(registry.Snapshot().empty());
}

// --- the kernel counter registry ---------------------------------------------

// Every snapshot entry equals the accessor it replaced.
void ExpectSnapshotMatchesAccessors(eval::FsperfHarness& h, const lxfi::Containment& c) {
  const std::map<std::string, uint64_t> snap = h.kernel()->counters().Snapshot();
  auto at = [&snap](const std::string& name) {
    auto it = snap.find(name);
    EXPECT_NE(it, snap.end()) << name;
    return it == snap.end() ? ~0ull : it->second;
  };
  const lxfi::Runtime& rt = *h.runtime();
  for (int i = 0; i < static_cast<int>(lxfi::GuardType::kCount); ++i) {
    auto t = static_cast<lxfi::GuardType>(i);
    EXPECT_EQ(at(std::string("guard.") + lxfi::CounterName(t)), rt.guards().count(t));
  }
  EXPECT_EQ(at("lxfi.revokes"), rt.revoke_everywhere_count());
  EXPECT_EQ(at("lxfi.violations"), rt.violation_count());
  EXPECT_EQ(at("trace.drops"), TraceBuffer::Global().TotalDrops());
  EXPECT_EQ(at("vfs.lookup_dispatches"), h.vfs()->lookup_dispatches());
  EXPECT_EQ(at("dcache.negative_hits"), h.vfs()->dcache().negative_hits());
  EXPECT_EQ(at("dcache.seqlock_retries"), h.vfs()->dcache().seqlock_retries());
  EXPECT_EQ(at("containment.quarantines"), c.quarantines());
  EXPECT_EQ(at("containment.reboots"), c.reboots());
  EXPECT_EQ(at("containment.retired"), c.retired());
  EXPECT_EQ(at("containment.backoff_ns"), c.backoff_ns());
  if (const auto* pc = h.kernel()->GetSubsystem<kern::PageCache>()) {
    EXPECT_EQ(at("pagecache.hits"), pc->hits());
    EXPECT_EQ(at("pagecache.misses"), pc->misses());
    EXPECT_EQ(at("pagecache.writebacks"), pc->writebacks());
    EXPECT_EQ(at("pagecache.io_errors"), pc->io_errors());
  } else {
    EXPECT_EQ(snap.count("pagecache.hits"), 0u);
  }
}

TEST(CounterSnapshot, MatchesAccessorsAfterRamfsAndJexfsRuns) {
  for (bool block : {false, true}) {
    SCOPED_TRACE(block ? "jexfs over dm-crypt" : "ramfs");
    eval::FsperfHarnessOptions options;
    options.isolated = true;
    options.block_backing = block;
    options.dm_crypt = block;
    eval::FsperfHarness h(options);
    lxfi::Containment containment(h.runtime());
    eval::FsperfConfig config;
    config.files = 24;
    config.fsync_phase = block;
    config.rename_phase = true;
    eval::FsperfMeasurement m = h.Run(config);
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(h.vfs()->lookup_dispatches(), 0u);
    EXPECT_GT(h.runtime()->revoke_everywhere_count(), 0u);
    if (block) {
      const auto* pc = h.kernel()->GetSubsystem<kern::PageCache>();
      ASSERT_NE(pc, nullptr);
      EXPECT_GT(pc->hits(), 0u);
      EXPECT_GT(pc->writebacks(), 0u);
    }
    ExpectSnapshotMatchesAccessors(h, containment);
  }
}

// A counter owner leaves the snapshot when it dies (ASan checks that no
// snapshot reads its freed counters), and owners sharing a name sum.
TEST(CounterSnapshot, DestroyedOwnersLeaveTheSnapshot) {
  kern::Kernel kernel;
  auto vfs = std::make_unique<kern::Vfs>(&kernel);
  auto pc = std::make_unique<kern::PageCache>(&kernel);
  kern::Dcache extra(&kernel);
  vfs->dcache().CountNegativeHit();
  extra.CountNegativeHit();
  auto snap = kernel.counters().Snapshot();
  EXPECT_EQ(snap.count("vfs.lookup_dispatches"), 1u);
  EXPECT_EQ(snap.count("pagecache.hits"), 1u);
  EXPECT_EQ(snap.at("dcache.negative_hits"), 2u);

  vfs.reset();
  snap = kernel.counters().Snapshot();
  EXPECT_EQ(snap.count("vfs.lookup_dispatches"), 0u);
  EXPECT_EQ(snap.at("dcache.negative_hits"), 1u) << "only the surviving dcache counts";
  EXPECT_EQ(snap.count("pagecache.hits"), 1u);

  pc.reset();
  snap = kernel.counters().Snapshot();
  EXPECT_EQ(snap.count("pagecache.hits"), 0u);
  EXPECT_EQ(snap.size(), 4u) << "only the dcache's and the kernel's trace counters remain";
}

// The whole DumpJson layout of a fresh runtime: no principals yet, then one
// row per registered counter set, fields in name order.
TEST(LxfiStatsGolden, FreshRuntimeDumpsOneRowPerCounterSet) {
  TraceBuffer::Global().ResetForTest();
  Bench bench(/*isolated=*/true);
  EXPECT_EQ(lxfi::LxfiStats::DumpJson(*bench.rt, "golden"),
            "{\n"
            "  \"bench\": \"golden\",\n"
            "  \"results\": [\n"
            "    {\"name\": \"guard\", \"annotation-action\": 0, \"function-entry\": 0, "
            "\"function-exit\": 0, \"kernel-indcall-all\": 0, \"kernel-indcall-full\": 0, "
            "\"kernel-indcall-module\": 0, \"mem-write-check\": 0},\n"
            "    {\"name\": \"lxfi\", \"revokes\": 0, \"violations\": 0},\n"
            "    {\"name\": \"trace\", \"drops\": 0, \"enabled\": 0}\n"
            "  ]\n"
            "}\n");
}

}  // namespace
