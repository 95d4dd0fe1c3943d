// statmon: a monitoring module reads metrics and trace records under full
// enforcement — and a rogue-writer probe proves it can observe the rings
// without ever being able to scribble them.
#include <gtest/gtest.h>

#include <string>

#include "src/base/trace.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/violation.h"
#include "src/modules/fsfilter/fsfilter.h"
#include "src/modules/ramfs/ramfs.h"
#include "src/modules/statmon/statmon.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

long InvokePoll(Bench& bench, kern::Module* m) {
  // Kernel-side dispatch through a slot holding the module function: the
  // full indirect-call path (writer-set check, annotation-hash check,
  // wrapper) runs for every poll.
  uintptr_t slot = m->FuncAddr("statmon_poll");
  return bench.kernel->IndirectCall(&slot, lxfi::kStatmonPoll, nullptr);
}

TEST(Statmon, PollsMetricsAndTraceUnderEnforcement) {
  lxfi::TraceBuffer::Global().ResetForTest();
  lxfi::TraceBuffer::SetEnabled(true);
  lxfi::LxfiStats::SetEnabled(true);
  Bench bench(/*isolated=*/true);
  kern::Module* m = bench.kernel->LoadModule(mods::StatmonModuleDef());
  ASSERT_NE(m, nullptr);
  auto st = mods::GetStatmon(*m);
  ASSERT_NE(st, nullptr);

  long n = InvokePoll(bench, m);
  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::LxfiStats::SetEnabled(false);

  EXPECT_EQ(bench.rt->violation_count(), 0u)
      << "a clean poll must not trip any guard: " << bench.rt->DumpState();
  EXPECT_GT(n, 0);
  EXPECT_EQ(st->last_json_len(), n);
  EXPECT_EQ(st->polls(), 1u);
  // Module load itself emitted trace records (module-load, cap grants,
  // crossings), so the poll drained a non-empty stream into module memory.
  EXPECT_GT(st->last_record_count(), 0);
  std::string json(st->json);
  EXPECT_NE(json.find("\"bench\": \"lxfi_stats\""), std::string::npos) << json;
  EXPECT_NE(json.find("principal:"), std::string::npos) << json;
  EXPECT_NE(json.find("statmon"), std::string::npos)
      << "the monitoring module must see its own principal in the snapshot: " << json;
  lxfi::TraceBuffer::Global().ResetForTest();
}

TEST(Statmon, RepeatedPollsStayClean) {
  lxfi::LxfiStats::SetEnabled(true);
  Bench bench(/*isolated=*/true);
  kern::Module* m = bench.kernel->LoadModule(mods::StatmonModuleDef());
  ASSERT_NE(m, nullptr);
  auto st = mods::GetStatmon(*m);
  for (int i = 0; i < 16; ++i) {
    EXPECT_GT(InvokePoll(bench, m), 0);
  }
  lxfi::LxfiStats::SetEnabled(false);
  EXPECT_EQ(st->polls(), 16u);
  EXPECT_EQ(bench.rt->violation_count(), 0u);
}

// The exploit: statmon arms its scribble probe and tries to write straight
// into the runtime-owned trace buffer. The store guard must refuse (the
// module holds no WRITE capability there), the target memory must be
// untouched, and the flight recorder must attribute the attempt to the
// statmon principal at the exact faulting address.
TEST(StatmonExploit, RogueWriterCannotScribbleTraceRing) {
  lxfi::TraceBuffer::Global().ResetForTest();
  Bench bench(/*isolated=*/true);  // default policy: throw (kill the request)
  kern::Module* m = bench.kernel->LoadModule(mods::StatmonModuleDef());
  ASSERT_NE(m, nullptr);
  auto st = mods::GetStatmon(*m);
  st->probe = mods::StatmonProbe::kScribbleRing;
  st->probe_target = &lxfi::TraceBuffer::Global();

  const uint64_t before = *static_cast<uint64_t*>(st->probe_target);
  EXPECT_THROW(InvokePoll(bench, m), lxfi::LxfiViolation);
  EXPECT_EQ(*static_cast<uint64_t*>(st->probe_target), before)
      << "the store must never land";
  // The probe aborted the poll before any snapshot was taken.
  EXPECT_EQ(st->last_json_len(), -1);
  EXPECT_EQ(st->polls(), 0u);

  ASSERT_GE(bench.rt->violation_count(), 1u);
  const auto rec = bench.rt->violations().back();
  EXPECT_EQ(rec.kind, lxfi::ViolationKind::kWrite);
  EXPECT_EQ(rec.fault_addr, reinterpret_cast<uint64_t>(st->probe_target));
  EXPECT_NE(rec.principal.find("statmon"), std::string::npos)
      << "violation must be attributed to the statmon principal, got: " << rec.principal;
  EXPECT_NE(rec.principal_id, 0u);
  EXPECT_EQ(rec.crossing, std::string("statmon_poll"))
      << "innermost crossing label must name the faulting entry point";

  // Disarmed, the module keeps working: enforcement killed the request, not
  // the module.
  st->probe = mods::StatmonProbe::kNone;
  EXPECT_GT(InvokePoll(bench, m), 0);
  EXPECT_EQ(st->polls(), 1u);
}

// The monitoring module watches ANOTHER module go through quarantine and
// microreboot: its polls must surface the containment counters in the stats
// snapshot and the kQuarantine/kMicroreboot records in the trace stream —
// while statmon itself keeps serving, untouched by the neighbour's recovery.
TEST(Statmon, ObservesQuarantineAndMicrorebootOfAnotherModule) {
  lxfi::TraceBuffer::Global().ResetForTest();
  lxfi::TraceBuffer::SetEnabled(true);
  lxfi::LxfiStats::SetEnabled(true);
  lxfi::RuntimeOptions options;
  options.policy = lxfi::ViolationPolicy::kQuarantine;
  options.partitioned_heaps = true;
  Bench bench(/*isolated=*/true, options);
  lxfi::Containment containment(bench.rt.get());
  bench.rt->set_containment(&containment);

  kern::Module* mon = bench.kernel->LoadModule(mods::StatmonModuleDef());
  ASSERT_NE(mon, nullptr);
  auto st = mods::GetStatmon(*mon);
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  ASSERT_NE(bench.kernel->LoadModule(mods::RamfsModuleDef()), nullptr);
  ASSERT_NE(vfs->Mount("ramfs", "/mnt"), nullptr);
  mods::FsFilterConfig evil_cfg;
  evil_cfg.module_name = "fsflt-evil";
  evil_cfg.filter_name = "fsflt-evil";
  evil_cfg.scope = "mnt";
  kern::Module* evil = bench.kernel->LoadModule(mods::FsFilterModuleDef(evil_cfg));
  ASSERT_NE(evil, nullptr);
  mods::FsFilterConfig victim_cfg;
  victim_cfg.module_name = "fsflt-victim";
  victim_cfg.filter_name = "fsflt-victim";
  victim_cfg.priority = 10;
  victim_cfg.scope = "mnt";
  kern::Module* victim = bench.kernel->LoadModule(mods::FsFilterModuleDef(victim_cfg));
  ASSERT_NE(victim, nullptr);

  auto records_contain = [&](lxfi::TraceEvent ev) {
    for (long i = 0; i < st->last_record_count(); ++i) {
      if (st->records[i].event == static_cast<uint16_t>(ev)) {
        return true;
      }
    }
    return false;
  };

  // Baseline poll drains the load-time backlog so the next poll's window is
  // the containment sequence itself.
  ASSERT_GT(InvokePoll(bench, mon), 0);
  std::string json(st->json);
  EXPECT_NE(json.find("containment"), std::string::npos)
      << "the stats snapshot must carry the containment row: " << json;
  EXPECT_NE(json.find("\"quarantines\": 0"), std::string::npos) << json;

  auto evil_st = mods::GetFsFilter(*evil);
  evil_st->probe_target = &mods::GetFsFilter(*victim)->priv->pre_count[0];
  evil_st->probe = mods::FsFilterProbe::kScribbleTarget;
  kern::VfsStat vst;
  EXPECT_THROW(vfs->Stat("/mnt", &vst), lxfi::LxfiViolation);
  EXPECT_EQ(containment.quarantines(), 1u);

  ASSERT_GT(InvokePoll(bench, mon), 0);
  EXPECT_TRUE(records_contain(lxfi::TraceEvent::kQuarantine))
      << "the poll after the violation must surface the quarantine record";
  json.assign(st->json);
  EXPECT_NE(json.find("\"quarantines\": 1"), std::string::npos) << json;

  evil_st->probe = mods::FsFilterProbe::kNone;
  ASSERT_EQ(containment.DrainPendingReboots(), 1u);
  ASSERT_GT(InvokePoll(bench, mon), 0);
  EXPECT_TRUE(records_contain(lxfi::TraceEvent::kMicroreboot))
      << "the poll after the drain must surface the microreboot record";
  json.assign(st->json);
  EXPECT_NE(json.find("\"reboots\": 1"), std::string::npos) << json;

  // The observer itself sailed through the neighbour's recovery.
  EXPECT_EQ(st->polls(), 3u);
  EXPECT_EQ(containment.HealthOf("statmon"), lxfi::ModuleHealth::kHealthy);
  lxfi::TraceBuffer::SetEnabled(false);
  lxfi::LxfiStats::SetEnabled(false);
  lxfi::TraceBuffer::Global().ResetForTest();
}

}  // namespace
