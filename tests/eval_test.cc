// Evaluation-harness tests: netperf workloads deliver what they send, the
// machine model reproduces the paper's stock rows, the API-evolution model
// hits its anchors, the annotation survey covers all ten modules, and the
// SFI microbenchmarks return sane measurements.
#include <gtest/gtest.h>

#include "src/eval/annotation_stats.h"
#include "src/eval/api_evolution.h"
#include "src/eval/netperf.h"
#include "src/lxfi/runtime.h"
#include "src/eval/sfi_micro.h"

namespace {

class NetperfWorkload : public ::testing::TestWithParam<eval::NetWorkload> {};

TEST_P(NetperfWorkload, DeliversAllPacketsStock) {
  eval::NetperfHarness harness(/*isolated=*/false);
  eval::NetperfMeasurement m = harness.Run({GetParam(), 2000});
  EXPECT_EQ(m.packets, 2000u);
  EXPECT_GT(m.path_wall_ns, 0u);
}

TEST_P(NetperfWorkload, DeliversAllPacketsIsolated) {
  eval::NetperfHarness harness(/*isolated=*/true);
  eval::NetperfMeasurement m = harness.Run({GetParam(), 2000});
  EXPECT_EQ(m.packets, 2000u);
  EXPECT_EQ(harness.runtime()->violation_count(), 0u)
      << "benign netperf traffic must not violate any contract";
}

TEST_P(NetperfWorkload, IsolationGuardsEveryPacket) {
  // Deterministic stand-in for "wrappers and checks are not free" (the
  // wall-clock comparison is a bench_sfi_micro gate): every enforced packet
  // crosses at least one wrapper, the stock run executes no guard at all.
  eval::NetperfHarness stock(/*isolated=*/false);
  eval::NetperfHarness isolated(/*isolated=*/true);
  eval::NetperfMeasurement ms = stock.Run({GetParam(), 1000});
  eval::NetperfMeasurement ml = isolated.Run({GetParam(), 1000});
  EXPECT_GE(ml.guard_counts[static_cast<int>(lxfi::GuardType::kFunctionEntry)], ml.packets);
  for (uint64_t count : ms.guard_counts) {
    EXPECT_EQ(count, 0u);
  }
}

TEST_P(NetperfWorkload, ConsecutiveRunsReportTheSameCounts) {
  // Guard and NIC counters only grow; each Run reports its own packets and
  // guards as after minus before, so a warmed harness repeats its figures.
  eval::NetperfHarness harness(/*isolated=*/true);
  eval::NetperfMeasurement first = harness.Run({GetParam(), 1000});
  EXPECT_EQ(first.packets, 1000u);
  EXPECT_GT(first.guard_counts[static_cast<int>(lxfi::GuardType::kFunctionEntry)], 0u);
  for (int run = 2; run <= 3; ++run) {
    eval::NetperfMeasurement m = harness.Run({GetParam(), 1000});
    EXPECT_EQ(m.packets, first.packets) << "run " << run;
    for (int i = 0; i < static_cast<int>(lxfi::GuardType::kCount); ++i) {
      EXPECT_EQ(m.guard_counts[i], first.guard_counts[i])
          << "run " << run << ", " << lxfi::CounterName(static_cast<lxfi::GuardType>(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, NetperfWorkload,
                         ::testing::Values(eval::NetWorkload::kUdpStreamTx,
                                           eval::NetWorkload::kUdpStreamRx,
                                           eval::NetWorkload::kTcpStreamTx,
                                           eval::NetWorkload::kTcpStreamRx,
                                           eval::NetWorkload::kTcpRr,
                                           eval::NetWorkload::kUdpRr),
                         [](const ::testing::TestParamInfo<eval::NetWorkload>& info) {
                           std::string n = eval::NetWorkloadName(info.param);
                           for (char& c : n) {
                             if (c == ' ') {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(MachineModel, StockRowsMatchPaper) {
  // Equal measurements (zero delta) must reproduce Figure 12's stock column.
  eval::NetperfMeasurement same;
  same.packets = 1000;
  same.path_wall_ns = 1000 * 500;
  auto row = eval::ComputeRow(eval::NetWorkload::kTcpStreamTx, false, same, same);
  EXPECT_NEAR(row.stock_throughput, 836.0, 1.0);
  EXPECT_NEAR(row.stock_cpu_pct, 13.0, 0.5);
  row = eval::ComputeRow(eval::NetWorkload::kUdpStreamTx, false, same, same);
  EXPECT_NEAR(row.stock_throughput, 3.1, 0.05);
  EXPECT_NEAR(row.stock_cpu_pct, 54.0, 1.0);
  row = eval::ComputeRow(eval::NetWorkload::kTcpRr, false, same, same);
  EXPECT_NEAR(row.stock_throughput, 9400.0, 50.0);
  row = eval::ComputeRow(eval::NetWorkload::kUdpRr, true, same, same);
  EXPECT_NEAR(row.stock_throughput, 20000.0, 200.0);
}

TEST(MachineModel, OverheadReducesUdpThroughputNotTcp) {
  eval::NetperfMeasurement stock;
  stock.packets = 1000;
  stock.path_wall_ns = 1000 * 200;
  eval::NetperfMeasurement lxfi;
  lxfi.packets = 1000;
  lxfi.path_wall_ns = 1000 * 500;  // +300ns/packet of enforcement
  auto tcp = eval::ComputeRow(eval::NetWorkload::kTcpStreamTx, false, stock, lxfi);
  EXPECT_DOUBLE_EQ(tcp.lxfi_throughput, tcp.stock_throughput) << "TCP stays link-limited";
  EXPECT_GT(tcp.lxfi_cpu_pct, tcp.stock_cpu_pct);
  auto udp = eval::ComputeRow(eval::NetWorkload::kUdpStreamTx, false, stock, lxfi);
  EXPECT_LT(udp.lxfi_throughput, udp.stock_throughput) << "UDP TX hits the CPU wall";
  EXPECT_NEAR(udp.lxfi_cpu_pct, 100.0, 0.5);
}

TEST(MachineModel, OneSwitchMagnifiesRelativeRrGap) {
  eval::NetperfMeasurement stock;
  stock.packets = 1000;
  stock.path_wall_ns = 1000 * 200;
  eval::NetperfMeasurement lxfi;
  lxfi.packets = 1000;
  lxfi.path_wall_ns = 1000 * 3000;
  auto multi = eval::ComputeRow(eval::NetWorkload::kUdpRr, false, stock, lxfi);
  auto onesw = eval::ComputeRow(eval::NetWorkload::kUdpRr, true, stock, lxfi);
  double drop_multi = 1.0 - multi.lxfi_throughput / multi.stock_throughput;
  double drop_onesw = 1.0 - onesw.lxfi_throughput / onesw.stock_throughput;
  EXPECT_GT(drop_onesw, drop_multi)
      << "with less network latency to hide behind, enforcement shows more";
}

TEST(ApiEvolution, DeterministicAndAnchored) {
  auto a = eval::RunApiEvolutionModel(2611);
  auto b = eval::RunApiEvolutionModel(2611);
  ASSERT_EQ(a.size(), 19u);  // 2.6.21 .. 2.6.39
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].exported_total, b[i].exported_total);
  }
  EXPECT_EQ(a.front().version, "2.6.21");
  EXPECT_EQ(a.front().exported_total, 5583u);
  EXPECT_EQ(a.front().exported_churn, 272u);
  EXPECT_EQ(a.front().fnptr_total, 3725u);
  EXPECT_EQ(a.front().fnptr_churn, 183u);
  EXPECT_EQ(a.back().version, "2.6.39");
}

TEST(ApiEvolution, GrowsSteadilyWithModestChurn) {
  auto stats = eval::RunApiEvolutionModel();
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_GT(stats[i].exported_total, stats[i - 1].exported_total);
    EXPECT_GT(stats[i].fnptr_total, stats[i - 1].fnptr_total);
  }
  // Endpoint calibration: ~9.5k exported functions by 2.6.39 (±15%).
  EXPECT_GT(stats.back().exported_total, 8000u);
  EXPECT_LT(stats.back().exported_total, 11000u);
  // Churn stays a small fraction of the total.
  EXPECT_LT(eval::MeanChurnFraction(stats, false), 0.10);
  EXPECT_LT(eval::MeanChurnFraction(stats, true), 0.10);
}

TEST(AnnotationSurvey, CoversAllTenModules) {
  eval::AnnotationSurvey survey = eval::RunAnnotationSurvey();
  ASSERT_EQ(survey.modules.size(), 10u);
  for (const auto& m : survey.modules) {
    EXPECT_GT(m.functions_all, 0u) << m.module;
    EXPECT_GT(m.fnptrs_all, 0u) << m.module;
    EXPECT_LE(m.functions_unique, m.functions_all) << m.module;
    EXPECT_LE(m.fnptrs_unique, m.fnptrs_all) << m.module;
  }
  EXPECT_GT(survey.capability_iterators, 0u);
}

TEST(AnnotationSurvey, SharingDominates) {
  // The paper's point: most annotations are shared between modules, so the
  // marginal cost of a new module is small. Sum of uniques must be well
  // under the sum of alls.
  eval::AnnotationSurvey survey = eval::RunAnnotationSurvey();
  uint64_t all = 0, unique = 0;
  for (const auto& m : survey.modules) {
    all += m.functions_all + m.fnptrs_all;
    unique += m.functions_unique + m.fnptrs_unique;
  }
  EXPECT_LT(unique * 2, all) << "shared annotations must dominate";
}

TEST(AnnotationSurvey, SecondSoundDriverIsFree) {
  // snd-ens1370 arrives after snd-intel8x0 annotated everything it needs.
  eval::AnnotationSurvey survey = eval::RunAnnotationSurvey();
  for (const auto& m : survey.modules) {
    if (m.module == "snd-ens1370") {
      EXPECT_EQ(m.functions_unique, 0u);
      EXPECT_EQ(m.fnptrs_unique, 0u);
    }
  }
}

TEST(SfiMicro, GuardCountsMatchTheInstrumentation) {
  // Counts, not times (the slowdown gates run in bench_sfi_micro): which
  // stores carry a guard is what makes Figure 11's shape.
  eval::MicroResult hotlist = eval::RunHotlist();
  EXPECT_GT(hotlist.ops, 0u);
  EXPECT_EQ(hotlist.guards, hotlist.ops) << "one guard per O(n) search, none in the traversal";

  eval::MicroResult lld = eval::RunLld();
  EXPECT_GT(lld.ops, 0u);
  EXPECT_EQ(lld.guards, lld.stores) << "every pointer store is checked";

  eval::MicroResult md5 = eval::RunMd5();
  EXPECT_EQ(md5.guards, md5.ops) << "one check per buffer update";
  EXPECT_EQ(md5.stores, md5.guards * 4096) << "the block loop's stores are hoisted";
}

}  // namespace
