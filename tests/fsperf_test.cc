// fsperf harness smoke tests: the enforced metadata workload completes with
// zero violations, op accounting matches the configuration, and the 3-CPU
// concurrent run drives per-CPU working directories through the concurrent
// enforcement path cleanly (this test runs under TSan in CI).
#include <gtest/gtest.h>

#include "src/eval/fsperf.h"
#include "src/lxfi/runtime.h"

namespace {

constexpr eval::FsperfConfig kSmall{/*files=*/40, /*file_bytes=*/1024, /*io_chunk=*/256};

// Per file: 1 create + 4 chunk writes + 4 chunk reads + 1 stat + 1 unlink.
constexpr uint64_t kOpsPerFile = 1 + 4 + 4 + 1 + 1;

TEST(Fsperf, StockWorkloadAccounting) {
  eval::FsperfHarness h(/*isolated=*/false);
  eval::FsperfMeasurement m = h.Run(kSmall);
  EXPECT_EQ(m.create.ops, kSmall.files);
  EXPECT_EQ(m.write.ops, kSmall.files * 4);
  EXPECT_EQ(m.read.ops, kSmall.files * 4);
  EXPECT_EQ(m.stat.ops, kSmall.files);
  EXPECT_EQ(m.unlink.ops, kSmall.files);
  EXPECT_EQ(m.total_ops(), kSmall.files * kOpsPerFile);
}

TEST(Fsperf, EnforcedWorkloadCompletesWithZeroViolations) {
  eval::FsperfHarness h(/*isolated=*/true);
  eval::FsperfMeasurement m = h.Run(kSmall);
  EXPECT_EQ(m.total_ops(), kSmall.files * kOpsPerFile);
  EXPECT_EQ(m.violations, 0u);
  // The workload is repeatable on the same mount (unlink really unlinked).
  m = h.Run(kSmall);
  EXPECT_EQ(m.violations, 0u);
  EXPECT_EQ(h.runtime()->violation_count(), 0u);
}

TEST(FsperfSmp, ThreeCpuConcurrentEnforcedRunIsClean) {
  eval::FsperfHarness h(/*isolated=*/true, /*cpus=*/3);
  ASSERT_EQ(h.cpus(), 3);
  eval::FsScalingResult r = h.RunParallel(kSmall);
  EXPECT_EQ(r.ops, 3 * kSmall.files * kOpsPerFile);
  EXPECT_EQ(h.runtime()->violation_count(), 0u);
  EXPECT_GT(r.cpu_ns_total, 0u);
  // Back-to-back parallel runs reuse the same per-CPU directories.
  r = h.RunParallel(kSmall);
  EXPECT_EQ(r.ops, 3 * kSmall.files * kOpsPerFile);
  EXPECT_EQ(h.runtime()->violation_count(), 0u);
}

TEST(FsperfSmp, ThreeCpuStockRunIsClean) {
  eval::FsperfHarness h(/*isolated=*/false, /*cpus=*/3);
  eval::FsScalingResult r = h.RunParallel(kSmall);
  EXPECT_EQ(r.ops, 3 * kSmall.files * kOpsPerFile);
}

// The shared-hot-directory workload: all CPUs create/stat/unlink their own
// names in /mnt/shared, contending on one parent index through the RCU
// walk. Runs under TSan in CI.
TEST(FsperfContended, ThreeCpuSharedDirectoryEnforcedRunIsClean) {
  constexpr eval::FsContendedConfig kCfg{/*files=*/60, /*stats_per_file=*/3, /*rounds=*/2};
  eval::FsperfHarness h(/*isolated=*/true, /*cpus=*/3);
  eval::FsScalingResult r = h.RunContended(kCfg);
  EXPECT_EQ(r.ops, 3ull * kCfg.rounds * kCfg.files * (1 + kCfg.stats_per_file + 1));
  EXPECT_EQ(h.runtime()->violation_count(), 0u);
  // Repeatable: the unlink phase really emptied the shared directory.
  r = h.RunContended(kCfg);
  EXPECT_EQ(r.ops, 3ull * kCfg.rounds * kCfg.files * (1 + kCfg.stats_per_file + 1));
  EXPECT_EQ(h.runtime()->violation_count(), 0u);
}

}  // namespace
