// Tests for the SMP subsystem (src/kernel/smp.h): per-CPU contexts and
// CPU-local current(), run queues, cross-CPU calls, and thread-safe kthread
// creation.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/base/sync.h"
#include "src/kernel/kernel.h"
#include "src/kernel/smp.h"

namespace {

TEST(Kthread, IdsAreUniqueUnderConcurrentCreation) {
  kern::Kernel kernel;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::thread> threads;
  std::vector<std::vector<kern::KthreadContext*>> created(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&kernel, &created, t] {
      for (int i = 0; i < kPerThread; ++i) {
        created[t].push_back(kernel.CreateKthread());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::set<int> ids;
  ids.insert(kernel.current()->id);  // boot context
  for (const auto& per_thread : created) {
    for (const kern::KthreadContext* ctx : per_thread) {
      EXPECT_TRUE(ids.insert(ctx->id).second) << "duplicate kthread id " << ctx->id;
    }
  }
  EXPECT_EQ(ids.size(), 1u + kThreads * kPerThread);
}

TEST(CpuSet, ThreadedCpusHaveCpuLocalCurrentAndShards) {
  kern::Kernel kernel;
  kern::KthreadContext* boot = kernel.current();
  kern::CpuSet cpus(&kernel, 3);
  ASSERT_EQ(cpus.ncpus(), 3);

  std::atomic<int> failures{0};
  for (int i = 0; i < cpus.ncpus(); ++i) {
    cpus.CallOn(i, [&, i] {
      // CPU-local current(): this CPU sees its own context...
      if (kernel.current() != cpus.ctx(i)) {
        failures.fetch_add(1);
      }
      // ...its shard index is 1 + cpu id (shard 0 = main thread)...
      if (lxfi::ThisShardIndex() != 1 + i) {
        failures.fetch_add(1);
      }
      // ...and its stack bounds were captured for the kernel-stack grant.
      if (cpus.ctx(i)->stack_lo == 0 || cpus.ctx(i)->stack_hi <= cpus.ctx(i)->stack_lo) {
        failures.fetch_add(1);
      }
    });
  }
  EXPECT_EQ(failures.load(), 0);
  // The main thread still sees the boot context.
  EXPECT_EQ(kernel.current(), boot);
  EXPECT_EQ(lxfi::ThisShardIndex(), 0);
}

TEST(CpuSet, RunOnIsFifoPerCpuAndBarrierDrains) {
  kern::Kernel kernel;
  kern::CpuSet cpus(&kernel, 2);
  std::vector<int> seen0;
  std::atomic<int> total{0};
  for (int i = 0; i < 100; ++i) {
    cpus.RunOn(0, [&seen0, &total, i] {
      seen0.push_back(i);  // single consumer: FIFO makes this safe
      total.fetch_add(1, std::memory_order_relaxed);
    });
    cpus.RunOn(1, [&total] { total.fetch_add(1, std::memory_order_relaxed); });
  }
  cpus.Barrier();
  EXPECT_EQ(total.load(), 200);
  ASSERT_EQ(seen0.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(seen0[i], i);
  }
}

TEST(CpuSet, CrossCpuCallFromCpuThread) {
  kern::Kernel kernel;
  kern::CpuSet cpus(&kernel, 2);
  std::atomic<bool> ran_on_1{false};
  std::atomic<bool> self_ipi_ok{false};
  cpus.CallOn(0, [&] {
    // IPI from CPU 0 to CPU 1.
    cpus.CallOn(1, [&] { ran_on_1.store(kernel.current() == cpus.ctx(1)); });
    // Self-IPI runs inline without deadlocking.
    cpus.CallOn(0, [&] { self_ipi_ok.store(kernel.current() == cpus.ctx(0)); });
  });
  EXPECT_TRUE(ran_on_1.load());
  EXPECT_TRUE(self_ipi_ok.load());
}

TEST(CpuSet, InterruptsDeliverToTheRaisingCpu) {
  kern::Kernel kernel;
  kern::CpuSet cpus(&kernel, 2);
  std::atomic<int> depth_seen{-1};
  cpus.CallOn(1, [&] {
    kernel.DeliverInterrupt([&] { depth_seen.store(kernel.current()->irq_depth); });
  });
  EXPECT_EQ(depth_seen.load(), 1);
  EXPECT_EQ(cpus.ctx(1)->irq_depth, 0);
  EXPECT_EQ(cpus.ctx(0)->irq_depth, 0);
}

TEST(CpuSet, ClampsToMaxSimulatedCpus) {
  kern::Kernel kernel;
  kern::CpuSet cpus(&kernel, 64);
  EXPECT_EQ(cpus.ncpus(), kern::CpuSet::kMaxSimulatedCpus);
}

}  // namespace
