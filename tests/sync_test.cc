// Unit tests for the SMP synchronization primitives (src/base/sync.h):
// spinlock mutual exclusion, seqlock reader consistency, single-writer
// counters, and the quiescent-state epoch reclaimer's grace-period rules.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/base/sync.h"

namespace {

using lxfi::EpochReclaimer;
using lxfi::RelaxedCell;
using lxfi::SeqCount;
using lxfi::Spinlock;

TEST(Spinlock, MutualExclusionUnderContention) {
  Spinlock mu;
  uint64_t counter = 0;  // deliberately plain: the lock must serialize it
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lxfi::SpinGuard guard(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIters);
}

TEST(Spinlock, TryLockReportsHeldState) {
  Spinlock mu;
  EXPECT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(RelaxedCell, SingleWriterExactness) {
  RelaxedCell cell;
  for (int i = 0; i < 1000; ++i) {
    ++cell;
  }
  cell.Add(24);
  EXPECT_EQ(static_cast<uint64_t>(cell), 1024u);
  cell = 7;
  EXPECT_EQ(cell.value(), 7u);
}

// The seqlock protocol: a writer alternates two fields between consistent
// states {v, 2v}; validated reads must never observe a mixed pair.
TEST(SeqCount, ReadersNeverSeeTornPairs) {
  SeqCount seq;
  uint64_t a = 1;
  uint64_t b = 2;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::thread writer([&] {
    for (uint64_t v = 2; v < 40000; ++v) {
      seq.WriteBegin();
      __atomic_store_n(&a, v, __ATOMIC_RELAXED);
      __atomic_store_n(&b, 2 * v, __ATOMIC_RELAXED);
      seq.WriteEnd();
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t s = seq.ReadBegin();
        uint64_t ra = __atomic_load_n(&a, __ATOMIC_RELAXED);
        uint64_t rb = __atomic_load_n(&b, __ATOMIC_RELAXED);
        if (!seq.ReadValidate(s)) {
          continue;
        }
        if (rb != 2 * ra) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(torn.load(), 0u);
}

TEST(EpochReclaimer, NoReadersMeansImmediateReclaim) {
  EpochReclaimer& er = EpochReclaimer::Global();
  int freed = 0;
  er.Retire([&freed] { ++freed; });
  er.TryReclaim();
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(er.pending(), 0u);
}

TEST(EpochReclaimer, ReaderBlocksReclaimUntilQuiescent) {
  EpochReclaimer& er = EpochReclaimer::Global();
  EpochReclaimer::Reader* reader = er.Register();
  ASSERT_NE(reader, nullptr);

  int freed = 0;
  er.Retire([&freed] { ++freed; });
  er.TryReclaim();
  // The reader has not passed a quiescent state since the retirement.
  EXPECT_EQ(freed, 0);

  er.Quiesce(reader);
  er.TryReclaim();
  EXPECT_EQ(freed, 1);
  er.Unregister(reader);
}

TEST(EpochReclaimer, IdleReadersDoNotBlockGracePeriods) {
  EpochReclaimer& er = EpochReclaimer::Global();
  EpochReclaimer::Reader* reader = er.Register();
  ASSERT_NE(reader, nullptr);
  er.SetIdle(reader, true);

  int freed = 0;
  er.Retire([&freed] { ++freed; });
  er.Synchronize();  // must not wait on the idle reader
  EXPECT_EQ(freed, 1);

  er.SetIdle(reader, false);
  er.Unregister(reader);
}

TEST(EpochReclaimer, SynchronizeWaitsForActiveReader) {
  EpochReclaimer& er = EpochReclaimer::Global();
  EpochReclaimer::Reader* reader = er.Register();
  ASSERT_NE(reader, nullptr);

  std::atomic<bool> freed{false};
  er.Retire([&freed] { freed.store(true, std::memory_order_release); });

  std::atomic<bool> done{false};
  std::thread quiescer([&] {
    // Simulates the CPU reaching run-queue boundaries a little later. It
    // keeps quiescing until Synchronize returns: a first pass that lands
    // before Synchronize bumps the epoch cannot end the grace period.
    while (!done.load(std::memory_order_acquire)) {
      for (int i = 0; i < 100; ++i) {
        std::this_thread::yield();
      }
      er.Quiesce(reader);
    }
  });
  er.Synchronize();
  done.store(true, std::memory_order_release);
  EXPECT_TRUE(freed.load(std::memory_order_acquire));
  quiescer.join();
  er.Unregister(reader);
}

TEST(EpochReclaimer, RegisterExhaustionReturnsNull) {
  EpochReclaimer& er = EpochReclaimer::Global();
  std::vector<EpochReclaimer::Reader*> readers;
  while (readers.size() <= EpochReclaimer::kMaxReaders) {
    EpochReclaimer::Reader* r = er.Register();
    if (r == nullptr) {
      break;
    }
    readers.push_back(r);
  }
  // Every earlier test unregistered its readers, so the whole table was free.
  EXPECT_EQ(readers.size(), static_cast<size_t>(EpochReclaimer::kMaxReaders));
  EXPECT_EQ(er.Register(), nullptr);
  for (auto* r : readers) {
    er.Unregister(r);
  }
  EpochReclaimer::Reader* reused = er.Register();
  EXPECT_NE(reused, nullptr);  // slots are reusable
  er.Unregister(reused);
}

}  // namespace
