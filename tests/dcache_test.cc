// RCU-walk dcache: differential test against a naive locked reference
// model (including forced hash collisions, so the strcmp fallback chain is
// really exercised), and a concurrent storm — CPUs walking one directory
// while writers create/unlink/instantiate in it — that proves the seqlock
// retry path fires and that stable entries never flicker. The storm runs
// under TSan in CI.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/kernel/fs/dcache.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/smp.h"

namespace {

struct Model {
  // name -> positive?
  std::map<std::string, bool> entries;
  uint32_t pos = 0;
  uint32_t neg = 0;
};

class DcacheDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DcacheDifferential, RandomOpsMatchNaiveModel) {
  kern::Kernel kernel;
  kern::Dcache dc(&kernel);
  dc.set_hash_buckets_for_test(GetParam());  // 0 = full FNV; 4 = four keys

  kern::Dentry* parent = dc.NewDentry(nullptr, nullptr, "root");
  kern::Inode dir_inode;
  dir_inode.mode = kern::kIfDir;
  kern::Dcache::SetPositive(parent, &dir_inode);

  kern::Inode file_inode;
  file_inode.mode = kern::kIfReg;

  Model model;
  // A small name pool makes collisions (under the mask) and repeats likely.
  std::vector<std::string> pool;
  for (int i = 0; i < 48; ++i) {
    std::string name = "n";
    name += std::to_string(i * 7919 % 97);
    pool.push_back(std::move(name));
  }
  lxfi::Rng rng(0xDCACE + GetParam());

  for (int step = 0; step < 4000; ++step) {
    const std::string& name = pool[rng.Next() % pool.size()];
    auto it = model.entries.find(name);
    switch (rng.Next() % 4) {
      case 0:    // link (positive or negative)
      case 1: {
        if (it != model.entries.end()) {
          break;  // occupied: the VFS never double-links a name
        }
        bool positive = (rng.Next() & 1) != 0;
        kern::Dentry* d = dc.NewDentry(nullptr, parent, name.c_str());
        if (positive) {
          kern::Dcache::SetPositive(d, &file_inode);
        }
        lxfi::SpinGuard guard(dc.writer_lock(parent));
        ASSERT_EQ(dc.FindChildLocked(parent, name.c_str()), nullptr);
        dc.LinkChildLocked(parent, d);
        model.entries[name] = positive;
        (positive ? model.pos : model.neg) += 1;
        break;
      }
      case 2: {  // unlink
        if (it == model.entries.end()) {
          break;
        }
        kern::Dentry* d;
        {
          lxfi::SpinGuard guard(dc.writer_lock(parent));
          d = dc.FindChildLocked(parent, name.c_str());
          ASSERT_NE(d, nullptr);
          dc.UnlinkChildLocked(parent, d);
        }
        // Alternate reclamation flavors; no concurrent reader exists.
        if ((rng.Next() & 1) != 0) {
          dc.Retire(d);
        } else {
          dc.FreeNow(d);
        }
        (it->second ? model.pos : model.neg) -= 1;
        model.entries.erase(it);
        break;
      }
      default: {  // lookup, lock-free and locked, against the model
        kern::Dentry* d = dc.Lookup(parent, name);
        kern::Dentry* dl;
        {
          lxfi::SpinGuard guard(dc.writer_lock(parent));
          dl = dc.FindChildLocked(parent, name.c_str());
        }
        EXPECT_EQ(d, dl);
        if (it == model.entries.end()) {
          EXPECT_EQ(d, nullptr) << name;
        } else {
          ASSERT_NE(d, nullptr) << name;
          EXPECT_STREQ(d->name, name.c_str());
          EXPECT_EQ((kern::Dcache::FlagsOf(d) & kern::kDentryPositive) != 0, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(parent->pos_children, model.pos);
    ASSERT_EQ(parent->neg_children, model.neg);
  }

  // Every surviving entry is found by both probes; drain the tree.
  for (const auto& [name, positive] : model.entries) {
    kern::Dentry* d = dc.Lookup(parent, name);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ((kern::Dcache::FlagsOf(d) & kern::kDentryPositive) != 0, positive);
  }
  dc.FreeTreeNow(parent);
  lxfi::EpochReclaimer::Global().Synchronize();
}

INSTANTIATE_TEST_SUITE_P(FullHashAndForcedCollisions, DcacheDifferential,
                         ::testing::Values(uint64_t{0}, uint64_t{4}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return info.param == 0 ? "FullHash" : "FourBuckets";
                         });

TEST(DcacheDifferential, CollidingNamesResolveByStrcmpFallback) {
  kern::Kernel kernel;
  kern::Dcache dc(&kernel);
  dc.set_hash_buckets_for_test(1);  // every name lands on one key
  kern::Dentry* parent = dc.NewDentry(nullptr, nullptr, "root");
  kern::Inode ino;
  ino.mode = kern::kIfReg;
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  for (const char* n : names) {
    kern::Dentry* d = dc.NewDentry(nullptr, parent, n);
    kern::Dcache::SetPositive(d, &ino);
    lxfi::SpinGuard guard(dc.writer_lock(parent));
    dc.LinkChildLocked(parent, d);
  }
  for (const char* n : names) {
    kern::Dentry* d = dc.Lookup(parent, n);
    ASSERT_NE(d, nullptr);
    EXPECT_STREQ(d->name, n);
  }
  EXPECT_EQ(dc.Lookup(parent, "epsilon"), nullptr);
  // Unlink from the middle of the chain; the rest stays resolvable.
  {
    kern::Dentry* d;
    {
      lxfi::SpinGuard guard(dc.writer_lock(parent));
      d = dc.FindChildLocked(parent, "beta");
      ASSERT_NE(d, nullptr);
      dc.UnlinkChildLocked(parent, d);
    }
    dc.Retire(d);
  }
  EXPECT_EQ(dc.Lookup(parent, "beta"), nullptr);
  for (const char* n : {"alpha", "gamma", "delta"}) {
    EXPECT_NE(dc.Lookup(parent, n), nullptr);
  }
  dc.FreeTreeNow(parent);
  lxfi::EpochReclaimer::Global().Synchronize();
}

// The storm: reader CPUs walk one directory's stable and absent names
// nonstop while writer CPUs create/unlink/instantiate churn names in the
// same directory (same index, same seqlock). Invariants: stable names are
// always found positive, absent names are never found, cached negatives
// stay negative — and the seqlock retry path is actually taken.
TEST(DcacheStorm, ConcurrentWalkersVsWritersAreCleanAndRetry) {
  kern::Kernel kernel;
  kern::Dcache dc(&kernel);
  kern::Dentry* parent = dc.NewDentry(nullptr, nullptr, "root");
  kern::Inode dir_inode;
  dir_inode.mode = kern::kIfDir;
  kern::Dcache::SetPositive(parent, &dir_inode);

  static constexpr int kStable = 24;
  static constexpr int kNegative = 8;
  kern::Inode stable_inode;
  stable_inode.mode = kern::kIfReg;
  for (int i = 0; i < kStable; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    kern::Dentry* d = dc.NewDentry(nullptr, parent, name.c_str());
    kern::Dcache::SetPositive(d, &stable_inode);
    lxfi::SpinGuard guard(dc.writer_lock(parent));
    dc.LinkChildLocked(parent, d);
  }
  for (int i = 0; i < kNegative; ++i) {
    std::string name = "neg" + std::to_string(i);
    kern::Dentry* d = dc.NewDentry(nullptr, parent, name.c_str());
    lxfi::SpinGuard guard(dc.writer_lock(parent));
    dc.LinkChildLocked(parent, d);
  }

  kern::CpuSet cpus(&kernel, 4);
  kern::Inode churn_inodes[2];
  churn_inodes[0].mode = kern::kIfReg;
  churn_inodes[1].mode = kern::kIfReg;

  std::atomic<uint64_t> reader_errors{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int w = 0; w < 2; ++w) {
      cpus.RunOn(w, [&dc, parent, &churn_inodes, w] {
        char name[32];
        for (int iter = 0; iter < 3000; ++iter) {
          std::snprintf(name, sizeof(name), "w%d_%d", w, iter % 97);
          kern::Dentry* d = dc.NewDentry(nullptr, parent, name);
          kern::Dcache::SetPositive(d, &churn_inodes[w]);
          {
            lxfi::SpinGuard guard(dc.writer_lock(parent));
            if (dc.FindChildLocked(parent, name) == nullptr) {
              dc.LinkChildLocked(parent, d);
              d = nullptr;
            }
          }
          if (d != nullptr) {
            dc.FreeNow(d);  // name still linked from a previous lap
          }
          if ((iter & 1) != 0) {
            std::snprintf(name, sizeof(name), "w%d_%d", w, (iter - 1) % 97);
            kern::Dentry* victim;
            {
              lxfi::SpinGuard guard(dc.writer_lock(parent));
              victim = dc.FindChildLocked(parent, name);
              if (victim != nullptr) {
                dc.UnlinkChildLocked(parent, victim);
              }
            }
            if (victim != nullptr) {
              dc.Retire(victim);
            }
          }
          if ((iter & 63) == 0) {
            kern::CpuSet::QuiescePoint();
          }
        }
        kern::CpuSet::QuiescePoint();
      });
    }
    for (int r = 2; r < 4; ++r) {
      cpus.RunOn(r, [&dc, parent, &reader_errors] {
        char name[32];
        for (int iter = 0; iter < 8000; ++iter) {
          std::snprintf(name, sizeof(name), "s%d", iter % kStable);
          kern::Dentry* d = dc.Lookup(parent, name);
          if (d == nullptr || (kern::Dcache::FlagsOf(d) & kern::kDentryPositive) == 0) {
            reader_errors.fetch_add(1, std::memory_order_relaxed);
          }
          std::snprintf(name, sizeof(name), "neg%d", iter % kNegative);
          d = dc.Lookup(parent, name);
          if (d == nullptr || (kern::Dcache::FlagsOf(d) & kern::kDentryPositive) != 0) {
            reader_errors.fetch_add(1, std::memory_order_relaxed);
          }
          std::snprintf(name, sizeof(name), "absent%d", iter % 13);
          if (dc.Lookup(parent, name) != nullptr) {
            reader_errors.fetch_add(1, std::memory_order_relaxed);
          }
          if ((iter & 63) == 0) {
            kern::CpuSet::QuiescePoint();
          }
        }
        kern::CpuSet::QuiescePoint();
      });
    }
    cpus.Barrier();
  }

  EXPECT_EQ(reader_errors.load(), 0u);

  // Retry-proof phase: a writer relinks/unlinks ONE hot name as fast as it
  // can (so most of its time sits inside the index's seqlock write
  // sections) while a reader spins on the same key. Any preemption that
  // lands inside the reader's read window now forces a failed validation —
  // the retry path — which the batched storm above cannot guarantee on a
  // single-core host. The hot dentry is reused, never freed, so the reader
  // may hold it across any interleaving.
  {
    kern::Dentry* hot = dc.NewDentry(nullptr, parent, "hotname");
    kern::Dcache::SetPositive(hot, &stable_inode);
    std::atomic<bool> stop{false};
    cpus.RunOn(0, [&dc, parent, hot, &stop] {
      uint64_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        {
          lxfi::SpinGuard guard(dc.writer_lock(parent));
          dc.LinkChildLocked(parent, hot);
        }
        {
          lxfi::SpinGuard guard(dc.writer_lock(parent));
          dc.UnlinkChildLocked(parent, hot);
        }
        if ((++iter & 1023) == 0) {
          kern::CpuSet::QuiescePoint();
        }
      }
      kern::CpuSet::QuiescePoint();
    });
    cpus.RunOn(2, [&dc, parent, &stop] {
      const std::string_view hot_name("hotname");
      for (uint64_t iter = 0; iter < (1ull << 40); ++iter) {
        dc.Lookup(parent, hot_name);
        if ((iter & 4095) == 0) {
          kern::CpuSet::QuiescePoint();
          if (dc.seqlock_retries() > 0 || iter > (1ull << 24)) {
            break;
          }
        }
      }
      stop.store(true, std::memory_order_relaxed);
      kern::CpuSet::QuiescePoint();
    });
    cpus.Barrier();
    // The retry path must have been provably exercised: at least one
    // lookup overlapped a writer's seqlock section and looped.
    EXPECT_GT(dc.seqlock_retries(), 0u);
    bool linked;
    {
      lxfi::SpinGuard guard(dc.writer_lock(parent));
      linked = dc.FindChildLocked(parent, "hotname") == hot;
    }
    if (!linked) {
      dc.FreeNow(hot);  // FreeTreeNow below only reaps linked dentries
    }
  }

  cpus.Barrier();
  lxfi::EpochReclaimer::Global().Synchronize();
  dc.FreeTreeNow(parent);
  lxfi::EpochReclaimer::Global().Synchronize();
}

}  // namespace
