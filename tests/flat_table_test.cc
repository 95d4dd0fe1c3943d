// Unit and property tests for the flat enforcement containers
// (src/base/flat_table.h, src/base/small_vector.h) and for the
// EnforcementContext memo invalidation rules.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/rng.h"
#include "src/base/small_vector.h"
#include "src/lxfi/enforcement_context.h"

namespace {

using lxfi::FlatTable;
using lxfi::SmallVector;

// --- SmallVector ------------------------------------------------------------

TEST(SmallVector, StaysInlineUpToCapacity) {
  SmallVector<uint64_t, 4> v;
  for (uint64_t i = 0; i < 4; ++i) {
    v.push_back(i);
  }
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(v[i], i);
  }
}

TEST(SmallVector, EraseValuePreservesOrder) {
  SmallVector<int, 2> v;
  for (int x : {1, 2, 3, 2, 4}) {
    v.push_back(x);
  }
  EXPECT_EQ(v.erase_value(2), 2u);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 3);
  EXPECT_EQ(v[2], 4);
  EXPECT_FALSE(v.contains(2));
  EXPECT_TRUE(v.contains(4));
}

TEST(SmallVector, CopyAndMoveAcrossInlineHeapBoundary) {
  SmallVector<int, 2> heap_backed;
  for (int i = 0; i < 10; ++i) {
    heap_backed.push_back(i);
  }
  SmallVector<int, 2> copy(heap_backed);
  ASSERT_EQ(copy.size(), 10u);
  EXPECT_EQ(copy[9], 9);

  SmallVector<int, 2> moved(std::move(heap_backed));
  ASSERT_EQ(moved.size(), 10u);
  EXPECT_EQ(moved[5], 5);
  EXPECT_EQ(heap_backed.size(), 0u);

  SmallVector<int, 2> inline_src;
  inline_src.push_back(7);
  SmallVector<int, 2> inline_moved(std::move(inline_src));
  ASSERT_EQ(inline_moved.size(), 1u);
  EXPECT_EQ(inline_moved[0], 7);

  // Assign heap-backed over inline and vice versa.
  inline_moved = copy;
  EXPECT_EQ(inline_moved.size(), 10u);
  copy = SmallVector<int, 2>();
  EXPECT_TRUE(copy.empty());
}

// --- FlatTable<void> (key set) ---------------------------------------------

using KeySet = FlatTable<void>;

TEST(FlatTableSet, InsertContainsErase) {
  KeySet s;
  EXPECT_FALSE(s.Contains(42));
  EXPECT_TRUE(s.Insert(42));
  EXPECT_FALSE(s.Insert(42));  // duplicate
  EXPECT_TRUE(s.Contains(42));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Erase(42));
  EXPECT_FALSE(s.Erase(42));
  EXPECT_FALSE(s.Contains(42));
  EXPECT_EQ(s.size(), 0u);
}

TEST(FlatTableSet, ZeroKeyLivesBesideTheArray) {
  KeySet s;
  EXPECT_FALSE(s.Contains(0));
  EXPECT_TRUE(s.Insert(0));
  EXPECT_FALSE(s.Insert(0));
  EXPECT_TRUE(s.Contains(0));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.capacity(), 0u);  // no slot array for the zero key alone
  std::vector<uint64_t> seen;
  s.ForEach([&seen](uint64_t key) { seen.push_back(key); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 0u);
  EXPECT_TRUE(s.Erase(0));
  EXPECT_FALSE(s.Contains(0));
  EXPECT_TRUE(s.empty());
}

TEST(FlatTableSet, DuplicateInsertAtLoadThresholdDoesNotRehash) {
  KeySet s;
  // Fill to exactly the grow threshold (next new insert would rehash).
  for (uint64_t i = 1; i <= 4; ++i) {
    s.Insert(i);
  }
  size_t cap = s.capacity();
  for (uint64_t i = 1; i <= 4; ++i) {
    EXPECT_FALSE(s.Insert(i));  // duplicate: pure lookup
    EXPECT_EQ(s.capacity(), cap);
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.Insert(99));  // genuinely new: now it may grow
  EXPECT_GT(s.capacity(), cap);
  EXPECT_TRUE(s.Contains(99));
}

TEST(FlatTable, DuplicateGetOrInsertAtLoadThresholdDoesNotRehash) {
  FlatTable<int> t;
  for (uint64_t i = 1; i <= 4; ++i) {
    t.GetOrInsert(i) = static_cast<int>(i);
  }
  size_t cap = t.capacity();
  EXPECT_EQ(t.GetOrInsert(3), 3);  // existing: pure lookup
  EXPECT_EQ(t.capacity(), cap);
}

TEST(FlatTableSet, GrowsThroughManyInserts) {
  KeySet s;
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(s.Insert(i * 0x9e3779b9ull));
  }
  EXPECT_EQ(s.size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(s.Contains(i * 0x9e3779b9ull));
  }
  EXPECT_FALSE(s.Contains(10001 * 0x9e3779b9ull));
}

// Deletion-heavy churn: backward-shift erase must keep every remaining key
// findable. This is the workload tombstone schemes degrade on and the one
// that catches shift bugs (keys displaced across the erased slot).
TEST(FlatTableSet, ChurnMatchesStdReference) {
  lxfi::Rng rng(1234);
  KeySet s;
  std::unordered_set<uint64_t> ref;
  for (int step = 0; step < 200000; ++step) {
    // Narrow key space (512) on a table that grows to a few hundred slots:
    // plenty of probe-chain overlap, plenty of wrap-around at the array end.
    uint64_t key = rng.Below(512);
    switch (rng.Below(3)) {
      case 0:
        EXPECT_EQ(s.Insert(key), ref.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(s.Erase(key), ref.erase(key) != 0);
        break;
      default:
        EXPECT_EQ(s.Contains(key), ref.count(key) != 0);
        break;
    }
    ASSERT_EQ(s.size(), ref.size());
  }
  // Final full sweep: everything the reference holds must be present.
  for (uint64_t key : ref) {
    ASSERT_TRUE(s.Contains(key)) << "lost key " << key << " after churn";
  }
}

// --- FlatTable --------------------------------------------------------------

TEST(FlatTable, GetOrInsertFindErase) {
  FlatTable<int> t;
  EXPECT_EQ(t.Find(7), nullptr);
  t.GetOrInsert(7) = 70;
  ASSERT_NE(t.Find(7), nullptr);
  EXPECT_EQ(*t.Find(7), 70);
  t.GetOrInsert(7) = 71;  // same slot
  EXPECT_EQ(*t.Find(7), 71);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Erase(7));
  EXPECT_EQ(t.Find(7), nullptr);
  EXPECT_FALSE(t.Erase(7));
}

TEST(FlatTable, InsertReportsNewVsOverwrite) {
  FlatTable<int> t;
  EXPECT_TRUE(t.Insert(1, 10));
  EXPECT_FALSE(t.Insert(1, 11));
  EXPECT_EQ(*t.Find(1), 11);
}

TEST(FlatTable, RehashPreservesValues) {
  FlatTable<uint64_t> t;
  for (uint64_t i = 0; i < 5000; ++i) {
    t.GetOrInsert(i) = i * 3;
  }
  EXPECT_EQ(t.size(), 5000u);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_NE(t.Find(i), nullptr);
    ASSERT_EQ(*t.Find(i), i * 3);
  }
}

TEST(FlatTable, EraseIfRemovesMatchingEntries) {
  FlatTable<int> t;
  for (uint64_t i = 0; i < 100; ++i) {
    t.GetOrInsert(i) = static_cast<int>(i % 2);
  }
  EXPECT_EQ(t.EraseIf([](uint64_t, const int& v) { return v == 1; }), 50u);
  EXPECT_EQ(t.size(), 50u);
  t.ForEach([](uint64_t key, const int& v) {
    EXPECT_EQ(v, 0);
    EXPECT_EQ(key % 2, 0u);
  });
}

TEST(FlatTable, ChurnMatchesStdReference) {
  lxfi::Rng rng(77);
  FlatTable<uint32_t> t;
  std::unordered_map<uint64_t, uint32_t> ref;
  for (int step = 0; step < 200000; ++step) {
    uint64_t key = rng.Below(384);
    switch (rng.Below(4)) {
      case 0:
      case 1: {
        auto value = static_cast<uint32_t>(rng.Below(1u << 30));
        t.GetOrInsert(key) = value;
        ref[key] = value;
        break;
      }
      case 2:
        EXPECT_EQ(t.Erase(key), ref.erase(key) != 0);
        break;
      default: {
        auto it = ref.find(key);
        const uint32_t* found = t.Find(key);
        if (it == ref.end()) {
          ASSERT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  for (const auto& [key, value] : ref) {
    const uint32_t* found = t.Find(key);
    ASSERT_NE(found, nullptr) << "lost key " << key << " after churn";
    ASSERT_EQ(*found, value);
  }
}

// SmallVector values inside FlatTable slots must survive the moves done by
// rehash and backward-shift erase (the CapTable/WriterSet configuration).
TEST(FlatTable, SmallVectorValuesSurviveChurn) {
  lxfi::Rng rng(5);
  FlatTable<SmallVector<uint64_t, 2>> t;
  std::unordered_map<uint64_t, std::vector<uint64_t>> ref;
  for (int step = 0; step < 50000; ++step) {
    uint64_t key = rng.Below(256);
    if (rng.Below(3) != 0) {
      uint64_t value = rng.Below(1000);
      t.GetOrInsert(key).push_back(value);
      ref[key].push_back(value);
    } else {
      t.Erase(key);
      ref.erase(key);
    }
  }
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& [key, expect] : ref) {
    const SmallVector<uint64_t, 2>* got = t.Find(key);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ((*got)[i], expect[i]);
    }
  }
}

// The lock-free probes against a reference: after every mutation, every
// key of the universe (0 included) must agree across the writer-side Find,
// the lock-free Contains and FindValueConcurrent, and std::unordered_map.
TEST(FlatTable, LockFreeProbesMatchStdReference) {
  lxfi::Rng rng(99);
  FlatTable<uint64_t> t;
  std::unordered_map<uint64_t, uint64_t> ref;
  constexpr uint64_t kUniverse = 160;
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng.Below(kUniverse);
    switch (rng.Below(5)) {
      case 0:
      case 1: {
        uint64_t value = rng.Next();
        EXPECT_EQ(t.Insert(key, value), ref.count(key) == 0);
        ref[key] = value;
        break;
      }
      case 2: {
        uint64_t value = rng.Next();
        t.GetOrInsert(key) = value;
        ref[key] = value;
        break;
      }
      case 3:
        EXPECT_EQ(t.Erase(key), ref.erase(key) != 0);
        break;
      default:
        if (step % 1000 == 999) {
          t.Clear();
          ref.clear();
        }
        break;
    }
    ASSERT_EQ(t.size(), ref.size());
    for (uint64_t k = 0; k < kUniverse; ++k) {
      auto it = ref.find(k);
      const uint64_t* found = t.Find(k);
      uint64_t value = 0;
      bool lock_free = t.FindValueConcurrent(k, &value);
      ASSERT_EQ(t.Contains(k), it != ref.end()) << "key " << k << " step " << step;
      ASSERT_EQ(lock_free, it != ref.end()) << "key " << k << " step " << step;
      if (it == ref.end()) {
        ASSERT_EQ(found, nullptr) << "key " << k << " step " << step;
      } else {
        ASSERT_NE(found, nullptr) << "key " << k << " step " << step;
        ASSERT_EQ(*found, it->second);
        ASSERT_EQ(value, it->second);
      }
    }
  }
}

// Lock-free storm: one writer churns a map and a set through rehashes and
// Clears while two registered EpochReclaimer::Global() readers probe them.
// Pinned keys (0 among them) are never erased except by Clear, and the
// writer re-inserts them right after each Clear inside an odd `phase`;
// a probe that ran wholly inside an even phase must find every pinned key
// with its value, and a transient key found must carry its value. Keys
// outside the universe must never be found. Replaced slot arrays retire
// through the reclaimer, so a reader still probing one never touches freed
// memory (ASan/TSan builds catch a Rep freed at once).
TEST(FlatTable, LockFreeStormAcrossRehashAndClear) {
  constexpr uint64_t kPinned[] = {0, 1, 2, 3, 0x51, 0x1000, 0xdeadbeef, ~uint64_t{0} >> 1};
  constexpr uint64_t kTransientBase = uint64_t{1} << 40;
  constexpr uint64_t kTransient = 600;  // grows 8 -> 2048 slots: 8 rehashes
  constexpr uint64_t kOutside = uint64_t{1} << 62;
  auto value_of = [](uint64_t key) { return key * 3 + 1; };

  FlatTable<uint64_t> map;
  KeySet set;
  std::atomic<uint64_t> phase{1};
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> failures{0};

  auto add_pinned = [&] {
    for (uint64_t k : kPinned) {
      map.Insert(k, value_of(k));
      set.Insert(k);
    }
  };
  add_pinned();
  phase.store(2, std::memory_order_release);

  auto reader = [&](uint64_t seed) {
    lxfi::EpochReclaimer& epochs = lxfi::EpochReclaimer::Global();
    lxfi::EpochReclaimer::Reader* self = epochs.Register();
    started.fetch_add(1, std::memory_order_release);
    ASSERT_NE(self, nullptr);
    lxfi::Rng rng(seed);
    while (!done.load(std::memory_order_acquire)) {
      uint64_t before = phase.load(std::memory_order_seq_cst);
      uint64_t pinned = kPinned[rng.Below(std::size(kPinned))];
      uint64_t value = 0;
      bool in_map = map.FindValueConcurrent(pinned, &value);
      bool map_has = map.Contains(pinned);
      bool in_set = set.Contains(pinned);
      // A transient key may or may not be present, but never with a wrong
      // value; probing one also walks the grown arrays the writer retires.
      uint64_t transient = kTransientBase + rng.Below(kTransient) * 0x9e3779b9ull;
      uint64_t transient_value = 0;
      bool wrong = map.FindValueConcurrent(transient, &transient_value) &&
                   transient_value != value_of(transient);
      uint64_t outside = kOutside + rng.Below(1 << 20);
      uint64_t junk = 0;
      bool stray = map.Contains(outside) || set.Contains(outside) ||
                   map.FindValueConcurrent(outside, &junk);
      uint64_t after = phase.load(std::memory_order_seq_cst);
      if (before == after && before % 2 == 0) {
        checked.fetch_add(1, std::memory_order_relaxed);
        if (!in_map || value != value_of(pinned) || !map_has || !in_set) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (stray || wrong) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      epochs.Quiesce(self);
    }
    epochs.Unregister(self);
  };
  std::thread r1(reader, 1);
  std::thread r2(reader, 2);

  while (started.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  int rehashes = 0;
  int clears = 0;
  size_t cap = map.capacity();
  auto note_growth = [&] {
    if (map.capacity() != cap) {
      cap = map.capacity();
      ++rehashes;
    }
  };
  for (int round = 0; round < 50; ++round) {
    for (uint64_t i = 0; i < kTransient; ++i) {
      uint64_t key = kTransientBase + i * 0x9e3779b9ull;
      map.Insert(key, value_of(key));
      set.Insert(key);
      note_growth();
    }
    for (uint64_t i = 0; i < kTransient; ++i) {
      uint64_t key = kTransientBase + i * 0x9e3779b9ull;
      EXPECT_TRUE(map.Erase(key));
      EXPECT_TRUE(set.Erase(key));
    }
    phase.fetch_add(1, std::memory_order_seq_cst);  // odd: pinned keys may be missing
    map.Clear();
    set.Clear();
    ++clears;
    cap = 0;
    add_pinned();
    phase.fetch_add(1, std::memory_order_seq_cst);
  }
  // Keep the readers probing the settled tables until they have checked
  // (bounded, so a reader that failed to register cannot hang the test).
  for (int spins = 0; checked.load(std::memory_order_relaxed) < 1000 && spins < 10000000; ++spins) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  lxfi::EpochReclaimer::Global().Synchronize();

  EXPECT_GE(rehashes, 3);
  EXPECT_GE(clears, 1);
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(map.size(), std::size(kPinned));
  EXPECT_EQ(set.size(), std::size(kPinned));
}

// --- EnforcementContext memos ----------------------------------------------

TEST(EnforcementContext, WriteMemoHitsWithinFilledRange) {
  lxfi::EnforcementContext ec;
  EXPECT_FALSE(ec.WriteMemoHit(0x1000, 8));
  ec.FillWriteMemo(0x1000, 0x2000, lxfi::RevocationEpoch::Current());
  EXPECT_TRUE(ec.WriteMemoHit(0x1000, 8));
  EXPECT_TRUE(ec.WriteMemoHit(0x1ff8, 8));
  EXPECT_TRUE(ec.WriteMemoHit(0x1000, 0x1000));
  EXPECT_FALSE(ec.WriteMemoHit(0xfff, 8));    // starts before
  EXPECT_FALSE(ec.WriteMemoHit(0x1ff9, 8));   // runs past the end
  EXPECT_FALSE(ec.WriteMemoHit(0x3000, 8));   // disjoint
}

TEST(EnforcementContext, EmptyRangeIsNeverMemoized) {
  lxfi::EnforcementContext ec;
  ec.FillWriteMemo(0x1000, 0x1000, lxfi::RevocationEpoch::Current());
  EXPECT_FALSE(ec.WriteMemoHit(0x1000, 8));
}

TEST(EnforcementContext, RevocationEpochInvalidatesMemos) {
  lxfi::EnforcementContext ec;
  ec.FillWriteMemo(0x1000, 0x2000, lxfi::RevocationEpoch::Current());
  ec.FillCallMemo(0xffffffff81000100ull, lxfi::RevocationEpoch::Current());
  EXPECT_TRUE(ec.WriteMemoHit(0x1000, 8));
  EXPECT_TRUE(ec.CallMemoHit(0xffffffff81000100ull));
  lxfi::RevocationEpoch::Bump();
  EXPECT_FALSE(ec.WriteMemoHit(0x1000, 8));
  EXPECT_FALSE(ec.CallMemoHit(0xffffffff81000100ull));
  // Refill re-arms at the new epoch.
  ec.FillWriteMemo(0x1000, 0x2000, lxfi::RevocationEpoch::Current());
  EXPECT_TRUE(ec.WriteMemoHit(0x1000, 8));
}

TEST(EnforcementContext, StaleEpochFillNeverValidates) {
  // The SMP fill protocol passes the epoch read *before* the table probe: if
  // a revoke raced the probe, the memo must be born invalid.
  lxfi::EnforcementContext ec;
  uint64_t before = lxfi::RevocationEpoch::Current();
  lxfi::RevocationEpoch::Bump();  // revoke lands between epoch read and fill
  ec.FillWriteMemo(0x1000, 0x2000, before);
  EXPECT_FALSE(ec.WriteMemoHit(0x1000, 8));
  ec.FillCallMemo(0xffffffff81000100ull, before);
  EXPECT_FALSE(ec.CallMemoHit(0xffffffff81000100ull));
}

TEST(EnforcementContext, CapTableRevokeInvalidatesAnyMemo) {
  lxfi::EnforcementContext ec;
  ec.FillWriteMemo(0x5000, 0x6000, lxfi::RevocationEpoch::Current());
  // A revoke on some unrelated table still invalidates (conservative).
  lxfi::CapTable other;
  other.GrantWrite(0x9000, 64);
  EXPECT_TRUE(other.RevokeWriteOverlapping(0x9000, 64));
  EXPECT_FALSE(ec.WriteMemoHit(0x5000, 8));
}

}  // namespace
