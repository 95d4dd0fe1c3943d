// Open-addressing hash containers for the enforcement hot path.
//
// FlatTable<V> maps uint64_t keys to values; FlatTable<void> is the same
// table as a key set, with no value storage. Layout and policy are chosen
// for the reference monitor's access pattern — a successful lookup on every
// module store and kernel indirect call:
//
//   * the key array doubles as the occupancy map (0 = empty; the rare
//     genuine zero key lives in a dedicated side slot), so probing touches
//     one contiguous array — not a control-byte load plus a key load from
//     two arrays, and not std::unordered_map's bucket-pointer plus
//     heap-node chase;
//   * Fibonacci (multiplicative) hashing: index = (key * φ⁻¹·2⁶⁴) >> shift.
//     One multiply, no division (libstdc++ buckets pay a hardware div per
//     lookup for their prime modulo), and sequential keys — page numbers of
//     a module's working set — scatter instead of clustering;
//   * branchless 4-slot probe windows: each round issues four independent
//     key loads and OR-combines the compares, so the loop branch depends
//     only on hit vs miss — which is stable on enforcement paths (legal
//     stores hit, probes for absent keys miss) — never on the per-key
//     probe length, which is what makes a naive one-slot-at-a-time probe
//     loop mispredict its way to unordered_map speeds. A 3-slot mirrored
//     tail (slots 0..2 replicated past the end) lets windows read through
//     the wraparound without masking each lane;
//   * linear probing at ≤0.5 load, erased by backward shift (no
//     tombstones): deletion-heavy churn (grant/revoke cycles, module
//     unload) re-packs probe windows in place and never degrades them the
//     way tombstone schemes do. Backward shift also keeps the window scan
//     sound: a live key can never sit on the far side of an empty slot
//     from its home, so "any lane matches" is exactly "present";
//   * a map's values sit in their own array and are only touched after a
//     key hit, keeping the probe loop's cache footprint at one word per
//     slot; a set allocates no value array at all.
//
// Read-mostly mode (the seqlock read path): geometry and slot storage live
// in one heap-allocated Rep published through an atomic pointer, so a
// lock-free reader always sees a self-consistent {array, mask, shift}
// triple even while a writer rehashes. Lock-free probes validate a SeqCount
// around relaxed-atomic slot loads and retry if a writer intervened;
// writers (serialized externally, e.g. by the per-principal Spinlock) bump
// the SeqCount around every mutation and retire replaced Reps through the
// quiescent-state EpochReclaimer::Global() instead of freeing them, so a
// reader still probing a superseded array never touches freed memory. With
// no reader registered, a retired Rep is freed at once.
//
// Both containers (FlatTable and FlatRangeMap) follow that protocol for
// every table: their lookups (Contains, FindValueConcurrent, FlatRangeMap's
// probes) are lock-free from any thread, and each runs one seqlock read
// loop that first skips tables with no elements. Find and the mutators are
// for the serialized writer.
//
// Keys are restricted to uint64_t because every enforcement key already is
// one (bucket index, page number, text address, interned REF hash).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/compiler.h"
#include "src/base/sync.h"

namespace lxfi {

namespace flat_internal {

inline constexpr size_t kMinCapacity = 8;
inline constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;  // 2^64 / φ
// Probe window: 4 slots compared per round, branchlessly. The key array
// carries kWindow-1 mirror slots past the end so a window never needs
// per-lane wraparound masking.
inline constexpr size_t kWindow = 4;

// Grow at 1/2 load, doubling: with power-of-two growth the live load factor
// stays in (0.25, 0.5], keeping linear-probe chains well inside one or two
// windows.
inline constexpr bool NeedsGrow(size_t size_after_insert, size_t capacity) {
  return size_after_insert * 2 > capacity;
}
inline constexpr size_t GrownCapacity(size_t capacity) {
  return capacity == 0 ? kMinCapacity : capacity * 2;
}

// Relaxed-atomic slot accessors. On the write side every slot store goes
// through RelaxedStore so concurrent seqlock readers race only with atomics
// (TSan-clean); RelaxedLoad is used by the probes. Both compile to plain
// moves on x86/arm64, so the single-threaded paths cost nothing.
inline uint64_t RelaxedLoad(const uint64_t* p) { return __atomic_load_n(p, __ATOMIC_RELAXED); }
inline void RelaxedStore(uint64_t* p, uint64_t v) { __atomic_store_n(p, v, __ATOMIC_RELAXED); }

template <typename Rep>
inline const Rep* AcquireRep(Rep* const* slot) {
  return __atomic_load_n(slot, __ATOMIC_ACQUIRE);
}

template <typename Rep>
inline void PublishRep(Rep** slot, Rep* rep) {
  __atomic_store_n(slot, rep, __ATOMIC_RELEASE);
}

// Element counts: written by the (serialized) writer, read by lock-free
// probes as an emptiness early-out. A reader that races a 0 -> 1 insert
// sees the table empty, as if it ran just before it.
inline size_t LoadSize(const size_t* p) { return __atomic_load_n(p, __ATOMIC_RELAXED); }
inline void StoreSize(size_t* p, size_t v) { __atomic_store_n(p, v, __ATOMIC_RELAXED); }

// The header of every Rep: the geometry of one capacity generation,
// immutable after construction. The slot array lives inline after the Rep
// (one load resolves geometry and array base together), so probe depth
// matches a direct member array.
struct Geometry {
  size_t cap;
  size_t mask;
  unsigned shift;

  size_t IndexOf(uint64_t key) const { return static_cast<size_t>((key * kGolden) >> shift); }
};

// Allocates a Rep (derived from Geometry) followed by `capacity + mirror`
// zeroed slots of type Slot.
template <typename Rep, typename Slot>
Rep* MakeRep(size_t capacity, size_t mirror) {
  size_t nslots = capacity + mirror;
  void* mem = ::operator new(sizeof(Rep) + nslots * sizeof(Slot));
  Rep* rep = new (mem) Rep();
  rep->cap = capacity;
  rep->mask = capacity - 1;
  rep->shift = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
  Slot* slots = reinterpret_cast<Slot*>(rep + 1);
  for (size_t i = 0; i < nslots; ++i) {
    slots[i] = Slot{};
  }
  return rep;
}

// Frees a replaced Rep after a grace period of the global reclaimer (at
// once when no reader is registered).
template <typename Rep>
inline void RetireRep(Rep* rep) {
  if (rep != nullptr) {
    EpochReclaimer::Global().Retire([rep] {
      rep->~Rep();
      ::operator delete(rep);
    });
  }
}

// First empty slot on `key`'s probe chain (writer side; `rep` has one).
// Rep::KeyAt(i) reads slot i's key.
template <typename Rep>
size_t FreeSlot(const Rep* rep, uint64_t key) {
  size_t i = rep->IndexOf(key);
  while (rep->KeyAt(i) != 0) {
    i = (i + 1) & rep->mask;
  }
  return i;
}

// Backward-shift erase of slot `hole`: moves each later entry of the probe
// chain that may sit in the hole back into it via move(from, to), and
// returns the slot left empty at the end (the caller clears it), so no
// tombstone is left behind.
template <typename Rep, typename Move>
size_t ShiftBack(const Rep* rep, size_t hole, Move&& move) {
  size_t i = hole;
  while (true) {
    i = (i + 1) & rep->mask;
    uint64_t key = rep->KeyAt(i);
    if (key == 0) {
      return hole;
    }
    // The entry at i may move into the hole iff doing so does not place it
    // before its ideal slot in probe order.
    size_t ideal = rep->IndexOf(key);
    if (((i - ideal) & rep->mask) >= ((i - hole) & rep->mask)) {
      move(i, hole);
      hole = i;
    }
  }
}

// The rehash loop: moves every occupied slot of *slot's Rep (if any) into
// `fresh` via move(old_slot, fresh_slot), publishes `fresh` and retires the
// old Rep.
template <typename Rep, typename Move>
void Rehash(SeqCount& seq, Rep** slot, Rep* fresh, Move&& move) {
  Rep* old = *slot;
  if (old != nullptr) {
    for (size_t i = 0; i < old->cap; ++i) {
      uint64_t key = old->KeyAt(i);
      if (key != 0) {
        move(i, FreeSlot(fresh, key));
      }
    }
  }
  seq.WriteBegin();
  PublishRep(slot, fresh);
  seq.WriteEnd();
  RetireRep(old);
}

// Value storage of a FlatTable<void> (a set): occupies no space.
struct NoValue {};

}  // namespace flat_internal

template <typename V>
class FlatTable {
  static constexpr bool kSet = std::is_void_v<V>;
  static constexpr bool kMap = !kSet;
  // What a slot holds besides its key (nothing, for a set).
  using Value = std::conditional_t<kSet, flat_internal::NoValue, V>;
  using Values = std::conditional_t<kSet, flat_internal::NoValue, std::vector<Value>>;
  static constexpr size_t kNoSlot = ~size_t{0};

  // Header + inline key array (cap + kWindow-1 mirror slots; 0 = empty).
  // A map's value array is only touched after a key hit and may stay a
  // vector.
  struct Rep : flat_internal::Geometry {
    [[no_unique_address]] Values vals;  // cap slots (maps only)

    uint64_t* keys() { return reinterpret_cast<uint64_t*>(this + 1); }
    const uint64_t* keys() const { return reinterpret_cast<const uint64_t*>(this + 1); }
    uint64_t KeyAt(size_t i) const { return keys()[i]; }
  };

 public:
  FlatTable() = default;
  ~FlatTable() { flat_internal::RetireRep(rep_); }

  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return rep_ == nullptr ? 0 : rep_->cap; }

  void Clear() {
    seq_.WriteBegin();
    Rep* old = rep_;
    flat_internal::PublishRep(&rep_, static_cast<Rep*>(nullptr));
    flat_internal::StoreSize(&size_, 0);
    SetHasZero(false);
    if constexpr (kMap) {
      StoreVal(&zero_val_, Value{});
    }
    seq_.WriteEnd();
    flat_internal::RetireRep(old);
  }

  // Lock-free key-presence probe (seqlock protocol; see file comment). Reads
  // keys only — a map's value array is never touched.
  bool Contains(uint64_t key) const {
    return Lookup(key, [](const Value*) {}, nullptr);
  }

  // Lock-free lookup of a pointer-sized trivially copyable value (e.g. the
  // instance-principal map, the dcache per-parent child index). Returns
  // false when absent. `retries`, when non-null, counts seqlock validation
  // failures (reads that overlapped a writer and looped) — the dcache storm
  // test uses it to prove the retry path is actually exercised.
  bool FindValueConcurrent(uint64_t key, Value* out, RelaxedCell* retries = nullptr) const
    requires kMap
  {
    static_assert(std::is_trivially_copyable_v<V> && sizeof(V) == sizeof(uint64_t),
                  "concurrent value loads require word-sized trivially copyable values");
    uint64_t raw = 0;
    auto load = [&raw](const V* v) {
      raw = flat_internal::RelaxedLoad(reinterpret_cast<const uint64_t*>(v));
    };
    if (!Lookup(key, load, retries)) {
      return false;
    }
    __builtin_memcpy(out, &raw, sizeof(V));
    return true;
  }

  // Writer-side lookup: the value for `key`, or null.
  Value* Find(uint64_t key)
    requires kMap
  {
    if (LXFI_UNLIKELY(key == 0)) {
      return HasZero() ? &zero_val_ : nullptr;
    }
    size_t slot;
    return rep_ != nullptr && ProbeWindows(rep_, key, &slot) == 1 ? &rep_->vals[slot] : nullptr;
  }

  const Value* Find(uint64_t key) const
    requires kMap
  {
    return const_cast<FlatTable*>(this)->Find(key);
  }

  // Set insert; returns true if the key was newly inserted. A key already
  // present costs one probe and writes nothing (no seqlock section, no
  // rehash), so steady-state re-grants stay pure lookups.
  bool Insert(uint64_t key)
    requires kSet
  {
    if (key == 0 ? HasZero() : SlotOf(key) != kNoSlot) {
      return false;
    }
    Add(key, Value{});
    return true;
  }

  // Map insert or overwrite; returns true if the key was newly inserted.
  bool Insert(uint64_t key, Value value)
    requires kMap
  {
    Value* existing = Find(key);
    if (existing == nullptr) {
      Add(key, std::move(value));
      return true;
    }
    seq_.WriteBegin();
    StoreVal(existing, std::move(value));
    seq_.WriteEnd();
    return false;
  }

  // Returns the value for `key`, inserting a default-constructed one first
  // if absent. An existing key is a pure lookup, even at the load threshold.
  Value& GetOrInsert(uint64_t key)
    requires kMap
  {
    if (key == 0) {
      if (!HasZero()) {
        Add(0, Value{});
      }
      return zero_val_;
    }
    size_t i = SlotOf(key);
    if (i == kNoSlot) {
      i = Add(key, Value{});
    }
    return rep_->vals[i];
  }

  // Backward-shift erase (see flat_internal::ShiftBack). Returns true if the
  // key was present.
  bool Erase(uint64_t key) {
    size_t i = key == 0 ? 0 : SlotOf(key);
    if (key == 0 ? !HasZero() : i == kNoSlot) {
      return false;
    }
    seq_.WriteBegin();
    if (key == 0) {
      SetHasZero(false);
      if constexpr (kMap) {
        StoreVal(&zero_val_, Value{});
      }
    } else {
      Rep* rep = rep_;
      size_t hole = flat_internal::ShiftBack(rep, i, [rep](size_t from, size_t to) {
        StoreKey(rep, to, rep->keys()[from]);
        if constexpr (kMap) {
          StoreVal(&rep->vals[to], std::move(rep->vals[from]));
        }
      });
      StoreKey(rep, hole, 0);
      if constexpr (kMap) {
        StoreVal(&rep->vals[hole], Value{});
      }
    }
    seq_.WriteEnd();
    flat_internal::StoreSize(&size_, size_ - 1);
    return true;
  }

  // Visits every key (set) or every (key, value) (map); order is
  // unspecified. `fn` must not mutate the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (HasZero()) {
      if constexpr (kSet) {
        fn(uint64_t{0});
      } else {
        fn(uint64_t{0}, zero_val_);
      }
    }
    if (rep_ == nullptr) {
      return;
    }
    for (size_t i = 0; i < rep_->cap; ++i) {
      if (rep_->keys()[i] == 0) {
        continue;
      }
      if constexpr (kSet) {
        fn(rep_->keys()[i]);
      } else {
        fn(rep_->keys()[i], rep_->vals[i]);
      }
    }
  }

  // Erases every entry for which `pred(key, value)` is true; returns the
  // number erased. (Collect-then-erase so backward shifts cannot skip or
  // revisit live entries mid-scan.)
  template <typename Pred>
  size_t EraseIf(Pred&& pred)
    requires kMap
  {
    std::vector<uint64_t> victims;
    ForEach([&](uint64_t key, const Value& value) {
      if (pred(key, value)) {
        victims.push_back(key);
      }
    });
    for (uint64_t key : victims) {
      Erase(key);
    }
    return victims.size();
  }

 private:
  static Rep* NewRep(size_t capacity) {
    Rep* rep = flat_internal::MakeRep<Rep, uint64_t>(capacity, flat_internal::kWindow - 1);
    if constexpr (kMap) {
      rep->vals.resize(capacity);
    }
    return rep;
  }

  bool HasZero() const { return has_zero_; }
  void SetHasZero(bool v) { __atomic_store_n(&has_zero_, v, __ATOMIC_RELAXED); }

  // The one lock-free lookup: the element-count early-out (most tables
  // probed on enforcement paths are empty: skip the seqlock), then one
  // seqlock-validated section — the zero key's side slot, or ProbeWindows.
  // For a map, `on_hit(value)` runs inside the section on `key`'s value
  // slot, may make only relaxed loads from it, and counts only once the
  // section validates. `retries`, when non-null, counts sections that
  // overlapped a writer.
  template <typename OnHit>
  bool Lookup(uint64_t key, OnHit&& on_hit, RelaxedCell* retries) const {
    if (flat_internal::LoadSize(&size_) == 0) {
      return false;
    }
    if (LXFI_UNLIKELY(key == 0)) {
      return ReadValidated(
          [&](const Rep*) {
            bool found = __atomic_load_n(&has_zero_, __ATOMIC_RELAXED);
            if constexpr (kMap) {
              if (found) {
                on_hit(&zero_val_);
              }
            }
            return found ? 1 : 0;
          },
          retries);
    }
    return ReadValidated(
        [&](const Rep* rep) {
          size_t slot = 0;
          int found = rep == nullptr ? 0 : ProbeWindows(rep, key, &slot);
          if constexpr (kMap) {
            if (found == 1) {
              on_hit(&rep->vals[slot]);
            }
          }
          return found;
        },
        retries);
  }

  // The seqlock read loop: runs `section(rep)` on the published Rep (1 hit,
  // 0 miss, -1 torn) until a run validates.
  template <typename Section>
  bool ReadValidated(Section&& section, RelaxedCell* retries) const {
    while (true) {
      uint64_t s = seq_.ReadBegin();
      int found = section(flat_internal::AcquireRep(&rep_));
      if (found >= 0 && seq_.ReadValidate(s)) {
        return found == 1;
      }
      if (retries != nullptr) {
        ++*retries;
      }
      CpuRelax();
    }
  }

  // The window probe behind every lookup: one 4-slot window per round over
  // `rep`'s keys (non-zero `key`). Returns 1 on a hit, with the slot in
  // *slot; 0 on a miss; -1 if it overran the table — torn state under a
  // concurrent writer, which Lookup revalidates and retries (the writer
  // probing its own table never sees it).
  static int ProbeWindows(const Rep* rep, uint64_t key, size_t* slot) {
    const uint64_t* keys = rep->keys();
    const size_t mask = rep->mask;
    size_t i = rep->IndexOf(key);
    for (size_t steps = 0; steps <= rep->cap; steps += flat_internal::kWindow) {
      uint64_t c0 = flat_internal::RelaxedLoad(keys + i);
      uint64_t c1 = flat_internal::RelaxedLoad(keys + i + 1);
      uint64_t c2 = flat_internal::RelaxedLoad(keys + i + 2);
      uint64_t c3 = flat_internal::RelaxedLoad(keys + i + 3);
      if (LXFI_LIKELY((c0 == key) | (c1 == key) | (c2 == key) | (c3 == key))) {
        // Arithmetic lane select: which lane matched is random per query, so
        // this must not become a branch tree (it would mispredict per hit).
        // Presence-only callers discard *slot and the compiler drops this.
        size_t n0 = c0 != key, n01 = n0 & (c1 != key), n012 = n01 & (c2 != key);
        *slot = (i + n0 + n01 + n012) & mask;
        return 1;
      }
      if ((c0 == 0) | (c1 == 0) | (c2 == 0) | (c3 == 0)) {
        return 0;
      }
      i = (i + flat_internal::kWindow) & mask;
    }
    return -1;
  }

  // The mutators' search: the slot holding non-zero `key`, or kNoSlot. A
  // one-slot walk: a key being erased or re-inserted usually sits at its
  // home slot, where this is cheaper than loading a whole window and
  // selecting the lane.
  size_t SlotOf(uint64_t key) const {
    if (rep_ == nullptr) {
      return kNoSlot;
    }
    for (size_t i = rep_->IndexOf(key); rep_->KeyAt(i) != 0; i = (i + 1) & rep_->mask) {
      if (rep_->KeyAt(i) == key) {
        return i;
      }
    }
    return kNoSlot;
  }

  // Adds absent `key` (growing first if needed); returns its slot (0 for
  // the zero key). Value and key land in ONE seqlock write section: a
  // two-section insert (key published with a default value, value stored
  // later) would let FindValueConcurrent validate in the gap and return the
  // default.
  size_t Add(uint64_t key, Value value) {
    if (key != 0 && flat_internal::NeedsGrow(size_ + 1, capacity())) {
      Rep* old = rep_;
      Rep* fresh = NewRep(flat_internal::GrownCapacity(capacity()));
      flat_internal::Rehash(seq_, &rep_, fresh, [old, fresh](size_t from, size_t to) {
        StoreKey(fresh, to, old->keys()[from]);
        if constexpr (kMap) {
          fresh->vals[to] = std::move(old->vals[from]);
        }
      });
    }
    size_t i = key == 0 ? 0 : flat_internal::FreeSlot(rep_, key);
    seq_.WriteBegin();
    if constexpr (kMap) {
      StoreVal(key == 0 ? &zero_val_ : &rep_->vals[i], std::move(value));
    }
    if (key == 0) {
      SetHasZero(true);
    } else {
      StoreKey(rep_, i, key);
    }
    seq_.WriteEnd();
    flat_internal::StoreSize(&size_, size_ + 1);
    return i;
  }

  // All key writes go through here to keep the mirrored tail coherent.
  static void StoreKey(Rep* rep, size_t i, uint64_t v) {
    flat_internal::RelaxedStore(rep->keys() + i, v);
    if (i < flat_internal::kWindow - 1) {
      flat_internal::RelaxedStore(rep->keys() + rep->cap + i, v);
    }
  }

  // Value stores: atomic for word-sized trivially copyable values (the kinds
  // FindValueConcurrent may race with), plain otherwise.
  static void StoreVal(Value* dst, Value v) {
    if constexpr (std::is_trivially_copyable_v<Value> && sizeof(Value) == sizeof(uint64_t)) {
      uint64_t raw;
      __builtin_memcpy(&raw, &v, sizeof(Value));
      flat_internal::RelaxedStore(reinterpret_cast<uint64_t*>(dst), raw);
    } else {
      *dst = std::move(v);
    }
  }

  Rep* rep_ = nullptr;
  size_t size_ = 0;  // entries, the zero key included
  bool has_zero_ = false;
  [[no_unique_address]] Value zero_val_{};
  SeqCount seq_;
};

// Same-hash collision chains over FlatTable<T*> values (the dcache child
// index, the VFS mount table and filesystem-type registry): entries carry
// an intrusive next pointer, the table maps hash -> chain head. Writers
// are externally serialized; readers traverse lock-free after a validated
// FindValueConcurrent probe, so the next links are accessed with relaxed
// atomics on both sides. The publish ordering is load-bearing: an insert
// points the new entry at the old head BEFORE the table insert publishes
// it, so a reader that wins the race still sees a complete chain; an
// unlinked entry must then be epoch-retired, never freed in place.
namespace flat_chain {

template <typename T>
T* Next(T* const* p) {
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}

template <typename T>
void SetNext(T** p, T* v) {
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}

// NextPtr is the entry type's intrusive next member (e.g.
// &Dentry::hash_next). Caller holds the table's writer lock.
template <auto NextPtr, typename T>
void InsertLocked(FlatTable<T*>& table, uint64_t h, T* e) {
  T* const* headp = table.Find(h);
  SetNext(&(e->*NextPtr), headp != nullptr ? *headp : nullptr);
  table.Insert(h, e);
}

template <auto NextPtr, typename T>
void UnlinkLocked(FlatTable<T*>& table, uint64_t h, T* e) {
  T* const* headp = table.Find(h);
  if (headp == nullptr) {
    return;
  }
  if (*headp == e) {
    T* next = Next(&(e->*NextPtr));
    if (next != nullptr) {
      table.Insert(h, next);  // head replacement: one seqlock write section
    } else {
      table.Erase(h);
    }
    return;
  }
  for (T* p = *headp; p != nullptr; p = Next(&(p->*NextPtr))) {
    if (Next(&(p->*NextPtr)) == e) {
      SetNext(&(p->*NextPtr), Next(&(e->*NextPtr)));
      return;
    }
  }
}

}  // namespace flat_chain

// Interleaved open-addressing multimap from a key to address ranges
// [lo, hi), specialized for the WRITE-capability hot path: the key and the
// range live in the same 32-byte slot, so a containment check needs no
// second dependent load into a separate value array — the load that
// resolves the key also delivers the range (the property that makes
// std::unordered_map's key-adjacent nodes fast, without the heap chase).
//
// Duplicate keys are allowed: a bucket covered by several granted ranges
// simply owns several slots along one probe chain. Lookup tests containment
// on every key match and stops only at an empty slot; with backward-shift
// erase the "stop at empty" rule stays exact. Probing scans 2-slot windows
// branchlessly, with one mirror slot past the end for wraparound. Lookups
// are lock-free (seqlock-validated); mutation must be externally serialized.
//
// Keys must be non-zero (0 marks an empty slot); CapTable passes
// bucket_index + 1.
class FlatRangeMap {
  struct Slot {
    uint64_t key;  // 0 = empty
    uintptr_t lo;
    uintptr_t hi;
  };

  // Header + inline slot array (cap slots + 1 mirror slot).
  struct Rep : flat_internal::Geometry {
    Slot* slots() { return reinterpret_cast<Slot*>(this + 1); }
    const Slot* slots() const { return reinterpret_cast<const Slot*>(this + 1); }
    uint64_t KeyAt(size_t i) const { return slots()[i].key; }
  };

 public:
  FlatRangeMap() = default;
  ~FlatRangeMap() { flat_internal::RetireRep(rep_); }

  FlatRangeMap(const FlatRangeMap&) = delete;
  FlatRangeMap& operator=(const FlatRangeMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return rep_ == nullptr ? 0 : rep_->cap; }

  void Clear() {
    seq_.WriteBegin();
    Rep* old = rep_;
    flat_internal::PublishRep(&rep_, static_cast<Rep*>(nullptr));
    flat_internal::StoreSize(&size_, 0);
    seq_.WriteEnd();
    flat_internal::RetireRep(old);
  }

  // True iff some range stored under `key` fully contains [addr, end);
  // reports that range via *lo/*hi.
  bool FindContaining(uint64_t key, uintptr_t addr, uintptr_t end, uintptr_t* lo,
                      uintptr_t* hi) const {
    return Probe<true>(key, addr, end, lo, hi);
  }

  // True iff any range stored under `key` overlaps [addr, end): the revoke
  // pre-filter, so RevokeEverywhere locks only principals that can hold
  // the capability.
  bool AnyOverlap(uint64_t key, uintptr_t addr, uintptr_t end) const {
    uintptr_t lo, hi;
    return Probe<false>(key, addr, end, &lo, &hi);
  }

  // Inserts (key, [lo, hi)); exact duplicates are ignored. Returns true if
  // a slot was added.
  bool Insert(uint64_t key, uintptr_t lo, uintptr_t hi) {
    // Probe for an exact duplicate before considering growth, so a repeat
    // grant at the load threshold stays a pure lookup.
    if (SlotOf(key, lo, hi) != kNoSlot) {
      return false;
    }
    if (flat_internal::NeedsGrow(size_ + 1, capacity())) {
      Rep* old = rep_;
      Rep* fresh = flat_internal::MakeRep<Rep, Slot>(flat_internal::GrownCapacity(capacity()), 1);
      flat_internal::Rehash(seq_, &rep_, fresh, [old, fresh](size_t from, size_t to) {
        StoreSlot(fresh, to, old->slots()[from]);
      });
    }
    size_t i = flat_internal::FreeSlot(rep_, key);
    seq_.WriteBegin();
    StoreSlot(rep_, i, Slot{key, lo, hi});
    seq_.WriteEnd();
    flat_internal::StoreSize(&size_, size_ + 1);
    return true;
  }

  // Removes the exact (key, [lo, hi)) slot; backward-shift re-pack.
  bool EraseExact(uint64_t key, uintptr_t lo, uintptr_t hi) {
    size_t i = SlotOf(key, lo, hi);
    if (i == kNoSlot) {
      return false;
    }
    Rep* rep = rep_;
    seq_.WriteBegin();
    size_t hole = flat_internal::ShiftBack(
        rep, i, [rep](size_t from, size_t to) { StoreSlot(rep, to, rep->slots()[from]); });
    StoreSlot(rep, hole, Slot{0, 0, 0});
    seq_.WriteEnd();
    flat_internal::StoreSize(&size_, size_ - 1);
    return true;
  }

  // Visits every range stored under `key` (duplicate-key chain walk).
  template <typename Fn>
  void ForEachWithKey(uint64_t key, Fn&& fn) const {
    if (rep_ == nullptr) {
      return;
    }
    for (size_t i = rep_->IndexOf(key); rep_->KeyAt(i) != 0; i = (i + 1) & rep_->mask) {
      if (rep_->KeyAt(i) == key) {
        fn(rep_->slots()[i].lo, rep_->slots()[i].hi);
      }
    }
  }

  // Visits every (key, lo, hi) slot; order is unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (rep_ == nullptr) {
      return;
    }
    for (size_t i = 0; i < rep_->cap; ++i) {
      if (rep_->slots()[i].key != 0) {
        fn(rep_->slots()[i].key, rep_->slots()[i].lo, rep_->slots()[i].hi);
      }
    }
  }

 private:
  static constexpr size_t kNoSlot = ~size_t{0};

  // Writer-side probe: the slot holding exactly (key, [lo, hi)), or kNoSlot.
  size_t SlotOf(uint64_t key, uintptr_t lo, uintptr_t hi) const {
    if (rep_ == nullptr) {
      return kNoSlot;
    }
    for (size_t i = rep_->IndexOf(key); rep_->KeyAt(i) != 0; i = (i + 1) & rep_->mask) {
      const Slot& s = rep_->slots()[i];
      if (s.key == key && s.lo == lo && s.hi == hi) {
        return i;
      }
    }
    return kNoSlot;
  }

  static void StoreField(uintptr_t* p, uintptr_t v) {
    __atomic_store_n(p, v, __ATOMIC_RELAXED);
  }

  static void StoreSlot(Rep* rep, size_t i, Slot s) {
    // Field-wise relaxed stores: a concurrent reader may see a torn slot,
    // which the seqlock validation rejects; what matters is that every
    // access is atomic at word granularity.
    flat_internal::RelaxedStore(&rep->slots()[i].key, s.key);
    StoreField(&rep->slots()[i].lo, s.lo);
    StoreField(&rep->slots()[i].hi, s.hi);
    if (i == 0) {
      flat_internal::RelaxedStore(&rep->slots()[rep->cap].key, s.key);
      StoreField(&rep->slots()[rep->cap].lo, s.lo);
      StoreField(&rep->slots()[rep->cap].hi, s.hi);
    }
  }

  // Seqlock retry loop around ProbeRep.
  template <bool kContainment>
  bool Probe(uint64_t key, uintptr_t addr, uintptr_t end, uintptr_t* lo, uintptr_t* hi) const {
    if (flat_internal::LoadSize(&size_) == 0) {
      return false;  // most principals' tables are empty: skip the seqlock
    }
    while (true) {
      uint64_t s = seq_.ReadBegin();
      const Rep* rep = flat_internal::AcquireRep(&rep_);
      int found = rep == nullptr ? 0 : ProbeRep<kContainment>(rep, key, addr, end, lo, hi);
      if (found >= 0 && seq_.ReadValidate(s)) {
        return found == 1;
      }
      CpuRelax();
    }
  }

  // One 2-slot window per round: 1 hit, 0 miss, -1 overran (torn state;
  // the caller revalidates and retries). A hit is containment of [addr,
  // end) or, without kContainment, overlap with it.
  template <bool kContainment>
  static int ProbeRep(const Rep* rep, uint64_t key, uintptr_t addr, uintptr_t end, uintptr_t* lo,
                      uintptr_t* hi) {
    const Slot* s = rep->slots();
    const size_t mask = rep->mask;
    size_t i = rep->IndexOf(key);
    for (size_t steps = 0; steps <= rep->cap; steps += 2) {
      const uint64_t k0 = flat_internal::RelaxedLoad(&s[i].key);
      const uint64_t k1 = flat_internal::RelaxedLoad(&s[i + 1].key);
      // Match lanes first: a slot at its home position may legitimately sit
      // one past an empty slot within the window. A key match without a hit
      // does not end the probe — another range for the same bucket may
      // follow on the chain.
      if ((k0 == key && RangeHit<kContainment>(s + i, addr, end, lo, hi)) ||
          (k1 == key && RangeHit<kContainment>(s + i + 1, addr, end, lo, hi))) {
        return 1;
      }
      if ((k0 == 0) | (k1 == 0)) {
        return 0;
      }
      i = (i + 2) & mask;
    }
    return -1;
  }

  template <bool kContainment>
  static bool RangeHit(const Slot* slot, uintptr_t addr, uintptr_t end, uintptr_t* lo,
                       uintptr_t* hi) {
    uintptr_t slo = __atomic_load_n(&slot->lo, __ATOMIC_RELAXED);
    uintptr_t shi = __atomic_load_n(&slot->hi, __ATOMIC_RELAXED);
    if (kContainment ? slo <= addr && end <= shi : slo < end && addr < shi) {
      *lo = slo;
      *hi = shi;
      return true;
    }
    return false;
  }

  Rep* rep_ = nullptr;
  size_t size_ = 0;
  SeqCount seq_;
};

}  // namespace lxfi
