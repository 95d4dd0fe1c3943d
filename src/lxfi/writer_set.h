// Writer-set tracking (§4.1, §5).
//
// For every memory segment the runtime tracks which principals have been
// granted WRITE since the segment was last zeroed. Kernel-side indirect-call
// checks first ask "could any principal have written this slot?" — an empty
// writer set means the pointer is kernel-authored and the expensive
// capability check is skipped (the paper reports this removes ~2/3 of full
// checks on the netperf path; bench_writerset reproduces that ablation).
//
// The paper stores a page-table-like structure whose last level is a bitmap
// of "writer set non-empty" bits; the actual writers are recovered by
// traversing the global principal list. Here the map stores the small writer
// set directly per page — same observable semantics, same O(1) emptiness
// probe. The page map is an open-addressing flat table with the writers
// inline (src/base/flat_table.h), so the Empty() probe on every kernel
// indirect call walks contiguous memory only.
//
// Concurrency: the emptiness probe is a lock-free seqlock-validated key
// probe; mutation and the slow-path writer snapshot take the writer
// spinlock. The per-packet grant path avoids this lock
// almost entirely: Runtime::Grant records, per principal, which pages are
// already attributed (Principal::writer_pages(), under the per-principal
// lock it already holds) and only calls into the global table for pages
// never seen before — after warmup, steady-state traffic takes zero global
// locks here.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/base/flat_table.h"
#include "src/base/small_vector.h"
#include "src/base/sync.h"

namespace lxfi {

class Principal;

// Writers per page: virtually always 1 (the owning instance), occasionally
// shared+instance; 4 inline slots keep even contended pages heap-free.
using WriterVec = SmallVector<Principal*, 4>;

class WriterSet {
 public:
  static constexpr uintptr_t kPageShift = 12;

  void AddRange(Principal* writer, uintptr_t addr, size_t size);

  // Called when memory is zeroed (fresh kmalloc) or an owner is destroyed:
  // clears all writer attribution for the range. Also bumps the clear
  // generation, which invalidates every Principal::writer_pages() record —
  // a stale record would otherwise make a later re-grant skip global
  // re-attribution and hand the indirect-call guard a false "no writers".
  void ClearRange(uintptr_t addr, size_t size);

  // Generation of writer-attribution removals. Principal page records are
  // valid only for the generation they were recorded under (Runtime::Grant
  // flushes a principal's record set when the generation moved).
  uint64_t clear_generation() const { return clear_gen_.load(std::memory_order_acquire); }

  // Removes one principal from every page of the range (module unload).
  void RemoveWriter(Principal* writer);

  bool Empty(uintptr_t addr) const {
    // Present ⟹ non-empty: AddRange never leaves an empty writer vector,
    // and ClearRange/RemoveWriter erase entries that drain. Emptiness is
    // therefore a pure lock-free key probe — the value array is never
    // touched on the kernel's indirect-call fast path.
    return !pages_.Contains(addr >> kPageShift);
  }

  // Writers recorded for the page containing `addr`, copied under the lock
  // (the inline writer vector cannot be read lock-free). Slow path only.
  WriterVec WritersFor(uintptr_t addr) const;

  // Locked insert of `writer` into the given pages (the miss path of the
  // per-principal page record; see Runtime::Grant).
  void AddPages(Principal* writer, const uint64_t* pages, size_t count);

  size_t TrackedPages() const { return pages_.size(); }

 private:
  FlatTable<WriterVec> pages_;
  mutable Spinlock mu_;
  std::atomic<uint64_t> clear_gen_{1};
};

}  // namespace lxfi
