#include "src/lxfi/writer_set.h"

namespace lxfi {

void WriterSet::AddRange(Principal* writer, uintptr_t addr, size_t size) {
  if (size == 0) {
    return;
  }
  uintptr_t first = addr >> kPageShift;
  uintptr_t last = (addr + size - 1) >> kPageShift;
  SpinGuard guard(mu_);
  for (uintptr_t page = first; page <= last; ++page) {
    WriterVec& writers = pages_.GetOrInsert(page);
    if (!writers.contains(writer)) {
      writers.push_back(writer);
    }
  }
}

void WriterSet::AddPages(Principal* writer, const uint64_t* pages, size_t count) {
  SpinGuard guard(mu_);
  for (size_t i = 0; i < count; ++i) {
    WriterVec& writers = pages_.GetOrInsert(pages[i]);
    if (!writers.contains(writer)) {
      writers.push_back(writer);
    }
  }
}

void WriterSet::ClearRange(uintptr_t addr, size_t size) {
  if (size == 0) {
    return;
  }
  // Clearing is page-granular; only clear pages fully contained in the range
  // (a partial page may still hold other written locations). This is
  // conservative in the safe direction: stale writer bits only cost an
  // unnecessary full check, never a missed one (§5's benign false positive).
  uintptr_t first_full = (addr + (uintptr_t{1} << kPageShift) - 1) >> kPageShift;
  uintptr_t end = addr + size;
  uintptr_t last_full = end >> kPageShift;  // exclusive
  if (first_full >= last_full) {
    return;  // no fully-covered page; nothing erased, generation unchanged
  }
  SpinGuard guard(mu_);
  for (uintptr_t page = first_full; page < last_full; ++page) {
    pages_.Erase(page);
  }
  clear_gen_.fetch_add(1, std::memory_order_acq_rel);
}

void WriterSet::RemoveWriter(Principal* writer) {
  SpinGuard guard(mu_);
  pages_.EraseIf([writer](uint64_t page, const WriterVec& writers) {
    // EraseIf visits values by const ref; removal mutates in place, which
    // is safe because it never inserts or erases table entries mid-scan.
    auto& mut = const_cast<WriterVec&>(writers);
    mut.erase_value(writer);
    return mut.empty();
  });
  clear_gen_.fetch_add(1, std::memory_order_acq_rel);
}

WriterVec WriterSet::WritersFor(uintptr_t addr) const {
  SpinGuard guard(mu_);
  const WriterVec* writers = pages_.Find(addr >> kPageShift);
  return writers == nullptr ? WriterVec() : *writers;
}

}  // namespace lxfi
