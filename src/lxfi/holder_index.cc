#include "src/lxfi/holder_index.h"

#include <algorithm>

#include "src/lxfi/cap_table.h"
#include "src/lxfi/principal.h"

namespace lxfi {

void HolderIndex::AddLocked(FlatTable<HolderVec>& map, uint64_t key, Principal* p) {
  HolderVec& holders = map.GetOrInsert(key);
  if (!holders.contains(p)) {
    holders.push_back(p);
  }
}

void HolderIndex::EraseLocked(FlatTable<HolderVec>& map, uint64_t key, Principal* p) {
  HolderVec* holders = map.Find(key);
  if (holders != nullptr && holders->erase_value(p) > 0 && holders->empty()) {
    map.Erase(key);
  }
}

size_t HolderIndex::Append(const HolderVec* holders, HolderList* out) {
  if (holders == nullptr) {
    return 0;
  }
  for (Principal* p : *holders) {
    out->push_back(p);
  }
  return holders->size();
}

void HolderIndex::Note(Principal* p, const Capability& cap) {
  HolderKeys& keys = p->holder_keys();
  if (keys.forgotten) {
    return;
  }
  switch (cap.kind) {
    case CapKind::kCall:
      if (keys.calls.Insert(cap.addr)) {
        SpinGuard guard(mu_);
        AddLocked(calls_, cap.addr, p);
      }
      return;
    case CapKind::kRef: {
      uint64_t key = CapTable::RefKey(cap.ref_type, cap.addr);
      if (keys.refs.Insert(key)) {
        SpinGuard guard(mu_);
        AddLocked(refs_, key, p);
      }
      return;
    }
    case CapKind::kWrite:
      break;
  }
  if (cap.size == 0) {
    return;  // CapTable stores nothing for an empty range
  }
  uintptr_t hi = CapTable::RangeEnd(cap.addr, cap.size);
  uintptr_t first = CapTable::BucketOf(cap.addr);
  uintptr_t last = CapTable::BucketOf(hi - 1);
  if (last - first >= kWideBuckets) {
    // Module-lifetime grants: rare enough to take the lock every time.
    SpinGuard guard(mu_);
    for (WideRange& w : wide_) {
      if (w.lo == cap.addr && w.hi == hi) {
        if (std::find(w.holders.begin(), w.holders.end(), p) == w.holders.end()) {
          w.holders.push_back(p);
        }
        return;
      }
    }
    wide_.push_back(WideRange{cap.addr, hi, {p}});
    return;
  }
  uint64_t fresh[kWideBuckets];
  size_t n = 0;
  for (uintptr_t b = first; b <= last; ++b) {
    if (keys.buckets.Insert(b)) {
      fresh[n++] = b;
    }
  }
  if (n > 0) {
    SpinGuard guard(mu_);
    for (size_t i = 0; i < n; ++i) {
      AddLocked(buckets_, fresh[i], p);
    }
  }
}

size_t HolderIndex::Collect(const Capability& cap, HolderList* out) const {
  SpinGuard guard(mu_);
  switch (cap.kind) {
    case CapKind::kCall:
      return Append(calls_.Find(cap.addr), out);
    case CapKind::kRef:
      return Append(refs_.Find(CapTable::RefKey(cap.ref_type, cap.addr)), out);
    case CapKind::kWrite:
      break;
  }
  if (cap.size == 0) {
    return 0;
  }
  uintptr_t hi = CapTable::RangeEnd(cap.addr, cap.size);
  uintptr_t first = CapTable::BucketOf(cap.addr);
  uintptr_t last = CapTable::BucketOf(hi - 1);
  size_t keyed = 0;
  int lists = 0;  // non-empty lists merged; only a merge can duplicate
  auto take = [&](const HolderVec* holders) {
    size_t n = Append(holders, out);
    keyed += n;
    lists += n > 0;
  };
  if (last - first < kMaxProbedBuckets) {
    for (uintptr_t b = first; b <= last; ++b) {
      take(buckets_.Find(b));
    }
  } else {
    buckets_.ForEach([&](uint64_t b, const HolderVec& holders) {
      if (b >= first && b <= last) {
        take(&holders);
      }
    });
  }
  for (const WideRange& w : wide_) {
    if (w.lo < hi && cap.addr < w.hi) {
      for (Principal* p : w.holders) {
        out->push_back(p);
      }
      lists += !w.holders.empty();
    }
  }
  if (lists > 1) {
    std::sort(out->begin(), out->end());
    Principal** end = std::unique(out->begin(), out->end());
    while (out->end() != end) {
      out->pop_back();
    }
  }
  return keyed;
}

void HolderIndex::Prune(const Capability& cap, const HolderList& holders) {
  uint64_t key = cap.addr;
  uintptr_t first = 0;
  uintptr_t last = 0;
  switch (cap.kind) {
    case CapKind::kCall:
      break;
    case CapKind::kRef:
      key = CapTable::RefKey(cap.ref_type, cap.addr);
      break;
    case CapKind::kWrite:
      first = CapTable::BucketOf(cap.addr);
      last = CapTable::BucketOf(CapTable::RangeEnd(cap.addr, cap.size) - 1);
      if (cap.size == 0 || last - first >= kMaxProbedBuckets) {
        return;
      }
      break;
  }
  for (Principal* p : holders) {
    SpinGuard principal_guard(p->lock());
    HolderKeys& keys = p->holder_keys();
    const CapTable& caps = p->caps();
    switch (cap.kind) {
      case CapKind::kCall:
        if (!caps.CheckCall(key) && keys.calls.Erase(key)) {
          SpinGuard guard(mu_);
          EraseLocked(calls_, key, p);
        }
        break;
      case CapKind::kRef:
        if (!caps.CheckRef(cap.ref_type, cap.addr) && keys.refs.Erase(key)) {
          SpinGuard guard(mu_);
          EraseLocked(refs_, key, p);
        }
        break;
      case CapKind::kWrite: {
        uint64_t stale[kMaxProbedBuckets];
        size_t n = 0;
        for (uintptr_t b = first; b <= last; ++b) {
          if (!caps.HoldsWriteInBucket(b) && keys.buckets.Erase(b)) {
            stale[n++] = b;
          }
        }
        if (n > 0) {
          SpinGuard guard(mu_);
          for (size_t i = 0; i < n; ++i) {
            EraseLocked(buckets_, stale[i], p);
          }
        }
        break;
      }
    }
  }
}

void HolderIndex::Forget(Principal* p) {
  SpinGuard principal_guard(p->lock());
  HolderKeys& keys = p->holder_keys();
  keys.forgotten = true;
  {
    SpinGuard guard(mu_);
    keys.calls.ForEach([&](uint64_t key) { EraseLocked(calls_, key, p); });
    keys.refs.ForEach([&](uint64_t key) { EraseLocked(refs_, key, p); });
    keys.buckets.ForEach([&](uint64_t key) { EraseLocked(buckets_, key, p); });
    for (WideRange& w : wide_) {
      w.holders.erase(std::remove(w.holders.begin(), w.holders.end(), p), w.holders.end());
    }
    wide_.erase(std::remove_if(wide_.begin(), wide_.end(),
                               [](const WideRange& w) { return w.holders.empty(); }),
                wide_.end());
  }
  keys.calls.Clear();
  keys.refs.Clear();
  keys.buckets.Clear();
}

size_t HolderIndex::entries() const {
  SpinGuard guard(mu_);
  size_t n = 0;
  auto count = [&n](uint64_t, const HolderVec& holders) { n += holders.size(); };
  calls_.ForEach(count);
  refs_.ForEach(count);
  buckets_.ForEach(count);
  for (const WideRange& w : wide_) {
    n += w.holders.size();
  }
  return n;
}

}  // namespace lxfi
