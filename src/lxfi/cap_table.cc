#include "src/lxfi/cap_table.h"

#include <algorithm>

#include "src/base/small_vector.h"
#include "src/base/string_util.h"

namespace lxfi {

const char* CapKindName(CapKind kind) {
  switch (kind) {
    case CapKind::kWrite:
      return "WRITE";
    case CapKind::kRef:
      return "REF";
    case CapKind::kCall:
      return "CALL";
  }
  return "?";
}

std::string Capability::ToString() const {
  switch (kind) {
    case CapKind::kWrite:
      return StrFormat("WRITE(%#llx, %zu)", static_cast<unsigned long long>(addr), size);
    case CapKind::kCall:
      return StrFormat("CALL(%#llx)", static_cast<unsigned long long>(addr));
    case CapKind::kRef:
      return StrFormat("REF(%#llx, %#llx)", static_cast<unsigned long long>(ref_type),
                       static_cast<unsigned long long>(addr));
  }
  return "?";
}

void CapTable::GrantWrite(uintptr_t addr, size_t size) {
  if (size == 0) {
    return;  // an empty range authorizes nothing; don't create empty buckets
  }
  uintptr_t end = RangeEnd(addr, size);
  uintptr_t first = BucketOf(addr);
  uintptr_t last = BucketOf(end - 1);
  for (uintptr_t b = first; b <= last; ++b) {
    write_buckets_.Insert(BucketKey(b), addr, end);  // exact dups ignored
  }
}

bool CapTable::RevokeWriteOverlapping(uintptr_t addr, size_t size) {
  if (size == 0 || write_buckets_.empty()) {
    return false;
  }
  // Collect overlapping ranges from the buckets the query range touches,
  // then remove each from every bucket *it* touches — a range straddling a
  // 4 KiB boundary has copies in buckets the query may not cover.
  uintptr_t qend = RangeEnd(addr, size);
  struct Range {
    uintptr_t lo;
    uintptr_t hi;
    bool operator==(const Range& o) const { return lo == o.lo && hi == o.hi; }
  };
  SmallVector<Range, 8> victims;
  uintptr_t first = BucketOf(addr);
  uintptr_t last = BucketOf(qend - 1);
  for (uintptr_t b = first; b <= last; ++b) {
    write_buckets_.ForEachWithKey(BucketKey(b), [&](uintptr_t lo, uintptr_t hi) {
      Range r{lo, hi};
      if (lo < qend && addr < hi && !victims.contains(r)) {
        victims.push_back(r);
      }
    });
  }
  for (const Range& r : victims) {
    uintptr_t rf = BucketOf(r.lo);
    uintptr_t rl = BucketOf(r.hi - 1);
    for (uintptr_t b = rf; b <= rl; ++b) {
      write_buckets_.EraseExact(BucketKey(b), r.lo, r.hi);
    }
  }
  if (victims.empty()) {
    return false;
  }
  RevocationEpoch::Bump();
  return true;
}

std::vector<Capability> CapTable::WriteRanges() const {
  std::vector<Capability> out;
  write_buckets_.ForEach([&out](uint64_t key, uintptr_t lo, uintptr_t hi) {
    // Report a range only from its first bucket to avoid duplicates.
    if (BucketKey(BucketOf(lo)) == key) {
      out.push_back(Capability::Write(lo, static_cast<size_t>(hi - lo)));
    }
  });
  std::sort(out.begin(), out.end(), [](const Capability& a, const Capability& b) {
    return a.addr != b.addr ? a.addr < b.addr : a.size < b.size;
  });
  return out;
}

void CapTable::Grant(const Capability& cap) {
  switch (cap.kind) {
    case CapKind::kWrite:
      GrantWrite(cap.addr, cap.size);
      break;
    case CapKind::kCall:
      GrantCall(cap.addr);
      break;
    case CapKind::kRef:
      GrantRef(cap.ref_type, cap.addr);
      break;
  }
}

bool CapTable::Check(const Capability& cap) const {
  switch (cap.kind) {
    case CapKind::kWrite:
      return CheckWrite(cap.addr, cap.size);
    case CapKind::kCall:
      return CheckCall(cap.addr);
    case CapKind::kRef:
      return CheckRef(cap.ref_type, cap.addr);
  }
  return false;
}

bool CapTable::Revoke(const Capability& cap) {
  switch (cap.kind) {
    case CapKind::kWrite:
      return RevokeWriteOverlapping(cap.addr, cap.size);
    case CapKind::kCall:
      return RevokeCall(cap.addr);
    case CapKind::kRef:
      return RevokeRef(cap.ref_type, cap.addr);
  }
  return false;
}

void CapTable::Clear() {
  if (!write_buckets_.empty() || !call_.empty()) {
    RevocationEpoch::Bump();
  }
  write_buckets_.Clear();
  call_.Clear();
  ref_.Clear();
}

size_t CapTable::write_count() const { return WriteRanges().size(); }

}  // namespace lxfi
