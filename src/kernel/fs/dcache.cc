#include "src/kernel/fs/dcache.h"

#include <cstddef>
#include <cstdio>
#include <cstring>

#include "src/base/trace.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"

namespace kern {
namespace {

// Same-hash collision links (lxfi::flat_chain: relaxed atomics on both
// sides, insert-before-publish; writers hold the parent lock).
Dentry* LoadNext(Dentry* const* p) { return lxfi::flat_chain::Next(p); }

// Packs a component name into the four NUL-padded words of
// Dentry::name_words.
void PackName(std::string_view name, uint64_t out[4]) {
  char buf[sizeof(uint64_t) * 4] = {};
  std::memcpy(buf, name.data(), name.size());
  std::memcpy(out, buf, sizeof(buf));
}

// Word-wise name compare. The loads are relaxed atomics: the words are
// immutable after NewDentry and every dentry reachable from a validated
// probe was published (with a release edge) after its name was written, so
// the only thing the atomics buy is a TSan-visible pairing with the
// publication — no ordering beyond it is needed.
bool NameEquals(const Dentry* d, const uint64_t want[4]) {
  uint64_t x0 = __atomic_load_n(&d->name_words[0], __ATOMIC_RELAXED) ^ want[0];
  uint64_t x1 = __atomic_load_n(&d->name_words[1], __ATOMIC_RELAXED) ^ want[1];
  uint64_t x2 = __atomic_load_n(&d->name_words[2], __ATOMIC_RELAXED) ^ want[2];
  uint64_t x3 = __atomic_load_n(&d->name_words[3], __ATOMIC_RELAXED) ^ want[3];
  return (x0 | x1 | x2 | x3) == 0;
}

}  // namespace

// --- lockref -----------------------------------------------------------------
// The (flags, open_count) pair is CASed as one 64-bit word, Linux-lockref
// style. Both fields are also accessed individually as 32-bit atomics
// (FlagsOf/AddOpenCount); mixing access sizes is fine for the race-freedom
// argument because every access is atomic — the CAS only adds the pairwise
// atomicity the open-vs-unlink TOCTOU needs.
static_assert(offsetof(Dentry, open_count) == offsetof(Dentry, flags) + sizeof(uint32_t),
              "lockref pair must be adjacent");
static_assert(offsetof(Dentry, flags) % sizeof(uint64_t) == 0,
              "lockref pair must be 8-byte aligned");

namespace {

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
constexpr int kFlagsShift = 32;
constexpr int kOpenShift = 0;
#else
constexpr int kFlagsShift = 0;
constexpr int kOpenShift = 32;
#endif

uint64_t* LockrefOf(Dentry* d) { return reinterpret_cast<uint64_t*>(&d->flags); }

}  // namespace

Dcache::Dcache(Kernel* kernel) : kernel_(kernel) {
  kernel->counters().Register(this, "dcache", &stats_);
}

Dcache::~Dcache() { kernel_->counters().Unregister(this); }

bool Dcache::TryOpenRef(Dentry* dentry) {
  uint64_t cur = __atomic_load_n(LockrefOf(dentry), __ATOMIC_ACQUIRE);
  for (;;) {
    uint32_t flags = static_cast<uint32_t>(cur >> kFlagsShift);
    if ((flags & (kDentryDying | kDentryMoving)) != 0) {
      return false;
    }
    uint64_t want = cur + (uint64_t{1} << kOpenShift);
    if (__atomic_compare_exchange_n(LockrefOf(dentry), &cur, want, /*weak=*/true,
                                    __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE)) {
      return true;
    }
  }
}

bool Dcache::TryFlagIfUnopened(Dentry* dentry, uint32_t bit) {
  uint64_t cur = __atomic_load_n(LockrefOf(dentry), __ATOMIC_ACQUIRE);
  for (;;) {
    uint32_t open = static_cast<uint32_t>(cur >> kOpenShift);
    uint32_t flags = static_cast<uint32_t>(cur >> kFlagsShift);
    // Refuse while open, and refuse to stack marks: an unlink cannot claim
    // a dentry a rename is mid-move (or vice versa).
    if (open != 0 || (flags & (kDentryDying | kDentryMoving)) != 0) {
      return false;
    }
    uint64_t want = cur | (uint64_t{bit} << kFlagsShift);
    if (__atomic_compare_exchange_n(LockrefOf(dentry), &cur, want, /*weak=*/true,
                                    __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE)) {
      return true;
    }
  }
}

Dentry* Dcache::NewDentry(SuperBlock* sb, Dentry* parent, const char* name) {
  void* mem = kernel_->slab().Alloc(sizeof(Dentry));
  KERN_BUG_ON(mem == nullptr);
  Dentry* d = new (mem) Dentry();
  std::snprintf(d->name, sizeof(d->name), "%s", name);
  d->name_hash = HashName(d->name);
  d->parent = parent;
  d->sb = sb;
  d->depth = parent != nullptr ? parent->depth + 1 : 0;
  return d;
}

void Dcache::FreeNow(Dentry* dentry) {
  dentry->~Dentry();
  kernel_->slab().Free(dentry);
}

void Dcache::Retire(Dentry* dentry) {
  Kernel* kernel = kernel_;
  lxfi::EpochReclaimer::Global().Retire([kernel, dentry] {
    dentry->~Dentry();
    kernel->slab().Free(dentry);
  });
}

void Dcache::RetireTree(Dentry* root) {
  Dentry* c = root->child;
  while (c != nullptr) {
    Dentry* next = c->sibling;
    RetireTree(c);
    c = next;
  }
  Retire(root);
}

void Dcache::FreeTreeNow(Dentry* root) {
  Dentry* c = root->child;
  while (c != nullptr) {
    Dentry* next = c->sibling;
    FreeTreeNow(c);
    c = next;
  }
  FreeNow(root);
}

Dentry* Dcache::Lookup(Dentry* parent, std::string_view name) {
  if (name.size() > kVfsNameMax) {
    return nullptr;
  }
  // Seqlock-retry tracing reads the shard counter around the probe, but only
  // when tracing is live: the disabled path stays the bare lock-free walk.
  lxfi::RelaxedCell& retry_cell = stats_.Local(DcacheCounter::kSeqlockRetries);
  const bool tracing = LXFI_UNLIKELY(lxfi::TraceBuffer::EnabledRelaxed());
  const uint64_t retries_before = tracing ? retry_cell.value() : 0;
  Dentry* d = nullptr;
  bool found = parent->children.FindValueConcurrent(HashName(name), &d, &retry_cell);
  if (tracing && retry_cell.value() != retries_before) {
    TRACE_EVENT(lxfi::TraceEvent::kDcacheRetry, 0, HashName(name),
                retry_cell.value() - retries_before);
  }
  if (!found) {
    TRACE_EVENT(lxfi::TraceEvent::kDcacheMiss, 0, HashName(name), 0);
    return nullptr;
  }
  uint64_t want[4];
  PackName(name, want);
  while (d != nullptr && !NameEquals(d, want)) {
    d = LoadNext(&d->hash_next);
  }
  TRACE_EVENT(d != nullptr ? lxfi::TraceEvent::kDcacheHit : lxfi::TraceEvent::kDcacheMiss, 0,
              HashName(name), reinterpret_cast<uintptr_t>(d));
  return d;
}

Dentry* Dcache::FindChildLocked(Dentry* parent, const char* name) const {
  std::string_view sv(name);
  if (sv.size() > kVfsNameMax) {
    return nullptr;
  }
  Dentry* const* head = parent->children.Find(HashName(sv));
  Dentry* d = head != nullptr ? *head : nullptr;
  uint64_t want[4];
  PackName(sv, want);
  while (d != nullptr && !NameEquals(d, want)) {
    d = LoadNext(&d->hash_next);
  }
  return d;
}

void Dcache::LinkChildLocked(Dentry* parent, Dentry* child) {
  lxfi::flat_chain::InsertLocked<&Dentry::hash_next>(parent->children, child->name_hash, child);
  // Module-visible iteration list (read only under the writer lock or in
  // single-threaded module contexts: statfs sweeps, kill_sb reaping).
  child->sibling = parent->child;
  parent->child = child;
  if ((FlagsOf(child) & kDentryPositive) != 0) {
    ++parent->pos_children;
  } else {
    ++parent->neg_children;
  }
}

void Dcache::UnlinkChildLocked(Dentry* parent, Dentry* child) {
  lxfi::flat_chain::UnlinkLocked<&Dentry::hash_next>(parent->children, child->name_hash, child);
  Dentry** link = &parent->child;
  while (*link != nullptr && *link != child) {
    link = &(*link)->sibling;
  }
  if (*link == child) {
    *link = child->sibling;
  }
  if ((FlagsOf(child) & kDentryPositive) != 0) {
    --parent->pos_children;
  } else {
    --parent->neg_children;
  }
}

void Dcache::SetPositive(Dentry* dentry, Inode* inode) {
  __atomic_store_n(&dentry->inode, inode, __ATOMIC_RELAXED);
  uint32_t flags =
      kDentryPositive | ((inode->mode & kIfDir) != 0 ? kDentryDir : 0u);
  // Release: a walker that acquire-loads kDentryPositive is guaranteed to
  // see the inode pointer and every inode field the module filled before
  // d_instantiate.
  __atomic_store_n(&dentry->flags, flags, __ATOMIC_RELEASE);
}

}  // namespace kern
