#include "src/kernel/fs/filter.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/base/small_vector.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"

namespace kern {

const char* VfsOpName(VfsOp op) {
  switch (op) {
    case VfsOp::kOpen:
      return "open";
    case VfsOp::kRead:
      return "read";
    case VfsOp::kWrite:
      return "write";
    case VfsOp::kCreate:
      return "create";
    case VfsOp::kUnlink:
      return "unlink";
    case VfsOp::kMkdir:
      return "mkdir";
    case VfsOp::kRmdir:
      return "rmdir";
    case VfsOp::kStat:
      return "stat";
    case VfsOp::kRename:
      return "rename";
    case VfsOp::kFsync:
      return "fsync";
    case VfsOp::kCount:
      break;
  }
  return "?";
}

namespace {

// One registration, copied at Register. Dispatch and containment decide by
// this copy, never by the module-writable VfsFilter.
struct Record {
  FilterRun::Entry entry;
  int priority;
  bool scoped;
  char scope[kVfsNameMax + 1];
};

// Superblock an in-flight operation targets, for scope matching. Every VFS
// syscall fills at least one of dentry/file/dir before running the chain.
const SuperBlock* CtxSuper(const FilterCtx* ctx) {
  if (ctx->dentry != nullptr && ctx->dentry->sb != nullptr) {
    return ctx->dentry->sb;
  }
  if (ctx->file != nullptr && ctx->file->inode != nullptr) {
    return ctx->file->inode->sb;
  }
  if (ctx->dir != nullptr) {
    return ctx->dir->sb;
  }
  return nullptr;
}

}  // namespace

// One immutable chain generation: the records in (priority, registration
// order) and, indexed by scope key, every scope's merged list. Built whole,
// published by one pointer and epoch-retired whole.
struct FilterChain::Snapshot {
  struct Scope {
    uint64_t key;
    const char* id;  // the kernel copy, in records
    std::vector<FilterRun::Entry> merged;  // the globals and its own, in chain order
  };

  explicit Snapshot(std::vector<Record> recs) : records(std::move(recs)) {
    size_t cap = 2;
    while (cap < 2 * records.size()) {
      cap *= 2;
    }
    index.assign(cap, 0);
    shift = 64 - static_cast<unsigned>(__builtin_ctzll(cap));
    for (const Record& r : records) {
      if (!r.scoped) {
        globals.push_back(r.entry);
        for (Scope& s : scopes) {
          s.merged.push_back(r.entry);
        }
        continue;
      }
      uint64_t key = ScopeKey(r.scope);
      uint32_t& slot = index[Slot(key, r.scope)];
      if (slot == 0) {
        scopes.push_back({key, r.scope, globals});  // the globals ahead of it
        slot = static_cast<uint32_t>(scopes.size());
      }
      scopes[slot - 1].merged.push_back(r.entry);
    }
  }

  // The index position of scope `id`, or of the empty slot it would take.
  size_t Slot(uint64_t key, const char* id) const {
    for (size_t i = key >> shift;; i = (i + 1) & (index.size() - 1)) {
      uint32_t s = index[i];
      if (s == 0 || (scopes[s - 1].key == key && std::strcmp(scopes[s - 1].id, id) == 0)) {
        return i;
      }
    }
  }

  // The merged list of `sb`'s scope, or the globals-only list.
  const std::vector<FilterRun::Entry>& For(const SuperBlock* sb) const {
    uint32_t s = sb == nullptr ? 0 : index[Slot(sb->scope_key, sb->id)];
    return s == 0 ? globals : scopes[s - 1].merged;
  }

  std::vector<Record> records;
  std::vector<FilterRun::Entry> globals;
  std::vector<Scope> scopes;
  std::vector<uint32_t> index;  // open addressing: scope index + 1, 0 = empty
  unsigned shift = 0;
};

FilterChain::FilterChain(Kernel* kernel) : kernel_(kernel), snapshot_(new Snapshot({})) {}

FilterChain::~FilterChain() { delete snapshot_; }

void FilterChain::PublishLocked(Snapshot* next) {
  Snapshot* old = snapshot_;
  __atomic_store_n(&snapshot_, next, __ATOMIC_RELEASE);
  count_.store(next->records.size(), std::memory_order_relaxed);
  lxfi::EpochReclaimer::Global().Retire([old] { delete old; });
}

int FilterChain::Register(VfsFilter* flt) {
  if (flt == nullptr || flt->name == nullptr) {
    return -kEinval;
  }
  Record rec{{flt, flt->module}, flt->priority, flt->scope != nullptr, {}};
  if (rec.scoped &&
      std::snprintf(rec.scope, sizeof(rec.scope), "%s", flt->scope) >= int{sizeof(rec.scope)}) {
    return -kEinval;  // longer than any superblock id: it could never match
  }
  lxfi::SpinGuard guard(mu_);
  const std::vector<Record>& cur = snapshot_->records;
  if (std::any_of(cur.begin(), cur.end(), [flt](const Record& r) { return r.entry.flt == flt; })) {
    return -kEexist;
  }
  // Stable insert: equal priorities keep registration order.
  std::vector<Record> next(cur);
  next.insert(std::find_if(next.begin(), next.end(),
                           [&rec](const Record& r) { return r.priority > rec.priority; }),
              rec);
  PublishLocked(new Snapshot(std::move(next)));
  return 0;
}

size_t FilterChain::Drop(const VfsFilter* flt, const Module* owner) {
  lxfi::SpinGuard guard(mu_);
  std::vector<Record> next;
  for (const Record& r : snapshot_->records) {
    if (flt != nullptr ? r.entry.flt != flt : r.entry.owner != owner) {
      next.push_back(r);
    }
  }
  size_t dropped = snapshot_->records.size() - next.size();
  if (dropped != 0) {
    PublishLocked(new Snapshot(std::move(next)));
  }
  return dropped;
}

int FilterChain::Unregister(VfsFilter* flt) {
  return flt != nullptr && Drop(flt, nullptr) != 0 ? 0 : -kEnoent;
}

size_t FilterChain::UnregisterModule(Module* module) {
  // Zero when an administrative Unregister already got here: idempotent.
  return Drop(nullptr, module);
}

int FilterChain::RunPre(FilterCtx* ctx, FilterRun* run) {
  run->ran = 0;
  if (count_.load(std::memory_order_relaxed) == 0) {
    return 0;  // the common unfiltered case: no lock, no snapshot
  }
  // Acquire-load the published snapshot and copy its in-scope entries out
  // lock-free: dispatch happens outside any lock (hooks are module code and
  // may re-enter the kernel), and the copy travels to RunPost, so the unwind
  // always matches the filters whose pre actually ran even if the chain
  // mutates mid-operation. Out-of-scope filters are never in the copy (nor
  // read), so RunPost needs no second scope decision that could disagree
  // with this one.
  {
    const Snapshot* snap = __atomic_load_n(&snapshot_, __ATOMIC_ACQUIRE);
    for (const FilterRun::Entry& e : snap->For(CtxSuper(ctx))) {
      run->snap.push_back(e);
    }
  }
  for (size_t i = 0; i < run->snap.size(); ++i) {
    const FilterRun::Entry e = run->snap[i];
    // Fail-fast window: a quarantined filter may still sit in a snapshot
    // copied before containment dropped it. Never dispatch into it — fail
    // the operation without counting its pre as run (its post must not
    // unwind either).
    if (e.owner != nullptr && e.owner->quarantined()) {
      return -kEio;
    }
    if (e.flt->pre_op == 0) {
      ++run->ran;
      continue;
    }
    int rc = kernel_->IndirectCall(&e.flt->pre_op, kFilterPreOp, e.flt, ctx);
    ++run->ran;
    if (rc != 0) {
      return rc;
    }
  }
  return 0;
}

void FilterChain::RunPost(FilterCtx* ctx, const FilterRun& run) {
  for (int i = run.ran - 1; i >= 0; --i) {
    const FilterRun::Entry e = run.snap[i];
    // A module can be quarantined *between* its pre and post (the violation
    // that triggered containment may be this very operation's module
    // dispatch). Its post never runs.
    if (e.owner != nullptr && e.owner->quarantined()) {
      continue;
    }
    if (e.flt->post_op == 0) {
      continue;
    }
    kernel_->IndirectCall(&e.flt->post_op, kFilterPostOp, e.flt, ctx);
  }
}

}  // namespace kern
