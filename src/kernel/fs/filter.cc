#include "src/kernel/fs/filter.h"

#include <algorithm>
#include <cstring>

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

FilterChain::FilterChain(Kernel* kernel)
    : kernel_(kernel), snapshot_(new std::vector<VfsFilter*>()) {}

FilterChain::~FilterChain() { delete snapshot_; }

void FilterChain::PublishLocked(std::vector<VfsFilter*>* next) {
  std::vector<VfsFilter*>* old = snapshot_;
  __atomic_store_n(&snapshot_, next, __ATOMIC_RELEASE);
  count_.store(next->size(), std::memory_order_relaxed);
  lxfi::EpochReclaimer::Global().Retire([old] { delete old; });
}

int FilterChain::Register(VfsFilter* flt) {
  if (flt == nullptr || flt->name == nullptr) {
    return -kEinval;
  }
  lxfi::SpinGuard guard(mu_);
  for (VfsFilter* f : *snapshot_) {
    if (f == flt) {
      return -kEexist;
    }
  }
  // Rebuild-and-publish: stable insert, equal priorities keep registration
  // order. The superseded snapshot is epoch-retired (RunPre copies it
  // lock-free).
  auto* next = new std::vector<VfsFilter*>(*snapshot_);
  auto it = std::find_if(next->begin(), next->end(),
                         [flt](VfsFilter* f) { return f->priority > flt->priority; });
  next->insert(it, flt);
  PublishLocked(next);
  return 0;
}

int FilterChain::Unregister(VfsFilter* flt) {
  lxfi::SpinGuard guard(mu_);
  for (auto it = snapshot_->begin(); it != snapshot_->end(); ++it) {
    if (*it == flt) {
      auto* next = new std::vector<VfsFilter*>(*snapshot_);
      next->erase(next->begin() + (it - snapshot_->begin()));
      PublishLocked(next);
      return 0;
    }
  }
  return -kEnoent;
}

size_t FilterChain::UnregisterModule(Module* module) {
  lxfi::SpinGuard guard(mu_);
  size_t present = 0;
  for (VfsFilter* f : *snapshot_) {
    present += f->module == module ? 1 : 0;
  }
  if (present == 0) {
    return 0;  // an administrative Unregister already got here: idempotent
  }
  auto* next = new std::vector<VfsFilter*>();
  next->reserve(snapshot_->size() - present);
  for (VfsFilter* f : *snapshot_) {
    if (f->module != module) {
      next->push_back(f);
    }
  }
  PublishLocked(next);
  return present;
}

namespace {

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

bool InScope(const VfsFilter* f, const SuperBlock* sb) {
  return f->scope == nullptr || (sb != nullptr && std::strcmp(f->scope, sb->id) == 0);
}

}  // namespace

int FilterChain::RunPre(FilterCtx* ctx, FilterRun* run) {
  run->ran = 0;
  if (count_.load(std::memory_order_relaxed) == 0) {
    return 0;  // the common unfiltered case: no lock, no snapshot
  }
  // Acquire-load the published snapshot and copy it out lock-free: dispatch
  // happens outside any lock (hooks are module code and may re-enter the
  // kernel), and the copy travels to RunPost, so the unwind always matches
  // the filters whose pre actually ran even if the chain mutates
  // mid-operation. The vector is immutable once published and epoch-retired
  // on mutation, so this copy stays consistent with the lock-free walk it
  // rides on.
  {
    // Scope-mismatched filters are excluded from the copy itself (not
    // skipped per-hook), so RunPost's reverse unwind of run->snap needs no
    // second scope decision that could disagree with this one.
    const SuperBlock* sb = CtxSuper(ctx);
    const std::vector<VfsFilter*>* snap = __atomic_load_n(&snapshot_, __ATOMIC_ACQUIRE);
    for (VfsFilter* f : *snap) {
      if (InScope(f, sb)) {
        run->snap.push_back(f);
      }
    }
  }
  for (size_t i = 0; i < run->snap.size(); ++i) {
    VfsFilter* f = run->snap[i];
    // Fail-fast window: a quarantined filter may still sit in a snapshot
    // copied before containment dropped it. Never dispatch into it — fail
    // the operation without counting its pre as run (its post must not
    // unwind either).
    if (f->module != nullptr && f->module->quarantined()) {
      return -kEio;
    }
    if (f->pre_op == 0) {
      ++run->ran;
      continue;
    }
    int rc = kernel_->IndirectCall(&f->pre_op, kFilterPreOp, f, ctx);
    ++run->ran;
    if (rc != 0) {
      return rc;
    }
  }
  return 0;
}

void FilterChain::RunPost(FilterCtx* ctx, const FilterRun& run) {
  for (int i = run.ran - 1; i >= 0; --i) {
    VfsFilter* f = run.snap[i];
    // A module can be quarantined *between* its pre and post (the violation
    // that triggered containment may be this very operation's module
    // dispatch). Its post never runs.
    if (f->module != nullptr && f->module->quarantined()) {
      continue;
    }
    if (f->post_op == 0) {
      continue;
    }
    kernel_->IndirectCall(&f->post_op, kFilterPostOp, f, ctx);
  }
}

}  // namespace kern
