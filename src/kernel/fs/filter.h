// Stackable VFS filters (redirfs-style).
//
// Filter modules register a VfsFilter with a priority; the kernel runs the
// pre hooks of every filter in scope in priority order before dispatching a
// VFS operation to the filesystem module, and the post hooks of the filters
// whose pre ran in reverse order afterwards. A pre hook may veto the
// operation by returning a negative errno, which short-circuits
// lower-priority filters and the filesystem itself.
//
// The chain is dispatched by trusted kernel code through the checked
// indirect-call path, and each filter registration is its own LXFI
// principal (principal(flt) on the hook types): a compromised filter cannot
// skip the rest of the chain (it never dispatches its peers), cannot
// scribble on another filter's private state (WRITE checks), and cannot
// unregister a filter or filesystem it does not own (REF checks on the
// unregister exports). Scope, owner and priority are copied into a
// kernel-owned record at registration, so what the kernel decides by —
// which mounts a filter sees, whose quarantine drops it, where it runs —
// cannot be rewritten through the module's VfsFilter afterwards.
#pragma once

#include <atomic>
#include <cstdint>

#include "src/base/hash.h"
#include "src/base/small_vector.h"
#include "src/base/sync.h"
#include "src/kernel/types.h"

namespace kern {

class Kernel;
class Module;
struct File;
struct Inode;
struct Dentry;
struct VfsFilter;
struct FilterCtx;

// The VFS operations filters interpose on.
enum class VfsOp : int {
  kOpen = 0,
  kRead,
  kWrite,
  kCreate,
  kUnlink,
  kMkdir,
  kRmdir,
  kStat,
  kRename,
  kFsync,
  kCount,
};

const char* VfsOpName(VfsOp op);

// One operation in flight, as shown to filter hooks. Lives on the kernel
// stack of the dispatching thread; hooks read it freely (LXFI checks writes,
// not reads) but own none of the objects it points to.
struct FilterCtx {
  int op = 0;  // VfsOp
  File* file = nullptr;
  Inode* dir = nullptr;
  Dentry* dentry = nullptr;
  uintptr_t ubuf = 0;
  uint64_t len = 0;
  uint64_t pos = 0;
  int64_t result = 0;  // operation result; valid in post hooks
  // Scratch the kernel never touches: filters use it for the chain-position
  // protocol the stacking tests verify. The hook annotations copy WRITE
  // over the FilterCtx on entry and transfer it back on exit, so every hook
  // may write it — but only while that hook runs.
  int64_t token = 0;
};

// Module-provided filter registration. Lives in the module's own .data
// section (the hook slots are indirect-call home slots, so their page's
// writer set must name only this module); the register export checks WRITE
// over it and mints the REF that is the only unregister ticket.
struct VfsFilter {
  const char* name = nullptr;
  int priority = 0;       // lower value runs earlier on the pre side
  uintptr_t pre_op = 0;   // 0 = continue, <0 veto
  uintptr_t post_op = 0;
  void* private_data = nullptr;
  Module* module = nullptr;  // the owner; under LXFI, the registering module
  // Mount scope: when non-null, the filter's hooks run only for operations
  // on the superblock whose id equals it. Null = global (every mount). The
  // multi-tenant harness uses this so each tenant's filter sees only its
  // own mount's traffic. Like priority and module, it is read once, at
  // registration: a later store here changes nothing.
  const char* scope = nullptr;
};

// The key a scope and a superblock id are indexed by (SuperBlock::scope_key).
inline uint64_t ScopeKey(const char* id) { return lxfi::Mix64(lxfi::Fnv1a64(id)); }

// One operation's pass through the chain: the snapshot RunPre dispatched
// and how many pre hooks ran. RunPost unwinds exactly that snapshot, so a
// filter (un)registering mid-operation can never mispair pre and post
// hooks.
inline constexpr FnPtrType<int(VfsFilter*, FilterCtx*)> kFilterPreOp{"vfs_filter::pre_op"};
inline constexpr FnPtrType<void(VfsFilter*, FilterCtx*)> kFilterPostOp{"vfs_filter::post_op"};

struct FilterRun {
  // One in-scope registration: the hooks' filter and its recorded owner.
  struct Entry {
    VfsFilter* flt;
    Module* owner;
  };
  lxfi::SmallVector<Entry, 8> snap;
  int ran = 0;
};

class FilterChain {
 public:
  explicit FilterChain(Kernel* kernel);
  ~FilterChain();

  int Register(VfsFilter* flt);
  int Unregister(VfsFilter* flt);
  // Containment teardown: atomically drops every filter recorded at
  // registration as owned by `module` from the published snapshot.
  // Composes idempotently with a concurrent administrative Unregister —
  // whichever runs second finds nothing to remove (no double teardown, no
  // leaked snapshot entry). Returns the number of filters dropped.
  size_t UnregisterModule(Module* module);
  size_t count() const { return count_.load(std::memory_order_relaxed); }

  // Copies the in-scope entries of the published snapshot into `run` and
  // dispatches their pre hooks in priority order. Returns 0 when every hook
  // passed, or the first veto value; run->ran counts the pre hooks that
  // executed (vetoing hook included). The empty chain is a single relaxed
  // load; a populated chain is one acquire load of the snapshot and one
  // probe of its scope index — no lock, and no cost per out-of-scope filter.
  int RunPre(FilterCtx* ctx, FilterRun* run);
  // Runs the post hooks of the first run.ran snapshot entries in reverse.
  void RunPost(FilterCtx* ctx, const FilterRun& run);

 private:
  struct Snapshot;
  // (Un)registration publishes a rebuilt immutable snapshot and retires the
  // superseded one through the epoch reclaimer, so a RunPre copying the
  // old snapshot never touches freed memory.
  void PublishLocked(Snapshot* next);
  // Drops every registration of `flt` (or, when null, recorded as owned by
  // `owner`); returns how many.
  size_t Drop(const VfsFilter* flt, const Module* owner);

  Kernel* kernel_;
  mutable lxfi::Spinlock mu_;  // serializes (un)registration
  Snapshot* snapshot_;         // atomically published
  std::atomic<size_t> count_{0};  // lock-free emptiness probe for RunPre
};

inline constexpr KernelSymbol<int(VfsFilter*)> kVfsRegisterFilter{"vfs_register_filter"};
inline constexpr KernelSymbol<int(VfsFilter*)> kVfsUnregisterFilter{"vfs_unregister_filter"};

}  // namespace kern
