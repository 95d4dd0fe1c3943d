#include "src/kernel/fs/vfs.h"

#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"

namespace kern {
namespace {

// Extracts the next path component into out[kVfsNameMax+1]; advances *p past
// it. Returns 0 on success, -kEnoent when the path is exhausted, -kEinval on
// oversize names.
int NextComponent(const char** p, char* out) {
  const char* s = *p;
  while (*s == '/') {
    ++s;
  }
  if (*s == '\0') {
    *p = s;
    return -kEnoent;
  }
  size_t n = 0;
  while (s[n] != '\0' && s[n] != '/') {
    ++n;
  }
  if (n > kVfsNameMax) {
    return -kEinval;
  }
  std::memcpy(out, s, n);
  out[n] = '\0';
  *p = s + n;
  return 0;
}

// Same-hash chain links of the registry/mount entries follow the shared
// lxfi::flat_chain protocol (relaxed atomics on both sides; writers are
// serialized by the respective spinlock; unlinked entries epoch-retire).
template <typename T>
T* LoadChain(T* const* p) {
  return lxfi::flat_chain::Next(p);
}

uint64_t NameHash(std::string_view name) { return lxfi::Fnv1a64(name); }

uint32_t SbOpenFiles(const SuperBlock* sb) {
  return __atomic_load_n(&sb->open_files, __ATOMIC_RELAXED);
}

// Acquires the writer locks of two (possibly identical) directories in
// ascending (depth, address) order. Directory depth is immutable (only
// regular files rename), so this is a total order shared with rmdir's
// parent -> victim nesting — no two multi-lock holders can deadlock.
class DoubleLockGuard {
 public:
  DoubleLockGuard(Dcache& dc, Dentry* a, Dentry* b) {
    first_ = &dc.writer_lock(a);
    lxfi::Spinlock* second = &dc.writer_lock(b);
    if (second == first_) {
      second = nullptr;  // same directory
    } else if (b->depth < a->depth ||
               (b->depth == a->depth &&
                reinterpret_cast<uintptr_t>(b) < reinterpret_cast<uintptr_t>(a))) {
      std::swap(first_, second);
    }
    first_->lock();
    if (second != nullptr) {
      second->lock();
    }
    second_ = second;
  }
  ~DoubleLockGuard() {
    if (second_ != nullptr) {
      second_->unlock();
    }
    first_->unlock();
  }
  DoubleLockGuard(const DoubleLockGuard&) = delete;
  DoubleLockGuard& operator=(const DoubleLockGuard&) = delete;

 private:
  lxfi::Spinlock* first_;
  lxfi::Spinlock* second_ = nullptr;
};

// The flag decode of the leaf step: 0 when the leaf names a live entry of
// the wanted kind, else the errno unlink, rmdir and rename report for it.
int LiveEntryOfKind(uint32_t flags, bool dir) {
  if ((flags & (kDentryPositive | kDentryDying)) != kDentryPositive) {
    return -kEnoent;
  }
  if (((flags & kDentryDir) != 0) != dir) {
    return dir ? -kEnotdir : -kEisdir;
  }
  return 0;
}

}  // namespace

Vfs::Vfs(Kernel* kernel) : kernel_(kernel), chain_(kernel), dcache_(kernel) {
  kernel->counters().Register(this, "vfs", &stats_);
}

Vfs::~Vfs() {
  kernel_->counters().Unregister(this);
  // Subsystem teardown: no concurrent walker can exist (CPU sets are torn
  // down before their kernel). Drain every deleter retired during the
  // session first — they capture this kernel's slab — then free what is
  // still mounted immediately.
  lxfi::EpochReclaimer::Global().Synchronize();
  mounts_.ForEach([this](uint64_t, MountEntry* const& head) {
    for (MountEntry* m = head; m != nullptr;) {
      MountEntry* next = m->next;
      dcache_.FreeTreeNow(m->sb->root);
      kernel_->slab().Free(m->sb);
      delete m;
      m = next;
    }
  });
  fstypes_.ForEach([](uint64_t, FsTypeEntry* const& head) {
    for (FsTypeEntry* e = head; e != nullptr;) {
      FsTypeEntry* next = e->next;
      delete e;
      e = next;
    }
  });
  // The frees above retired the dentries' index arrays; drain those too
  // while the process is still in a known-quiet state.
  lxfi::EpochReclaimer::Global().Synchronize();
}

// --- filesystem-type registry -------------------------------------------------

int Vfs::RegisterFilesystem(FileSystemType* fstype) {
  if (fstype == nullptr || fstype->name == nullptr || fstype->mount == 0) {
    return -kEinval;
  }
  uint64_t h = NameHash(fstype->name);
  lxfi::SpinGuard guard(fstype_mu_);
  bool dup = false;
  fstypes_.ForEach([&](uint64_t, FsTypeEntry* const& head) {
    for (FsTypeEntry* e = head; e != nullptr; e = e->next) {
      dup = dup || e->type == fstype || std::strcmp(e->type->name, fstype->name) == 0;
    }
  });
  if (dup) {
    return -kEexist;
  }
  lxfi::flat_chain::InsertLocked<&FsTypeEntry::next>(fstypes_, h,
                                                    new FsTypeEntry{fstype, h, nullptr});
  return 0;
}

int Vfs::UnregisterFilesystem(FileSystemType* fstype) {
  lxfi::SpinGuard guard(fstype_mu_);
  bool busy = false;
  {
    lxfi::SpinGuard mg(mount_mu_);
    ForEachMountLocked([&](MountEntry* m) { busy = busy || m->sb->type == fstype; });
  }
  if (busy) {
    return -kEbusy;
  }
  FsTypeEntry* victim = nullptr;
  fstypes_.ForEach([&](uint64_t, FsTypeEntry* const& head) {
    for (FsTypeEntry* e = head; e != nullptr; e = e->next) {
      if (e->type == fstype) {
        victim = e;
      }
    }
  });
  if (victim == nullptr) {
    return -kEnoent;
  }
  lxfi::flat_chain::UnlinkLocked<&FsTypeEntry::next>(fstypes_, victim->hash, victim);
  lxfi::EpochReclaimer::Global().Retire([victim] { delete victim; });
  return 0;
}

FileSystemType* Vfs::FindFilesystem(const char* name) {
  FsTypeEntry* e = nullptr;
  if (!fstypes_.FindValueConcurrent(NameHash(name), &e)) {
    return nullptr;
  }
  for (; e != nullptr; e = LoadChain(&e->next)) {
    if (std::strcmp(e->type->name, name) == 0) {
      return e->type;
    }
  }
  return nullptr;
}

// --- containment --------------------------------------------------------------

bool Vfs::TypeQuarantined(const SuperBlock* sb) {
  return sb != nullptr && sb->type != nullptr && sb->type->module != nullptr &&
         sb->type->module->quarantined();
}

int Vfs::ForceUnmountModule(Module* module) {
  std::vector<MountEntry*> victims;
  int busy = 0;
  {
    lxfi::SpinGuard guard(mount_mu_);
    ForEachMountLocked([&](MountEntry* m) {
      if (m->sb->type->module != module) {
        return;
      }
      if (SbOpenFiles(m->sb) > 0) {
        ++busy;  // handles fail fast with -EIO and drain through Close
      } else {
        victims.push_back(m);
      }
    });
    for (MountEntry* v : victims) {
      lxfi::flat_chain::UnlinkLocked<&MountEntry::next>(mounts_, v->hash, v);
      mount_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  for (MountEntry* v : victims) {
    // Unlike Unmount, no kill_sb dispatch: the module is quarantined, and
    // its per-mount state is reclaimed wholesale by the arena teardown at
    // forced unload. The kernel-owned tree and superblock still go through
    // the grace period for the sake of in-flight walkers.
    dcache_.RetireTree(v->sb->root);
    Kernel* kernel = kernel_;
    SuperBlock* sb = v->sb;
    lxfi::EpochReclaimer::Global().Retire([kernel, sb, v] {
      kernel->slab().Free(sb);
      delete v;
    });
  }
  return busy;
}

size_t Vfs::PurgeFilesystemsOf(Module* module) {
  lxfi::SpinGuard guard(fstype_mu_);
  std::vector<FsTypeEntry*> victims;
  fstypes_.ForEach([&](uint64_t, FsTypeEntry* const& head) {
    for (FsTypeEntry* e = head; e != nullptr; e = e->next) {
      if (e->type->module == module) {
        victims.push_back(e);
      }
    }
  });
  for (FsTypeEntry* v : victims) {
    lxfi::flat_chain::UnlinkLocked<&FsTypeEntry::next>(fstypes_, v->hash, v);
    lxfi::EpochReclaimer::Global().Retire([v] { delete v; });
  }
  return victims.size();
}

// --- path walk ----------------------------------------------------------------

Dentry* Vfs::LookupChild(Dentry* parent, const char* name) {
  {
    // Re-check under the lock: the lock-free miss may have raced a
    // concurrent link of the same name (or a chain edit that briefly hid
    // it); the locked probe is authoritative. A dying parent (rmdir in
    // flight — its inode may already be freed by the module) must not be
    // dispatched into at all.
    lxfi::SpinGuard guard(dcache_.writer_lock(parent));
    if ((Dcache::FlagsOf(parent) & kDentryDying) != 0) {
      return nullptr;
    }
    Dentry* d = dcache_.FindChildLocked(parent, name);
    if (d != nullptr) {
      return d;
    }
  }
  Inode* dir = Dcache::InodeOf(parent);
  if (dir == nullptr || dir->i_op == nullptr || dir->i_op->lookup == 0) {
    return nullptr;
  }
  Dentry* probe = dcache_.NewDentry(parent->sb, parent, name);
  stats_.Count(VfsCounter::kLookupDispatches);
  Inode* found = kernel_->IndirectCall(&dir->i_op->lookup, kInodeLookup, dir, probe);
  if (found != nullptr) {
    if (DInstantiate(probe, found) != 0) {
      // Lost a race (or the module lied about the inode); the existing
      // child wins. The probe was never published — free it immediately.
      dcache_.FreeNow(probe);
      lxfi::SpinGuard guard(dcache_.writer_lock(parent));
      return dcache_.FindChildLocked(parent, name);
    }
    return probe;
  }
  // Miss: cache the probe as a bounded negative dentry so the next miss on
  // this name is answered lock-free with zero module dispatches. The
  // module's lookup annotation transferred the dentry REF back on the null
  // return, so the kernel owns the probe outright.
  lxfi::SpinGuard guard(dcache_.writer_lock(parent));
  if ((Dcache::FlagsOf(parent) & kDentryDying) != 0) {
    dcache_.FreeNow(probe);  // the parent's rmdir is committing: caching
    return nullptr;          // here would leak the probe past RetireTree
  }
  Dentry* winner = dcache_.FindChildLocked(parent, name);
  if (winner != nullptr) {
    dcache_.FreeNow(probe);
    return winner;
  }
  if (parent->neg_children < Dcache::kMaxNegativePerDir) {
    dcache_.LinkChildLocked(parent, probe);
    return probe;
  }
  dcache_.FreeNow(probe);
  return nullptr;  // over the bound: an uncached miss
}

Dentry* Vfs::ProbeChild(Dentry* dir, const char* name) {
  Dentry* d = dcache_.Lookup(dir, name);
  if (d != nullptr && (Dcache::FlagsOf(d) & (kDentryPositive | kDentryDying)) == 0) {
    dcache_.CountNegativeHit();  // answered with zero module dispatches
  }
  return d;
}

int Vfs::Walk(const char* path, Dentry** out, char* leaf) {
  if (path == nullptr || path[0] != '/') {
    return -kEinval;
  }
  // Leaf mode: the last component must be a valid name before anything is
  // resolved; `end` marks where it ends (trailing slashes stripped), so the
  // walk below stops when it has extracted it.
  const char* end = nullptr;
  if (leaf != nullptr) {
    end = path + std::strlen(path);
    while (end > path && end[-1] == '/') {
      --end;
    }
    const char* start = end;
    while (start > path && start[-1] != '/') {
      --start;
    }
    if (start == end || static_cast<size_t>(end - start) > kVfsNameMax) {
      return -kEinval;
    }
  }
  const char* p = path;
  char buf[kVfsNameMax + 1] = {};
  char* comp = leaf != nullptr ? leaf : buf;
  int rc = NextComponent(&p, comp);
  if (rc != 0) {
    return rc == -kEnoent ? -kEinval : rc;  // "/" itself is not addressable
  }
  if (p == end) {
    return -kEinval;  // leaf mode: a mount root has no parent to stop at
  }
  SuperBlock* sb = SuperAt(comp);
  if (sb == nullptr) {
    return -kEnodev;
  }
  if (TypeQuarantined(sb)) {
    return -kEio;  // fail fast: never dispatch into a quarantined module
  }
  Dentry* cur = sb->root;
  uint32_t cur_flags = Dcache::FlagsOf(cur);
  while ((rc = NextComponent(&p, comp)) == 0) {
    if ((cur_flags & (kDentryPositive | kDentryDying)) != kDentryPositive) {
      return -kEnoent;
    }
    if ((cur_flags & kDentryDir) == 0) {
      return -kEnotdir;
    }
    if (p == end) {
      *out = cur;  // leaf mode: `comp` (the caller's buffer) holds the leaf
      return 0;
    }
    Dentry* next = ProbeChild(cur, comp);
    if (next == nullptr) {
      next = LookupChild(cur, comp);
    }
    uint32_t f = next != nullptr ? Dcache::FlagsOf(next) : 0;
    if ((f & (kDentryPositive | kDentryDying)) != kDentryPositive) {
      return -kEnoent;  // absent, cached negative, or unlink in flight
    }
    cur = next;
    cur_flags = f;
  }
  if (rc != -kEnoent) {
    return rc;  // oversize component
  }
  *out = cur;
  return 0;
}

template <typename Fn>
int Vfs::StepLeaves(Leaf* a, Leaf* b, Fn&& locked) {
  LookupChild(a->parent, a->name);
  if (b != a) {
    LookupChild(b->parent, b->name);
  }
  DoubleLockGuard guard(dcache_, a->parent, b->parent);
  if (((Dcache::FlagsOf(a->parent) | Dcache::FlagsOf(b->parent)) & kDentryDying) != 0) {
    return -kEnoent;  // raced an rmdir of a parent after the walk
  }
  for (Leaf* leaf : {a, b}) {
    leaf->child = dcache_.FindChildLocked(leaf->parent, leaf->name);
    leaf->flags = leaf->child != nullptr ? Dcache::FlagsOf(leaf->child) : 0;
  }
  return locked();
}

template <typename Call>
auto Vfs::Dispatch(VfsOp op, FilterCtx ctx, Call&& call) -> decltype(call()) {
  ctx.op = static_cast<int>(op);
  FilterRun run;
  decltype(call()) rc = chain_.RunPre(&ctx, &run);
  if (rc == 0) {
    rc = call();
  }
  ctx.result = rc;
  chain_.RunPost(&ctx, run);
  return rc;
}

// --- mounts -------------------------------------------------------------------

Vfs::MountEntry* Vfs::FindMountLocked(std::string_view name) const {
  MountEntry* const* headp = mounts_.Find(NameHash(name));
  for (MountEntry* m = headp != nullptr ? *headp : nullptr; m != nullptr; m = m->next) {
    if (name == std::string_view(m->name)) {
      return m;
    }
  }
  return nullptr;
}

template <typename Fn>
void Vfs::ForEachMountLocked(Fn&& fn) const {
  mounts_.ForEach([&](uint64_t, MountEntry* const& head) {
    for (MountEntry* m = head; m != nullptr; m = m->next) {
      fn(m);
    }
  });
}

SuperBlock* Vfs::SuperAt(const char* where) {
  if (where == nullptr) {
    return nullptr;
  }
  const char* p = where;
  char comp[kVfsNameMax + 1];
  if (NextComponent(&p, comp) != 0) {
    return nullptr;
  }
  // Lock-free: one FNV-keyed probe plus an immutable-name chain compare —
  // the first component of every Walk resolves without a lock.
  MountEntry* m = nullptr;
  if (!mounts_.FindValueConcurrent(NameHash(comp), &m)) {
    return nullptr;
  }
  for (; m != nullptr; m = LoadChain(&m->next)) {
    if (std::strcmp(m->name, comp) == 0) {
      return m->sb;
    }
  }
  return nullptr;
}

SuperBlock* Vfs::Mount(const char* fsname, const char* where) {
  char comp[kVfsNameMax + 1];
  const char* p = where;
  if (where == nullptr || NextComponent(&p, comp) != 0) {
    return nullptr;
  }
  char extra[kVfsNameMax + 1];
  if (NextComponent(&p, extra) != -kEnoent) {
    return nullptr;  // mountpoints are a single root component
  }
  FileSystemType* fstype = FindFilesystem(fsname);
  if (fstype == nullptr || fstype->mount == 0) {
    return nullptr;
  }
  if (fstype->module != nullptr && fstype->module->quarantined()) {
    return nullptr;  // no new mounts of a quarantined module's type
  }
  if (SuperAt(comp) != nullptr) {
    return nullptr;
  }
  void* mem = kernel_->slab().Alloc(sizeof(SuperBlock));
  KERN_BUG_ON(mem == nullptr);
  SuperBlock* sb = new (mem) SuperBlock();
  sb->type = fstype;
  std::snprintf(sb->id, sizeof(sb->id), "%s", comp);
  sb->scope_key = ScopeKey(sb->id);
  Dentry* root = dcache_.NewDentry(sb, nullptr, "/");

  int rc = kernel_->IndirectCall(&fstype->mount, kFsMount, fstype, sb, root);
  const uint32_t root_flags = Dcache::FlagsOf(root);
  bool published = false;
  if (rc == 0 && (root_flags & kDentryPositive) != 0 && (root_flags & kDentryDir) != 0) {
    sb->root = root;
    lxfi::SpinGuard guard(mount_mu_);
    if (FindMountLocked(comp) == nullptr) {
      auto* entry = new MountEntry();
      std::snprintf(entry->name, sizeof(entry->name), "%s", comp);
      entry->hash = NameHash(comp);
      entry->sb = sb;
      lxfi::flat_chain::InsertLocked<&MountEntry::next>(mounts_, entry->hash, entry);
      mount_count_.fetch_add(1, std::memory_order_relaxed);
      published = true;
    }
  }
  if (!published) {
    // A failed mount, or the mountpoint was taken between the pre-check and
    // publication. Back a successful module mount out through kill_sb so
    // its capabilities and state are reclaimed; the tree was never
    // reachable by a walker.
    if (rc == 0 && fstype->kill_sb != 0) {
      kernel_->IndirectCall(&fstype->kill_sb, kFsKillSb, fstype, sb);
    }
    dcache_.FreeTreeNow(root);
    kernel_->slab().Free(sb);
    return nullptr;
  }
  return sb;
}

int Vfs::Unmount(const char* where) {
  char comp[kVfsNameMax + 1];
  const char* p = where;
  if (where == nullptr || NextComponent(&p, comp) != 0) {
    return -kEinval;
  }
  SuperBlock* sb = nullptr;
  MountEntry* victim = nullptr;
  {
    lxfi::SpinGuard guard(mount_mu_);
    victim = FindMountLocked(comp);
    if (victim == nullptr) {
      return -kEnoent;
    }
    if (SbOpenFiles(victim->sb) > 0) {
      return -kEbusy;  // open Files still reference this mount's objects
    }
    sb = victim->sb;
    lxfi::flat_chain::UnlinkLocked<&MountEntry::next>(mounts_, victim->hash, victim);
    mount_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (sb->type->kill_sb != 0 && !TypeQuarantined(sb)) {
    kernel_->IndirectCall(&sb->type->kill_sb, kFsKillSb, sb->type, sb);
  }
  // A walker that resolved the mount entry before the unlink may still be
  // inside the tree: everything goes through the reclaimer's grace period.
  dcache_.RetireTree(sb->root);
  Kernel* kernel = kernel_;
  lxfi::EpochReclaimer::Global().Retire([kernel, sb, victim] {
    kernel->slab().Free(sb);
    delete victim;
  });
  return 0;
}

// --- inode/dcache services (module-facing exports) ----------------------------

Inode* Vfs::Iget(SuperBlock* sb) {
  if (sb == nullptr) {
    return nullptr;
  }
  void* mem = kernel_->slab().Alloc(sizeof(Inode));
  KERN_BUG_ON(mem == nullptr);
  Inode* inode = new (mem) Inode();
  inode->sb = sb;
  inode->ino = __atomic_fetch_add(&sb->next_ino, 1, __ATOMIC_RELAXED);
  return inode;
}

void Vfs::Iput(Inode* inode) {
  if (inode == nullptr) {
    return;
  }
  // Grace-period free: a lock-free walker that resolved a dentry just
  // before its unlink may still dereference the inode's fields.
  Kernel* kernel = kernel_;
  lxfi::EpochReclaimer::Global().Retire([kernel, inode] { kernel->slab().Free(inode); });
}

Dentry* Vfs::DAlloc(Dentry* parent, const char* name) {
  if (parent == nullptr || (Dcache::FlagsOf(parent) & kDentryPositive) == 0 ||
      (Dcache::FlagsOf(parent) & kDentryDir) == 0 || name == nullptr || name[0] == '\0' ||
      std::strlen(name) > kVfsNameMax || std::strchr(name, '/') != nullptr) {
    return nullptr;
  }
  return dcache_.NewDentry(parent->sb, parent, name);
}

int Vfs::DInstantiate(Dentry* dentry, Inode* inode) {
  if (dentry == nullptr || inode == nullptr || Dcache::InodeOf(dentry) != nullptr ||
      dentry->sb != inode->sb) {
    return -kEinval;
  }
  if (dentry->parent == nullptr) {
    Dcache::SetPositive(dentry, inode);
    ++inode->nlink;
    return 0;
  }
  lxfi::SpinGuard guard(dcache_.writer_lock(dentry->parent));
  if ((Dcache::FlagsOf(dentry->parent) & kDentryDying) != 0) {
    return -kEnoent;  // the parent directory's rmdir is committing: nothing
                      // may be linked into it anymore
  }
  Dentry* existing = dcache_.FindChildLocked(dentry->parent, dentry->name);
  if (existing != nullptr) {
    if ((Dcache::FlagsOf(existing) & (kDentryPositive | kDentryMoving)) != 0) {
      return -kEexist;  // positive (incl. dying: the name exists until the
                        // in-flight unlink commits) or a rename's
                        // destination reservation — either way, taken
    }
    // Displace the cached negative for this name.
    dcache_.UnlinkChildLocked(dentry->parent, existing);
    dcache_.Retire(existing);
  }
  Dcache::SetPositive(dentry, inode);
  ++inode->nlink;
  dcache_.LinkChildLocked(dentry->parent, dentry);
  return 0;
}

// --- syscall surface ----------------------------------------------------------

int Vfs::MakeEntry(Leaf* leaf, uint32_t mode, VfsOp op, Dentry** out) {
  // A cached name is answered lock-free, as Walk answers it; the leaf step
  // asks the filesystem about the rest.
  Dentry* existing = ProbeChild(leaf->parent, leaf->name);
  if (existing == nullptr || (Dcache::FlagsOf(existing) & kDentryPositive) == 0) {
    int rc = StepLeaves(leaf, leaf, [] { return 0; });
    if (rc != 0) {
      return rc;
    }
    existing = (leaf->flags & kDentryPositive) != 0 ? leaf->child : nullptr;
  }
  if (existing != nullptr) {
    if (op == VfsOp::kMkdir) {
      return -kEexist;
    }
    *out = existing;  // Open(kOCreate) of an existing name opens it
    return 0;
  }
  // A cached negative stays linked: DInstantiate displaces it under the
  // parent's lock when the module instantiates the new entry.
  Dentry* parent = leaf->parent;
  Inode* dir = Dcache::InodeOf(parent);
  const uintptr_t* slot = nullptr;
  if (dir->i_op != nullptr) {
    slot = op == VfsOp::kCreate ? &dir->i_op->create : &dir->i_op->mkdir;
  }
  if (slot == nullptr || *slot == 0) {
    return -kEinval;
  }
  Dentry* dentry = dcache_.NewDentry(parent->sb, parent, leaf->name);
  int rc = Dispatch(op, {.dir = dir, .dentry = dentry}, [&] {
    return kernel_->IndirectCall(slot, op == VfsOp::kCreate ? kInodeCreate : kInodeMkdir, dir,
                                 dentry, mode);
  });
  if (rc != 0) {
    // The module failed the create; if it instantiated (and thereby linked)
    // the dentry anyway, unlink it — a failed create must not leave a live
    // namespace entry behind.
    bool published = false;
    {
      lxfi::SpinGuard guard(dcache_.writer_lock(parent));
      if (Dcache::InodeOf(dentry) != nullptr) {
        dcache_.UnlinkChildLocked(parent, dentry);
        published = true;
      }
    }
    if (published) {
      dcache_.Retire(dentry);
    } else {
      dcache_.FreeNow(dentry);
    }
    return rc;
  }
  if (Dcache::InodeOf(dentry) == nullptr) {
    // The module claimed success without instantiating; treat as an error.
    dcache_.FreeNow(dentry);
    return -kEinval;
  }
  if (out != nullptr) {
    *out = dentry;
  }
  return 0;
}

File* Vfs::Open(const char* path, int flags, int* err) {
  auto fail = [err](int e) -> File* {
    if (err != nullptr) {
      *err = e;
    }
    return nullptr;
  };
  Dentry* dentry = nullptr;
  int rc = 0;
  if ((flags & kOCreate) == 0) {
    rc = Walk(path, &dentry);
  } else {
    Leaf leaf;
    rc = Walk(path, &leaf.parent, leaf.name);
    if (rc == 0) {
      rc = MakeEntry(&leaf, kIfReg, VfsOp::kCreate, &dentry);
      if (rc == -kEexist) {
        // Lost a create race: the retry finds the winner and opens it.
        rc = MakeEntry(&leaf, kIfReg, VfsOp::kCreate, &dentry);
      }
    } else if (rc == -kEinval) {
      rc = Walk(path, &dentry);  // no leaf to create: a mount root, or a bad path
    }
  }
  if (rc != 0) {
    return fail(rc);
  }
  // Lockref: take the open reference FIRST, in the same 64-bit CAS window
  // that rejects dying/moving dentries. From here on a concurrent unlink or
  // rename fails with -EBUSY instead of freeing the inode under us — the
  // open-vs-unlink TOCTOU the storm regression test hammers is closed by
  // this ordering, not by luck.
  if (!Dcache::TryOpenRef(dentry)) {
    return fail(-kEnoent);
  }
  auto fail_unref = [this, dentry, &fail](int e) -> File* {
    Dcache::AddOpenCount(dentry, -1);
    return fail(e);
  };
  Inode* inode = Dcache::InodeOf(dentry);
  if ((inode->mode & kIfDir) != 0) {
    return fail_unref(-kEisdir);
  }
  if (inode->i_fop == nullptr) {
    return fail_unref(-kEinval);
  }
  void* mem = kernel_->slab().Alloc(sizeof(File));
  KERN_BUG_ON(mem == nullptr);
  File* file = new (mem) File();
  file->inode = inode;
  file->dentry = dentry;
  file->f_op = inode->i_fop;

  rc = Dispatch(VfsOp::kOpen, {.file = file, .dentry = dentry}, [&] {
    return file->f_op->open != 0 ? kernel_->IndirectCall(&file->f_op->open, kFileOpen, inode, file)
                                 : 0;
  });
  if (rc != 0) {
    kernel_->slab().Free(file);
    return fail_unref(rc);
  }
  // Open-file accounting lives in kernel-owned structures (the dentry and
  // the superblock's kernel-private counter), never in the module-writable
  // inode: Unlink and Unmount consult it before freeing anything.
  __atomic_add_fetch(&inode->sb->open_files, 1u, __ATOMIC_RELAXED);
  open_files_.fetch_add(1, std::memory_order_relaxed);
  if (err != nullptr) {
    *err = 0;
  }
  return file;
}

int Vfs::Close(File* file) {
  if (file == nullptr) {
    return -kEinval;
  }
  int rc = 0;
  // Close must keep working on a quarantined mount so open-file accounting
  // drains (ForceUnmountModule waits on it) — it just skips the module
  // dispatch, the same way the forced unmount skips kill_sb.
  if (file->f_op != nullptr && file->f_op->release != 0 && !TypeQuarantined(file->inode->sb)) {
    rc = kernel_->IndirectCall(&file->f_op->release, kFileRelease, file->inode, file);
  }
  Dcache::AddOpenCount(file->dentry, -1);
  __atomic_sub_fetch(&file->inode->sb->open_files, 1u, __ATOMIC_RELAXED);
  kernel_->slab().Free(file);
  open_files_.fetch_sub(1, std::memory_order_relaxed);
  return rc;
}

int64_t Vfs::Transfer(VfsOp op, File* file, uintptr_t ubuf, uint64_t n) {
  if (file == nullptr || file->f_op == nullptr) {
    return -kEinval;
  }
  const uintptr_t* slot = op == VfsOp::kRead ? &file->f_op->read : &file->f_op->write;
  if (*slot == 0) {
    return -kEinval;
  }
  if (TypeQuarantined(file->inode->sb)) {
    return -kEio;
  }
  int64_t result = Dispatch(
      op, {.file = file, .dentry = file->dentry, .ubuf = ubuf, .len = n, .pos = file->pos}, [&] {
        return kernel_->IndirectCall(slot, op == VfsOp::kRead ? kFileRead : kFileWrite, file, ubuf,
                                     n, file->pos);
      });
  if (result > 0) {
    file->pos += static_cast<uint64_t>(result);
  }
  return result;
}

int64_t Vfs::Read(File* file, uintptr_t ubuf, uint64_t n) {
  return Transfer(VfsOp::kRead, file, ubuf, n);
}

int64_t Vfs::Write(File* file, uintptr_t ubuf, uint64_t n) {
  return Transfer(VfsOp::kWrite, file, ubuf, n);
}

int Vfs::Seek(File* file, uint64_t pos) {
  if (file == nullptr) {
    return -kEinval;
  }
  file->pos = pos;
  return 0;
}

int Vfs::Mkdir(const char* path) {
  Leaf leaf;
  int rc = Walk(path, &leaf.parent, leaf.name);
  return rc != 0 ? rc : MakeEntry(&leaf, kIfDir, VfsOp::kMkdir, nullptr);
}

int Vfs::RemoveEntry(const char* path, bool dir) {
  Leaf leaf;
  int rc = Walk(path, &leaf.parent, leaf.name);
  if (rc != 0) {
    return rc;
  }
  Inode* dirnode = Dcache::InodeOf(leaf.parent);
  const uintptr_t* slot =
      dirnode->i_op != nullptr ? (dir ? &dirnode->i_op->rmdir : &dirnode->i_op->unlink) : nullptr;
  if (slot == nullptr || *slot == 0) {
    return -kEinval;
  }
  rc = StepLeaves(&leaf, &leaf, [&] {
    int e = LiveEntryOfKind(leaf.flags, dir);
    if (e != 0) {
      return e;
    }
    // Hide the entry from lock-free walkers for the duration of the module
    // dispatch: no new stat/open can reach the inode the module is about
    // to free, and no lookup re-instantiates the name meanwhile. The dying
    // mark is a lockref CAS conditional on open_count == 0 (and on no
    // dying/moving bit already set), so it can never overtake a concurrent
    // TryOpenRef — whoever's CAS lands first wins, atomically.
    if (!dir) {
      // -EBUSY: open handles, or a rename moving this entry.
      return Dcache::TryFlagIfUnopened(leaf.child, kDentryDying) ? 0 : -kEbusy;
    }
    // The empty check and the dying mark must be one atomic step with
    // respect to links INTO the victim, and those are guarded by the
    // victim's own child_lock — not the parent lock the leaf step holds. A
    // concurrent create inside the directory either commits first (we see
    // pos_children > 0 here) or observes the dying mark under the same lock
    // in DInstantiate/LookupChild and fails. Parent -> child is the tree
    // order (ascending depth), so the nesting cannot deadlock.
    lxfi::SpinGuard child_guard(leaf.child->child_lock);
    if (leaf.child->pos_children > 0) {
      return -kEnotempty;
    }
    return Dcache::TryFlagIfUnopened(leaf.child, kDentryDying) ? 0 : -kEbusy;
  });
  if (rc != 0) {
    return rc;
  }
  Dentry* child = leaf.child;
  rc = Dispatch(dir ? VfsOp::kRmdir : VfsOp::kUnlink, {.dir = dirnode, .dentry = child}, [&] {
    return kernel_->IndirectCall(slot, dir ? kInodeRmdir : kInodeUnlink, dirnode, child);
  });
  if (rc != 0) {
    Dcache::SetDying(child, false);  // the entry lives on
    return rc;
  }
  {
    lxfi::SpinGuard guard(dcache_.writer_lock(leaf.parent));
    dcache_.UnlinkChildLocked(leaf.parent, child);
  }
  // The child (plus, for rmdir, any cached negatives below it) may still be
  // referenced by a walker that resolved it before the dying mark.
  dcache_.RetireTree(child);
  return 0;
}

int Vfs::Rmdir(const char* path) { return RemoveEntry(path, /*dir=*/true); }

int Vfs::Unlink(const char* path) { return RemoveEntry(path, /*dir=*/false); }

int Vfs::Fsync(File* file) {
  if (file == nullptr || file->f_op == nullptr) {
    return -kEinval;
  }
  if (TypeQuarantined(file->inode->sb)) {
    return -kEio;
  }
  return Dispatch(VfsOp::kFsync, {.file = file, .dentry = file->dentry}, [&] {
    return file->f_op->fsync != 0 ? kernel_->IndirectCall(&file->f_op->fsync, kFileFsync, file) : 0;
  });
}

int Vfs::Rename(const char* oldpath, const char* newpath) {
  Leaf from;
  Leaf to;
  int rc = Walk(oldpath, &from.parent, from.name);
  if (rc != 0) {
    return rc;
  }
  rc = Walk(newpath, &to.parent, to.name);
  if (rc != 0) {
    return rc;
  }
  Dentry* oparent = from.parent;
  Dentry* nparent = to.parent;
  if (oparent->sb != nparent->sb) {
    return -kExdev;
  }
  if (oparent == nparent && std::strcmp(from.name, to.name) == 0) {
    Dentry* self = nullptr;
    return Walk(oldpath, &self);  // renaming a name onto itself: a no-op
  }
  Inode* olddir = Dcache::InodeOf(oparent);
  Inode* newdir = Dcache::InodeOf(nparent);
  if (olddir == nullptr || newdir == nullptr || olddir->i_op == nullptr ||
      olddir->i_op->rename == 0) {
    return -kEinval;
  }
  // The destination reservation: a negative dentry carrying the moving
  // mark, linked before the module dispatch so no concurrent create or
  // rename can claim the name while the move commits on disk
  // (DInstantiate and the leaf step below refuse moving-marked entries).
  Dentry* nd = dcache_.NewDentry(nparent->sb, nparent, to.name);
  rc = StepLeaves(&from, &to, [&] {
    // Directories do not move (immutable depth): -EISDIR.
    int e = LiveEntryOfKind(from.flags, /*dir=*/false);
    if (e != 0) {
      return e;
    }
    if ((to.flags & kDentryPositive) != 0) {
      return -kEexist;  // RENAME_NOREPLACE semantics
    }
    if ((to.flags & kDentryMoving) != 0) {
      return -kEbusy;  // another rename already reserved the destination
    }
    // Claim the source: same CAS window as unlink, so open handles (and
    // concurrent unlinks/renames of the same entry) make this fail.
    if (!Dcache::TryFlagIfUnopened(from.child, kDentryMoving)) {
      return -kEbusy;
    }
    if (to.child != nullptr) {
      dcache_.UnlinkChildLocked(nparent, to.child);
      dcache_.Retire(to.child);  // displace the cached negative
    }
    __atomic_fetch_or(&nd->flags, kDentryMoving, __ATOMIC_RELEASE);
    dcache_.LinkChildLocked(nparent, nd);
    return 0;
  });
  if (rc != 0) {
    dcache_.FreeNow(nd);  // never published
    return rc;
  }
  // Module dispatch outside the locks (it may block on I/O; walkers keep
  // resolving the old name meanwhile — the moving mark only blocks open,
  // unlink and competing renames).
  Dentry* od = from.child;
  rc = Dispatch(VfsOp::kRename, {.dir = olddir, .dentry = od}, [&] {
    return kernel_->IndirectCall(&olddir->i_op->rename, kInodeRename, olddir, od, newdir, nd);
  });
  if (rc != 0) {
    {
      DoubleLockGuard guard(dcache_, oparent, nparent);
      dcache_.UnlinkChildLocked(nparent, nd);
    }
    Dcache::ClearFlag(od, kDentryMoving);
    dcache_.Retire(nd);  // was published as the reservation
    return rc;
  }
  Inode* inode = Dcache::InodeOf(od);
  {
    DoubleLockGuard guard(dcache_, oparent, nparent);
    // Commit order: the new name turns positive first, then the old name
    // dies — a lock-free walker observes old, both, or new, never a
    // half-moved neither. SetPositive's release store also clears the
    // moving mark (it writes the whole flags word), opening the new name
    // for opens in the same instant it becomes resolvable.
    dcache_.UnlinkChildLocked(nparent, nd);  // counted as a negative so far
    Dcache::SetPositive(nd, inode);
    dcache_.LinkChildLocked(nparent, nd);    // recounted as positive
    Dcache::SetDying(od, true);
    dcache_.UnlinkChildLocked(oparent, od);
  }
  dcache_.Retire(od);
  return 0;
}

int Vfs::Stat(const char* path, VfsStat* out) {
  Dentry* dentry = nullptr;
  int rc = Walk(path, &dentry);
  if (rc != 0) {
    return rc;
  }
  Inode* inode = Dcache::InodeOf(dentry);
  return Dispatch(VfsOp::kStat, {.dentry = dentry}, [&] {
    if (inode->i_op != nullptr && inode->i_op->getattr != 0) {
      return kernel_->IndirectCall(&inode->i_op->getattr, kInodeGetattr, inode, out);
    }
    out->ino = inode->ino;
    out->mode = inode->mode;
    out->nlink = inode->nlink;
    out->size = inode->size;
    return 0;
  });
}

int Vfs::StatFs(const char* where, VfsStatFs* out) {
  SuperBlock* sb = SuperAt(where);
  if (sb == nullptr) {
    return -kEnodev;
  }
  if (TypeQuarantined(sb)) {
    return -kEio;
  }
  if (sb->s_op == nullptr || sb->s_op->statfs == 0) {
    return -kEinval;
  }
  return kernel_->IndirectCall(&sb->s_op->statfs, kSuperStatfs, sb, out);
}

Vfs* GetVfs(Kernel* kernel) { return kernel->EnsureSubsystem<Vfs>(kernel); }

}  // namespace kern
