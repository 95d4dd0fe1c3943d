// Virtual filesystem layer.
//
// The second API family after the net stack: a mount table, a kernel-owned
// dentry cache, inode/file objects, and filesystem modules that register a
// FileSystemType whose super/inode/file operations the kernel reaches only
// through the checked indirect-call path (§4.1). Every mounted superblock is
// one LXFI principal in the annotated modules; inodes and open files alias
// onto it (lxfi_princ_alias), so a compromise through one mount cannot touch
// another mount's objects even inside the same module.
//
// Object-lifetime capability flow (annotated in src/lxfi/kernel_api.cc,
// documented in docs/vfs_enforcement.md):
//   register_filesystem  proves WRITE over the fstype struct (which must
//                        live in the module's own page-aligned sections —
//                        its slots are indirect-call home slots) and mints
//                        a REF as the only unregister ticket.
//   mount dispatch       grants WRITE over the superblock and REFs for the
//                        superblock and root dentry to the new principal.
//   iget / iput          grant / reclaim WRITE over an inode and its
//                        module-private region.
//   d_alloc / d_instantiate
//                        dentries stay kernel-owned; modules hold only REFs
//                        and mutate the dcache through these exports.
//   open / release       copy / reclaim WRITE over the File object.
//
// Stackable filters (filter.h) interpose pre/post hooks on every operation
// the syscall surface dispatches, redirfs-style.
//
// Path walk is lock-free (RCU-walk): per-parent child indexes with
// seqlock-validated probes and epoch-reclaimed dentries (dcache.h), a
// lock-free mount-table probe for the first component, and bounded
// negative-dentry caching so repeated misses cost zero module dispatches.
// Writers serialize per parent directory, never globally.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/base/flat_table.h"
#include "src/base/sync.h"
#include "src/kernel/fs/dcache.h"
#include "src/kernel/fs/filter.h"
#include "src/kernel/types.h"

namespace kern {

class Kernel;
class Module;

// Inode mode bits (subset of S_IFMT).
inline constexpr uint32_t kIfReg = 0x8000;
inline constexpr uint32_t kIfDir = 0x4000;

// Open flags.
inline constexpr int kOCreate = 1;

struct SuperBlock;
struct Inode;
struct Dentry;
struct File;
struct FileSystemType;
struct VfsStat;
struct VfsStatFs;

// Function-pointer tables. They live in module memory (rodata unless the
// module opts out), exactly like proto_ops: the kernel dispatches through
// them with the home-slot indirect-call check.
struct SuperOperations {
  uintptr_t statfs = 0;
};
inline constexpr FnPtrType<int(SuperBlock*, VfsStatFs*)> kSuperStatfs{"super_operations::statfs"};

struct InodeOperations {
  uintptr_t lookup = 0;
  uintptr_t create = 0;
  uintptr_t unlink = 0;
  uintptr_t mkdir = 0;
  uintptr_t rmdir = 0;
  uintptr_t rename = 0;
  uintptr_t getattr = 0;
};
inline constexpr FnPtrType<Inode*(Inode* dir, Dentry*)> kInodeLookup{"inode_operations::lookup"};
inline constexpr FnPtrType<int(Inode*, Dentry*, uint32_t)> kInodeCreate{"inode_operations::create"};
inline constexpr FnPtrType<int(Inode* dir, Dentry*)> kInodeUnlink{"inode_operations::unlink"};
inline constexpr FnPtrType<int(Inode*, Dentry*, uint32_t)> kInodeMkdir{"inode_operations::mkdir"};
inline constexpr FnPtrType<int(Inode* dir, Dentry*)> kInodeRmdir{"inode_operations::rmdir"};
inline constexpr FnPtrType<int(Inode* olddir, Dentry* odent, Inode* newdir, Dentry* ndent)>
    kInodeRename{"inode_operations::rename"};
inline constexpr FnPtrType<int(Inode*, VfsStat*)> kInodeGetattr{"inode_operations::getattr"};

struct FileOperations {
  uintptr_t open = 0;
  uintptr_t release = 0;
  uintptr_t read = 0;
  uintptr_t write = 0;
  uintptr_t fsync = 0;
};
inline constexpr FnPtrType<int(Inode*, File*)> kFileOpen{"file_operations::open"};
inline constexpr FnPtrType<int(Inode*, File*)> kFileRelease{"file_operations::release"};
inline constexpr FnPtrType<int64_t(File*, uintptr_t ubuf, uint64_t n, uint64_t pos)> kFileRead{
    "file_operations::read"};
inline constexpr FnPtrType<int64_t(File*, uintptr_t ubuf, uint64_t n, uint64_t pos)> kFileWrite{
    "file_operations::write"};
inline constexpr FnPtrType<int(File*)> kFileFsync{"file_operations::fsync"};

// Module-provided filesystem type (module kmalloc memory, so the
// register-time capability transfer moves exactly this allocation).
struct FileSystemType {
  const char* name = nullptr;
  uintptr_t mount = 0;
  uintptr_t kill_sb = 0;
  Module* module = nullptr;
};
inline constexpr FnPtrType<int(FileSystemType*, SuperBlock*, Dentry* root)> kFsMount{
    "file_system_type::mount"};
inline constexpr FnPtrType<void(FileSystemType*, SuperBlock*)> kFsKillSb{
    "file_system_type::kill_sb"};

// The sb_caps grant covers ONLY the s_op/s_fs_info pair (the fields a
// filesystem module legitimately fills at mount); type/root/next_ino, the
// open-file count, the id and its scope key stay kernel-only, so a malicious
// module cannot forge the root dentry Unmount frees, the type the registry
// trusts or the scope filter dispatch matches. Keep
// s_op and s_fs_info adjacent — the iterator emits them as one range.
struct SuperBlock {
  FileSystemType* type = nullptr;
  Dentry* root = nullptr;  // kernel-set; module instantiates its inode
  const SuperOperations* s_op = nullptr;
  void* s_fs_info = nullptr;  // module-private per-mount state
  uint64_t next_ino = 1;      // kernel-managed, atomic fetch-add in Iget
  uint32_t open_files = 0;    // kernel-managed, atomic; gates Unmount
  char id[kVfsNameMax + 1] = {};
  uint64_t scope_key = 0;  // kernel-managed: ScopeKey(id), set at mount
};

struct Inode {
  uint64_t ino = 0;
  uint32_t mode = 0;
  uint32_t nlink = 0;
  uint64_t size = 0;
  SuperBlock* sb = nullptr;
  const InodeOperations* i_op = nullptr;
  const FileOperations* i_fop = nullptr;
  void* i_private = nullptr;  // module-private (e.g. the ramfs data buffer)
};

// Dentry lives in dcache.h (the lock-free RCU-walk child index is its
// core); it is re-exported here for the API surface below.

struct File {
  Inode* inode = nullptr;
  Dentry* dentry = nullptr;
  uint64_t pos = 0;
  const FileOperations* f_op = nullptr;
  void* private_data = nullptr;
};

struct VfsStat {
  uint64_t ino = 0;
  uint32_t mode = 0;
  uint32_t nlink = 0;
  uint64_t size = 0;
};

struct VfsStatFs {
  uint64_t files = 0;
  uint64_t bytes = 0;
  char fsname[kVfsNameMax + 1] = {};
};

enum class VfsCounter { kLookupDispatches, kCount };
inline const char* CounterName(VfsCounter c) {
  return lxfi::CounterNameIn(c, {"lookup_dispatches"});
}

class Vfs {
 public:
  explicit Vfs(Kernel* kernel);
  ~Vfs();

  FilterChain& filters() { return chain_; }
  Dcache& dcache() { return dcache_; }

  // --- filesystem-type registry (register_filesystem export) --------------
  int RegisterFilesystem(FileSystemType* fstype);
  int UnregisterFilesystem(FileSystemType* fstype);
  FileSystemType* FindFilesystem(const char* name);

  // --- mounts --------------------------------------------------------------
  // Mounts `fsname` at `where` ("/name", one component). Returns null on
  // failure (unknown type, busy mountpoint, module mount failure).
  SuperBlock* Mount(const char* fsname, const char* where);
  int Unmount(const char* where);
  SuperBlock* SuperAt(const char* where);

  // --- containment (src/lxfi/containment.cc) -------------------------------
  // Fail-fast probe: true when the superblock belongs to a quarantined
  // module's filesystem type. Every dispatching syscall checks it before
  // entering the module, so in-flight tenants see -EIO instead of running
  // code inside a principal whose arena is sealed.
  static bool TypeQuarantined(const SuperBlock* sb);
  // Unlinks every mount whose filesystem type belongs to `module`, tearing
  // the trees down WITHOUT dispatching kill_sb into the (quarantined)
  // module — the bulk arena teardown at unload reclaims its per-mount
  // state. Mounts with open files are skipped: their handles fail fast
  // with -EIO and drain through Close. Returns the number of still-busy
  // mounts left behind (0 means the module holds no mounts anymore).
  int ForceUnmountModule(Module* module);
  // Drops every filesystem-type registration owned by `module` (a
  // quarantined module cannot be dispatched to unregister itself).
  // Idempotent against unregister_filesystem racing the quarantine.
  // Returns the number of entries purged.
  size_t PurgeFilesystemsOf(Module* module);

  // --- syscall surface (trusted kernel code dispatching into modules) ------
  File* Open(const char* path, int flags, int* err = nullptr);
  int Close(File* file);
  int64_t Read(File* file, uintptr_t ubuf, uint64_t n);
  int64_t Write(File* file, uintptr_t ubuf, uint64_t n);
  int Seek(File* file, uint64_t pos);
  // Flushes the file's filesystem state to its backing store (no-op, and 0,
  // for filesystems without an fsync operation, e.g. ramfs).
  int Fsync(File* file);
  int Mkdir(const char* path);
  int Rmdir(const char* path);
  int Unlink(const char* path);
  // Moves a regular file (directories report -EISDIR — directory depth is
  // immutable, which is what keeps the multi-lock order a total one), same
  // superblock only (-EXDEV), never over an existing name (-EEXIST,
  // RENAME_NOREPLACE semantics), never while open (-EBUSY). Walkers racing
  // the commit observe the old name, both names, or the new name — never
  // neither (new is published before old dies).
  int Rename(const char* oldpath, const char* newpath);
  int Stat(const char* path, VfsStat* out);
  int StatFs(const char* where, VfsStatFs* out);

  // --- dcache/inode services backing the module-facing exports -------------
  Inode* Iget(SuperBlock* sb);
  void Iput(Inode* inode);
  Dentry* DAlloc(Dentry* parent, const char* name);
  int DInstantiate(Dentry* dentry, Inode* inode);

  size_t open_files() const { return open_files_.load(std::memory_order_relaxed); }
  size_t mount_count() const { return mount_count_.load(std::memory_order_relaxed); }

  // Module lookup dispatches actually performed (misses that were not
  // answered by a cached negative dentry). Tests use it to prove that a
  // repeated miss costs zero module crossings. Registered as "vfs".
  uint64_t lookup_dispatches() const { return stats_.count(VfsCounter::kLookupDispatches); }

 private:
  // A path's last component: Walk's leaf mode fills parent and name, the
  // leaf step fills child (null when absent) and its flags.
  struct Leaf {
    Dentry* parent = nullptr;
    char name[kVfsNameMax + 1] = {};
    Dentry* child = nullptr;
    uint32_t flags = 0;
  };

  // The lock-free, allocation-free dcache probe for one component. Returns
  // the cached child (positive, negative or dying) or null on a miss; a
  // cached negative counts as a negative hit.
  Dentry* ProbeChild(Dentry* dir, const char* name);
  // Resolves one missing component through inode_operations::lookup;
  // caches bounded negative results in the parent index.
  Dentry* LookupChild(Dentry* parent, const char* name);
  // The one path resolver: ProbeChild, then LookupChild on a miss, per
  // component, so a walk whose components are all cached takes no lock.
  // With `leaf` (kVfsNameMax + 1 bytes) it stops one component early: *out
  // is the live parent directory and `leaf` the unresolved last component;
  // a path naming only a mount has no leaf (-EINVAL).
  int Walk(const char* path, Dentry** out, char* leaf = nullptr);
  // The one leaf step: LookupChild on each leaf (so a name that exists only
  // on disk is found), then both parents' writer locks, the re-check of each
  // leaf under them, and `locked` run with the locks held. `a` may be `b`.
  template <typename Fn>
  int StepLeaves(Leaf* a, Leaf* b, Fn&& locked);
  // The one filtered dispatch: the filter chain's pre hooks on `ctx`, then
  // `call` (the typed indirect call) unless a hook vetoed, then the post
  // hooks with the result.
  template <typename Call>
  auto Dispatch(VfsOp op, FilterCtx ctx, Call&& call) -> decltype(call());

  // Shared create/mkdir body. A name that exists (cached, or found by the
  // leaf step through the filesystem's lookup) fails mkdir with -EEXIST and
  // is handed to Open(kOCreate) to open; otherwise `op` is dispatched on a
  // fresh dentry.
  int MakeEntry(Leaf* leaf, uint32_t mode, VfsOp op, Dentry** out);
  // Shared unlink/rmdir body: the leaf step finds the victim and marks it
  // dying before the module dispatch.
  int RemoveEntry(const char* path, bool dir);
  // Shared read/write body.
  int64_t Transfer(VfsOp op, File* file, uintptr_t ubuf, uint64_t n);

  Kernel* kernel_;
  FilterChain chain_;
  Dcache dcache_;

  // Registry + mount table: FNV-1a-keyed FlatTables (same pattern as the
  // annotation registry), so SuperAt on the walk fast path is one lock-free
  // O(1) probe. Same-hash collisions chain through the entries; entry names
  // are immutable and entries are epoch-retired, so the chains are safe to
  // traverse after a validated probe.
  struct MountEntry {
    char name[kVfsNameMax + 1] = {};  // mountpoint component (no slash)
    uint64_t hash = 0;
    SuperBlock* sb = nullptr;
    MountEntry* next = nullptr;  // same-hash chain (atomic)
  };
  struct FsTypeEntry {
    FileSystemType* type = nullptr;
    uint64_t hash = 0;
    FsTypeEntry* next = nullptr;  // same-hash chain (atomic)
  };
  MountEntry* FindMountLocked(std::string_view name) const;
  template <typename Fn>
  void ForEachMountLocked(Fn&& fn) const;

  mutable lxfi::Spinlock mount_mu_;   // writers of mounts_
  mutable lxfi::Spinlock fstype_mu_;  // writers of fstypes_
  lxfi::FlatTable<MountEntry*> mounts_;    // name hash -> chain head
  lxfi::FlatTable<FsTypeEntry*> fstypes_;  // name hash -> chain head
  std::atomic<size_t> mount_count_{0};
  std::atomic<size_t> open_files_{0};
  lxfi::PerCpuCounters<VfsCounter> stats_;
};

Vfs* GetVfs(Kernel* kernel);

// Filesystem registration and the inode/dentry lifetime services.
inline constexpr KernelSymbol<int(FileSystemType*)> kRegisterFilesystem{"register_filesystem"};
inline constexpr KernelSymbol<int(FileSystemType*)> kUnregisterFilesystem{
    "unregister_filesystem"};
inline constexpr KernelSymbol<Inode*(SuperBlock*)> kIget{"iget"};
inline constexpr KernelSymbol<void(Inode*)> kIput{"iput"};
inline constexpr KernelSymbol<Dentry*(Dentry* parent, const char* name)> kDAlloc{"d_alloc"};
inline constexpr KernelSymbol<int(Dentry*, Inode*)> kDInstantiate{"d_instantiate"};

}  // namespace kern
