#include "src/modules/ramfs/ramfs.h"

#include "src/kernel/kernel.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

RamfsData* DataOf(RamfsState& st) { return static_cast<RamfsData*>(st.m->data()); }

// Allocates and initializes an inode under the current (mount) principal,
// aliasing it onto that principal so later dispatches that name this inode
// (principal(dir), principal(inode)) land on the mount's capability set.
kern::Inode* MakeNode(RamfsState& st, const void* principal_name, kern::SuperBlock* sb,
                      uint32_t mode) {
  kern::Module& m = *st.m;
  kern::Inode* ino = st.api.iget(sb);
  if (ino == nullptr) {
    return nullptr;
  }
  lxfi::Runtime* rt = lxfi::RuntimeOf(m);
  if (rt != nullptr) {
    rt->PrincAlias(principal_name, ino);
  }
  RamfsData* data = DataOf(st);
  lxfi::Store(m, &ino->mode, mode);
  if ((mode & kern::kIfDir) != 0) {
    lxfi::Store<const kern::InodeOperations*>(m, &ino->i_op, &data->dir_iops);
    lxfi::Store<const kern::FileOperations*>(m, &ino->i_fop, nullptr);
  } else {
    lxfi::Store<const kern::InodeOperations*>(m, &ino->i_op, &data->file_iops);
    lxfi::Store<const kern::FileOperations*>(m, &ino->i_fop, &data->fops);
  }
  return ino;
}

// Releases an inode's module-private data and returns it to the kernel.
void DropNode(RamfsState& st, kern::Inode* ino) {
  kern::Module& m = *st.m;
  if (ino->i_private != nullptr) {
    st.api.kfree(ino->i_private);
    lxfi::Store<void*>(m, &ino->i_private, nullptr);
  }
  st.api.iput(ino);
}

// Per-mount module-private state, hung off sb->s_fs_info (the sb_caps
// iterator picks the allocation up once it is linked).
struct RamfsSbInfo {
  uint64_t magic = 0;
  uint64_t root_ino = 0;
};

// Frees every inode still reachable from the dcache (the kernel frees the
// dentries themselves after kill_sb returns). Reading the dcache is fine —
// LXFI checks writes, not reads.
void ReapTree(RamfsState& st, kern::Dentry* dentry) {
  for (kern::Dentry* c = dentry->child; c != nullptr; c = c->sibling) {
    ReapTree(st, c);
  }
  if (dentry->inode != nullptr) {
    DropNode(st, dentry->inode);
  }
}

int Mount(RamfsState& st, kern::FileSystemType* fstype, kern::SuperBlock* sb,
          kern::Dentry* root) {
  kern::Module& m = *st.m;
  RamfsData* data = DataOf(st);
  lxfi::Store<const kern::SuperOperations*>(m, &sb->s_op, &data->sops);
  auto* info = static_cast<RamfsSbInfo*>(st.api.kmalloc(sizeof(RamfsSbInfo)));
  if (info == nullptr) {
    return -kern::kEnomem;
  }
  lxfi::Store(m, &info->magic, static_cast<uint64_t>(0x52414d4653ull));  // "RAMFS"
  lxfi::Store<void*>(m, &sb->s_fs_info, info);

  kern::Inode* root_ino = MakeNode(st, sb, sb, kern::kIfDir);
  if (root_ino == nullptr) {
    st.api.kfree(info);
    lxfi::Store<void*>(m, &sb->s_fs_info, nullptr);
    return -kern::kEnomem;
  }
  lxfi::Store(m, &info->root_ino, root_ino->ino);
  int rc = st.api.d_instantiate(root, root_ino);
  if (rc != 0) {
    DropNode(st, root_ino);
    st.api.kfree(info);
    lxfi::Store<void*>(m, &sb->s_fs_info, nullptr);
    return rc;
  }
  if (st.prepopulate) {
    kern::Dentry* keep = st.api.d_alloc(root, ".keep");
    kern::Inode* keep_ino = keep != nullptr ? MakeNode(st, sb, sb, kern::kIfReg) : nullptr;
    if (keep_ino == nullptr || st.api.d_instantiate(keep, keep_ino) != 0) {
      if (keep_ino != nullptr) {
        DropNode(st, keep_ino);
      }
      // Undo the whole mount: the kernel will not call kill_sb after a
      // failed mount, so reclaim the root inode and per-mount state here.
      ReapTree(st, root);
      st.api.kfree(info);
      lxfi::Store<void*>(m, &sb->s_fs_info, nullptr);
      return -kern::kEnomem;
    }
  }
  ++st.mounts;
  return 0;
}

void KillSb(RamfsState& st, kern::FileSystemType* fstype, kern::SuperBlock* sb) {
  kern::Module& m = *st.m;
  ReapTree(st, sb->root);
  if (sb->s_fs_info != nullptr) {
    st.api.kfree(sb->s_fs_info);
    lxfi::Store<void*>(m, &sb->s_fs_info, nullptr);
  }
}

int StatFs(RamfsState& st, kern::SuperBlock* sb, kern::VfsStatFs* out) {
  kern::Module& m = *st.m;
  uint64_t files = 0;
  uint64_t bytes = 0;
  // Iterative sweep over the (read-only to us) dcache.
  struct Walker {
    static void Count(kern::Dentry* d, uint64_t* files, uint64_t* bytes) {
      for (kern::Dentry* c = d->child; c != nullptr; c = c->sibling) {
        Count(c, files, bytes);
      }
      if (d->inode != nullptr && (d->inode->mode & kern::kIfReg) != 0) {
        ++*files;
        *bytes += d->inode->size;
      }
    }
  };
  Walker::Count(sb->root, &files, &bytes);
  lxfi::Store(m, &out->files, files);
  lxfi::Store(m, &out->bytes, bytes);
  lxfi::MemCopy(m, out->fsname, "ramfs", 6);
  return 0;
}

kern::Inode* Lookup(RamfsState& st, kern::Inode* dir, kern::Dentry* dentry) {
  // ramfs is dcache-complete: anything not already in the dcache does not
  // exist. The dispatch still exercises the enforced lookup crossing.
  return nullptr;
}

int Create(RamfsState& st, kern::Inode* dir, kern::Dentry* dentry, uint32_t mode) {
  kern::Inode* ino = MakeNode(st, dir, dir->sb, mode != 0 ? mode : kern::kIfReg);
  if (ino == nullptr) {
    return -kern::kEnomem;
  }
  int rc = st.api.d_instantiate(dentry, ino);
  if (rc != 0) {
    DropNode(st, ino);
  }
  return rc;
}

int Mkdir(RamfsState& st, kern::Inode* dir, kern::Dentry* dentry, uint32_t mode) {
  return Create(st, dir, dentry, mode | kern::kIfDir);
}

int Unlink(RamfsState& st, kern::Inode* dir, kern::Dentry* dentry) {
  if (dentry->inode == nullptr) {
    return -kern::kEnoent;
  }
  DropNode(st, dentry->inode);
  return 0;
}

int Rename(RamfsState& st, kern::Inode* olddir, kern::Dentry* odent, kern::Inode* newdir,
           kern::Dentry* ndent) {
  // ramfs is dcache-complete: the kernel's dcache commit (new name published
  // before the old dies) is the whole move. The dispatch still exercises the
  // enforced rename crossing and its dual dentry-REF grants.
  if (odent->inode == nullptr) {
    return -kern::kEnoent;
  }
  return 0;
}

int Getattr(RamfsState& st, kern::Inode* inode, kern::VfsStat* out) {
  kern::Module& m = *st.m;
  lxfi::Store(m, &out->ino, inode->ino);
  lxfi::Store(m, &out->mode, inode->mode);
  lxfi::Store(m, &out->nlink, inode->nlink);
  lxfi::Store(m, &out->size, inode->size);
  return 0;
}

int Open(RamfsState& st, kern::Inode* inode, kern::File* file) {
  // Alias the File onto this mount's principal so read/write dispatches
  // (principal(file)) resolve to the same capability set.
  lxfi::Runtime* rt = lxfi::RuntimeOf(*st.m);
  if (rt != nullptr) {
    rt->PrincAlias(inode, file);
  }
  return 0;
}

int Release(RamfsState& st, kern::Inode* inode, kern::File* file) { return 0; }

int64_t Read(RamfsState& st, kern::File* file, uintptr_t ubuf, uint64_t n, uint64_t pos) {
  kern::Inode* ino = file->inode;
  if ((ino->mode & kern::kIfDir) != 0) {
    return -kern::kEisdir;
  }
  if (n == 0 || pos >= ino->size) {
    return 0;
  }
  uint64_t left = ino->size - pos;
  if (n > left) {
    n = left;
  }
  auto* data = static_cast<const uint8_t*>(ino->i_private);
  if (data == nullptr) {
    return 0;
  }
  int rc = st.api.copy_to_user(ubuf, data + pos, n);
  return rc != 0 ? rc : static_cast<int64_t>(n);
}

// Files are capped well below any overflow of the capacity-doubling loop;
// a sparse Seek far past the cap fails with -ENOSPC instead of wrapping
// pos + n or spinning the doubling loop forever.
constexpr uint64_t kRamfsMaxFileBytes = 1ull << 30;

int64_t Write(RamfsState& st, kern::File* file, uintptr_t ubuf, uint64_t n, uint64_t pos) {
  kern::Module& m = *st.m;
  kern::Inode* ino = file->inode;
  if ((ino->mode & kern::kIfDir) != 0) {
    return -kern::kEisdir;
  }
  if (n == 0) {
    return 0;
  }
  uint64_t end = pos + n;
  if (end < pos || end > kRamfsMaxFileBytes) {
    return -kern::kEnospc;
  }
  auto* data = static_cast<uint8_t*>(ino->i_private);
  size_t cap = data != nullptr ? st.api.ksize(data) : 0;
  if (end > cap) {
    size_t newcap = cap != 0 ? cap : 64;
    while (newcap < end) {
      newcap *= 2;
    }
    // krealloc moves the buffer inside the kernel (and, under partitioned
    // heaps, inside this mount's own heap partition): the old object's
    // capabilities transfer away and [grown, grown+newcap) transfers in.
    auto* grown = static_cast<uint8_t*>(st.api.krealloc(data, newcap));
    if (grown == nullptr) {
      return -kern::kEnomem;
    }
    lxfi::Store<void*>(m, &ino->i_private, grown);
    data = grown;
  }
  // The checked uaccess path: copy_from_user's annotation demands WRITE over
  // [data+pos, data+pos+n) — the capability granted by the krealloc above.
  int rc = st.api.copy_from_user(data + pos, ubuf, n);
  if (rc != 0) {
    return rc;
  }
  if (end > ino->size) {
    lxfi::Store(m, &ino->size, end);
  }
  return static_cast<int64_t>(n);
}

}  // namespace

kern::ModuleDef RamfsModuleDef(bool prepopulate, const char* fs_name) {
  auto st = std::make_shared<RamfsState>();
  st->prepopulate = prepopulate;
  kern::ModuleDef def;
  def.name = fs_name;
  def.data_size = sizeof(RamfsData);
  def.imports = {kern::kKmalloc, kern::kKrealloc, kern::kKfree, kern::kKsize,
                 kern::kRegisterFilesystem, kern::kUnregisterFilesystem, kern::kIget, kern::kIput,
                 kern::kDAlloc, kern::kDInstantiate, kern::kCopyFromUser, kern::kCopyToUser,
                 kern::kPrintk};
  def.functions = {
      lxfi::DeclareFunction(
          "ramfs_mount", kern::kFsMount,
          [st](kern::FileSystemType* t, kern::SuperBlock* sb, kern::Dentry* root) {
            return Mount(*st, t, sb, root);
          }),
      lxfi::DeclareFunction(
          "ramfs_kill_sb", kern::kFsKillSb,
          [st](kern::FileSystemType* t, kern::SuperBlock* sb) { KillSb(*st, t, sb); }),
      lxfi::DeclareFunction(
          "ramfs_statfs", kern::kSuperStatfs,
          [st](kern::SuperBlock* sb, kern::VfsStatFs* out) { return StatFs(*st, sb, out); }),
      lxfi::DeclareFunction(
          "ramfs_lookup", kern::kInodeLookup,
          [st](kern::Inode* dir, kern::Dentry* d) { return Lookup(*st, dir, d); }),
      lxfi::DeclareFunction("ramfs_create", kern::kInodeCreate,
                            [st](kern::Inode* dir, kern::Dentry* d, uint32_t mode) {
                              return Create(*st, dir, d, mode);
                            }),
      lxfi::DeclareFunction(
          "ramfs_unlink", kern::kInodeUnlink,
          [st](kern::Inode* dir, kern::Dentry* d) { return Unlink(*st, dir, d); }),
      lxfi::DeclareFunction("ramfs_mkdir", kern::kInodeMkdir,
                            [st](kern::Inode* dir, kern::Dentry* d, uint32_t mode) {
                              return Mkdir(*st, dir, d, mode);
                            }),
      lxfi::DeclareFunction(
          "ramfs_rmdir", kern::kInodeRmdir,
          [st](kern::Inode* dir, kern::Dentry* d) { return Unlink(*st, dir, d); }),
      lxfi::DeclareFunction(
          "ramfs_rename", kern::kInodeRename,
          [st](kern::Inode* od, kern::Dentry* odent, kern::Inode* nd, kern::Dentry* ndent) {
            return Rename(*st, od, odent, nd, ndent);
          }),
      lxfi::DeclareFunction(
          "ramfs_getattr", kern::kInodeGetattr,
          [st](kern::Inode* ino, kern::VfsStat* out) { return Getattr(*st, ino, out); }),
      lxfi::DeclareFunction("ramfs_open", kern::kFileOpen,
                            [st](kern::Inode* ino, kern::File* f) { return Open(*st, ino, f); }),
      lxfi::DeclareFunction("ramfs_release", kern::kFileRelease,
                            [st](kern::Inode* ino, kern::File* f) { return Release(*st, ino, f); }),
      lxfi::DeclareFunction("ramfs_read", kern::kFileRead,
                            [st](kern::File* f, uintptr_t ubuf, uint64_t n, uint64_t pos) {
                              return Read(*st, f, ubuf, n, pos);
                            }),
      lxfi::DeclareFunction("ramfs_write", kern::kFileWrite,
                            [st](kern::File* f, uintptr_t ubuf, uint64_t n, uint64_t pos) {
                              return Write(*st, f, ubuf, n, pos);
                            }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    st->api.kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->api.krealloc = lxfi::GetImport(m, kern::kKrealloc);
    st->api.kfree = lxfi::GetImport(m, kern::kKfree);
    st->api.ksize = lxfi::GetImport(m, kern::kKsize);
    st->api.register_filesystem = lxfi::GetImport(m, kern::kRegisterFilesystem);
    st->api.unregister_filesystem = lxfi::GetImport(m, kern::kUnregisterFilesystem);
    st->api.iget = lxfi::GetImport(m, kern::kIget);
    st->api.iput = lxfi::GetImport(m, kern::kIput);
    st->api.d_alloc = lxfi::GetImport(m, kern::kDAlloc);
    st->api.d_instantiate = lxfi::GetImport(m, kern::kDInstantiate);
    st->api.copy_from_user = lxfi::GetImport(m, kern::kCopyFromUser);
    st->api.copy_to_user = lxfi::GetImport(m, kern::kCopyToUser);

    auto* data = static_cast<RamfsData*>(m.data());
    lxfi::Store(m, &data->sops.statfs, m.FuncAddr("ramfs_statfs"));
    lxfi::Store(m, &data->dir_iops.lookup, m.FuncAddr("ramfs_lookup"));
    lxfi::Store(m, &data->dir_iops.create, m.FuncAddr("ramfs_create"));
    lxfi::Store(m, &data->dir_iops.unlink, m.FuncAddr("ramfs_unlink"));
    lxfi::Store(m, &data->dir_iops.mkdir, m.FuncAddr("ramfs_mkdir"));
    lxfi::Store(m, &data->dir_iops.rmdir, m.FuncAddr("ramfs_rmdir"));
    lxfi::Store(m, &data->dir_iops.rename, m.FuncAddr("ramfs_rename"));
    lxfi::Store(m, &data->dir_iops.getattr, m.FuncAddr("ramfs_getattr"));
    lxfi::Store(m, &data->file_iops.getattr, m.FuncAddr("ramfs_getattr"));
    lxfi::Store(m, &data->fops.open, m.FuncAddr("ramfs_open"));
    lxfi::Store(m, &data->fops.release, m.FuncAddr("ramfs_release"));
    lxfi::Store(m, &data->fops.read, m.FuncAddr("ramfs_read"));
    lxfi::Store(m, &data->fops.write, m.FuncAddr("ramfs_write"));

    kern::FileSystemType* fstype = &data->fstype;
    st->fstype = fstype;
    lxfi::Store(m, &fstype->name, static_cast<const char*>(m.def().name.c_str()));
    lxfi::Store(m, &fstype->mount, m.FuncAddr("ramfs_mount"));
    lxfi::Store(m, &fstype->kill_sb, m.FuncAddr("ramfs_kill_sb"));
    lxfi::Store(m, &fstype->module, &m);
    int rc = st->api.register_filesystem(fstype);
    if (rc != 0) {
      st->fstype = nullptr;
    }
    return rc;
  };
  def.exit_fn = [st](kern::Module& m) {
    if (st->fstype != nullptr && st->api.unregister_filesystem(st->fstype) == 0) {
      st->fstype = nullptr;
    }
  };
  return def;
}

std::shared_ptr<RamfsState> GetRamfs(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<RamfsState>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

}  // namespace mods
