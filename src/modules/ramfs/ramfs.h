// ramfs: an in-memory filesystem module loaded as an untrusted principal.
//
// Every mounted superblock is one LXFI principal; inodes and open files are
// aliased onto it by the module (lxfi_princ_alias), and file data lives in
// kmalloc'd buffers hung off inode->i_private — so the capability story is
// exactly the paper's: the module can write precisely the objects the
// kernel handed it for this mount, nothing else.
#pragma once

#include <functional>
#include <memory>

#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"

namespace mods {

// Module .data image: the filesystem type and the ops tables the kernel
// dispatches through. These live in the module's page-aligned .data section
// (not the shared heap) so the writer set attributes their pages to this
// module alone — the kernel-side indirect-call check then demands CALL
// capabilities of exactly this module's principals.
struct RamfsData {
  kern::FileSystemType fstype;
  kern::SuperOperations sops;
  kern::InodeOperations dir_iops;
  kern::InodeOperations file_iops;
  kern::FileOperations fops;
};

struct RamfsImports {
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKrealloc> krealloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kKsize> ksize;
  kern::ImportFn<kern::kRegisterFilesystem> register_filesystem;
  kern::ImportFn<kern::kUnregisterFilesystem> unregister_filesystem;
  kern::ImportFn<kern::kIget> iget;
  kern::ImportFn<kern::kIput> iput;
  kern::ImportFn<kern::kDAlloc> d_alloc;
  kern::ImportFn<kern::kDInstantiate> d_instantiate;
  kern::ImportFn<kern::kCopyFromUser> copy_from_user;
  kern::ImportFn<kern::kCopyToUser> copy_to_user;
};

struct RamfsState {
  kern::Module* m = nullptr;
  RamfsImports api;
  kern::FileSystemType* fstype = nullptr;  // &RamfsData::fstype (module .data)
  bool prepopulate = false;
  uint64_t mounts = 0;  // mount-time only; not touched on the op hot path
};

// prepopulate: each mount seeds a ".keep" file in the root through
// d_alloc/d_instantiate (exercises the dentry-REF grant flow).
// fs_name: the registered filesystem type (and module) name — must be a
// string with static lifetime; lets tests load a second, independent ramfs
// instance ("ramfs2") beside the default one.
kern::ModuleDef RamfsModuleDef(bool prepopulate = false, const char* fs_name = "ramfs");
std::shared_ptr<RamfsState> GetRamfs(kern::Module& m);

}  // namespace mods
