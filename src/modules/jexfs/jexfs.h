// jexfs: an extent-based journaling filesystem module over a BlockDevice,
// loaded as an untrusted LXFI principal.
//
// Each mounted superblock is one instance principal (the mount dispatch's
// principal(sb)); inodes and open files alias onto it. The module touches
// its backing device only through three enforced channels:
//   - home-block reads/writes go through the kernel page cache (pc_bget /
//     pc_bwrite / pc_bwrite_done — the WRITE over a page's payload exists
//     only between bwrite and bwrite_done);
//   - journal appends are direct bios through submit_bio, whose completion
//     dispatches the module's end_io through the checked indirect-call path
//     (the bio's capabilities are granted for exactly that window);
//   - durability is pc_sync (writeback through kernel-owned completions).
//
// On-disk format and journal protocol live in jexfs_format.h; the module is
// single-threaded per superblock (the fsperf block backing runs it on the
// bench thread only).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "src/kernel/block/block.h"
#include "src/kernel/fs/pagecache.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"

namespace mods {

// Module .data image: fstype and dispatch tables, exactly like ramfs — the
// page-aligned module sections make the writer set attribute them to this
// module, and the kernel's indirect-call check vets every slot.
struct JexfsData {
  kern::FileSystemType fstype;
  kern::SuperOperations sops;
  kern::InodeOperations dir_iops;
  kern::InodeOperations file_iops;
  kern::FileOperations fops;
};

struct JexfsImports {
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kRegisterFilesystem> register_filesystem;
  kern::ImportFn<kern::kUnregisterFilesystem> unregister_filesystem;
  kern::ImportFn<kern::kIget> iget;
  kern::ImportFn<kern::kIput> iput;
  kern::ImportFn<kern::kDInstantiate> d_instantiate;
  kern::ImportFn<kern::kCopyFromUser> copy_from_user;
  kern::ImportFn<kern::kCopyToUser> copy_to_user;
  kern::ImportFn<kern::kSubmitBio> submit_bio;
  kern::ImportFn<kern::kDmGetDevice> dm_get_device;
  kern::ImportFn<kern::kPcBget> pc_bget;
  kern::ImportFn<kern::kPcBrelse> pc_brelse;
  kern::ImportFn<kern::kPcBwrite> pc_bwrite;
  kern::ImportFn<kern::kPcBwriteDone> pc_bwrite_done;
  kern::ImportFn<kern::kPcMarkDirty> pc_mark_dirty;
  kern::ImportFn<kern::kPcSync> pc_sync;
  kern::ImportFn<kern::kPcInvalidate> pc_invalidate;
};

struct JexfsState {
  kern::Module* m = nullptr;
  JexfsImports api;
  kern::FileSystemType* fstype = nullptr;  // &JexfsData::fstype (module .data)
  std::string device;                      // backing device name (dm_get_device)
  uint64_t commits = 0;                    // journal transactions committed
  uint64_t replays = 0;                    // transactions applied at mount
};

// fs_name must have static lifetime (it is the registered type and module
// name); device names the backing BlockDevice resolved through
// dm_get_device at mount — pointing it at a dm device stacks the filesystem
// over an enforced target unchanged.
kern::ModuleDef JexfsModuleDef(const char* fs_name, const char* device);
std::shared_ptr<JexfsState> GetJexfs(kern::Module& m);

}  // namespace mods
