// Stackable VFS filter modules.
//
// One factory produces filter modules under distinct names/priorities so
// tests and demos can stack several mutually-distrustful filter principals
// on the same VFS operation stream. The benign behavior counts operations,
// records chain-position tokens in the FilterCtx (whose WRITE the hook
// annotations grant for the duration of each dispatch) and optionally
// vetoes operations on names with a configured prefix.
//
// Tests can additionally arm one of three malicious probes, mirroring the
// exploit reproductions in src/exploits: each must be blocked with a
// violation attributed to this module's principal when LXFI is enabled.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"

namespace mods {

// Module .data image: the filter registration (its hook pointers are
// indirect-call home slots, so it must live in this module's page-aligned
// section, not the shared heap) plus the forged ops table probe 2 aims.
struct FsFilterData {
  kern::VfsFilter flt;
  kern::FileOperations fake_fops;
};

// Module-private per-filter statistics (kmalloc'd).
struct FsFilterPriv {
  uint64_t pre_count[static_cast<int>(kern::VfsOp::kCount)] = {};
  uint64_t post_count[static_cast<int>(kern::VfsOp::kCount)] = {};
  uint64_t vetoes = 0;
  // Chain-position protocol: every pre hook records ctx->token and bumps
  // it; post hooks record it on the way back down.
  int64_t last_pre_token = -1;
  int64_t last_post_token = -1;
};

// Malicious probes, armed by tests through FsFilterState.
enum class FsFilterProbe : int {
  kNone = 0,
  kScribbleTarget,      // write into another filter's private state
  kForgeFileOps,        // re-aim file->f_op at this module's own table
  kUnregisterVictimFs,  // unregister_filesystem on a filesystem it doesn't own
};

struct FsFilterConfig {
  std::string module_name = "fsflt";
  const char* filter_name = "fsflt";
  int priority = 0;
  std::string veto_prefix;  // veto create/unlink/open of matching names
  int veto_errno = kern::kEperm;
  // Mount scope (VfsFilter::scope): non-null restricts the hooks to the
  // mount whose superblock id matches. Must outlive the module (the tenant
  // harness keeps the strings in a deque).
  const char* scope = nullptr;
};

struct FsFilterState {
  kern::Module* m = nullptr;
  FsFilterConfig config;
  kern::VfsFilter* flt = nullptr;   // &FsFilterData::flt (module .data)
  FsFilterPriv* priv = nullptr;     // kmalloc'd counters
  kern::FileOperations* fake_fops = nullptr;  // forged table for probe 2

  // Probe arming (set directly by tests; read by the hooks).
  FsFilterProbe probe = FsFilterProbe::kNone;
  void* probe_target = nullptr;                    // kScribbleTarget
  kern::FileSystemType* victim_fstype = nullptr;   // kUnregisterVictimFs

  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kVfsRegisterFilter> register_filter;
  kern::ImportFn<kern::kVfsUnregisterFilter> unregister_filter;
  kern::ImportFn<kern::kUnregisterFilesystem> unregister_filesystem;

  uint64_t pre_count(kern::VfsOp op) const {
    return priv->pre_count[static_cast<int>(op)];
  }
  uint64_t post_count(kern::VfsOp op) const {
    return priv->post_count[static_cast<int>(op)];
  }
};

kern::ModuleDef FsFilterModuleDef(FsFilterConfig config);
std::shared_ptr<FsFilterState> GetFsFilter(kern::Module& m);

}  // namespace mods
