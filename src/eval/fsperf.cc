#include "src/eval/fsperf.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/clock.h"
#include "src/kernel/block/block.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/ksymtab.h"
#include "src/kernel/panic.h"
#include "src/kernel/smp.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/modules/dm/dm_modules.h"
#include "src/modules/jexfs/jexfs.h"
#include "src/modules/jexfs/jexfs_format.h"
#include "src/modules/ramfs/ramfs.h"

namespace eval {
namespace {

// Per-worker user-space staging area. Workers touch disjoint windows, so
// concurrent copies never overlap.
constexpr uintptr_t kUserWindow = 0x8000;
uintptr_t UserBase(int worker) { return 0x1000 + static_cast<uintptr_t>(worker) * kUserWindow; }

// The block backing: a small RAM disk formatted with jexfs. 1024 blocks give
// ~950 data blocks past the fixed metadata/journal area — plenty for the
// 32-inode workload the block-mode config drives.
constexpr uint64_t kFsDiskBlocks = 1024;

// mkfs from trusted harness code: format a host image and write it through
// the TOP device with plain end_io-less bios, so a dm-crypt-stacked mount
// sees a correctly encrypted disk.
void MkfsThroughDevice(kern::Kernel* kernel, kern::BlockDevice* top) {
  std::vector<uint8_t> img(kFsDiskBlocks * mods::kJexBlockSize);
  if (!mods::JexMkfs(img.data(), kFsDiskBlocks)) {
    kern::Panic("fsperf harness: mkfs failed");
  }
  kern::BlockLayer* block = kern::GetBlockLayer(kernel);
  for (uint64_t s = 0; s < kFsDiskBlocks; ++s) {
    kern::Bio bio;
    bio.sector = s;
    bio.size = mods::kJexBlockSize;
    bio.data = img.data() + s * mods::kJexBlockSize;
    bio.write = true;
    if (block->SubmitBio(top, &bio) != 0 || bio.status != 0) {
      kern::Panic("fsperf harness: mkfs write failed");
    }
  }
}

}  // namespace

struct FsperfHarness::Impl {
  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  std::unique_ptr<kern::CpuSet> cpus;
};

FsperfHarness::FsperfHarness(bool isolated, int cpus)
    : FsperfHarness(FsperfHarnessOptions{isolated, cpus}) {}

FsperfHarness::FsperfHarness(const FsperfHarnessOptions& options) : impl_(new Impl()) {
  const int cpus = options.cpus;
  if (options.block_backing && cpus > 0) {
    kern::Panic("fsperf harness: jexfs is single-threaded per superblock (cpus must be 0)");
  }
  impl_->kernel = std::make_unique<kern::Kernel>(256ull << 20);
  if (options.isolated) {
    impl_->rt = std::make_unique<lxfi::Runtime>(impl_->kernel.get());
  }
  kernel_ = impl_->kernel.get();
  rt_ = impl_->rt.get();
  lxfi::InstallKernelApi(kernel_, rt_);
  if (rt_ != nullptr && options.block_backing) {
    // Block mode stacks two modules (jexfs over dm-crypt). Per-principal
    // heap partitions keep their allocations on disjoint pages, so the
    // page-granular writer-set check on jexfs's bio end_io slot never sees
    // a foreign principal that merely shares a slab page. Must run before
    // any module allocates.
    rt_->EnablePartitionedHeaps();
  }
  vfs_ = kern::GetVfs(kernel_);
  if (options.block_backing) {
    kern::BlockLayer* block = kern::GetBlockLayer(kernel_);
    kern::BlockDevice* top = block->CreateRamDisk("fsdisk0", kFsDiskBlocks);
    if (top == nullptr) {
      kern::Panic("fsperf harness: ramdisk failed");
    }
    if (options.dm_crypt) {
      if (kernel_->LoadModule(mods::DmCryptModuleDef()) == nullptr) {
        kern::Panic("fsperf harness: dm-crypt failed to load");
      }
      top = block->DmCreate("fscrypt0", "crypt", top, "fskey");
      if (top == nullptr) {
        kern::Panic("fsperf harness: dm-crypt stack failed");
      }
    }
    MkfsThroughDevice(kernel_, top);
    if (kernel_->LoadModule(mods::JexfsModuleDef("jexfs", top->name)) == nullptr) {
      kern::Panic("fsperf harness: jexfs failed to load");
    }
    if (vfs_->Mount("jexfs", "/mnt") == nullptr) {
      kern::Panic("fsperf harness: jexfs mount failed");
    }
  } else {
    if (kernel_->LoadModule(mods::RamfsModuleDef()) == nullptr) {
      kern::Panic("fsperf harness: ramfs failed to load");
    }
    if (vfs_->Mount("ramfs", "/mnt") == nullptr) {
      kern::Panic("fsperf harness: mount failed");
    }
  }
  // Working directories: /mnt/d0 for the single-threaded runs, /mnt/cpuN
  // per simulated CPU, /mnt/shared for the contended workload. Created
  // before any CPU thread runs, so the dcache spine is stable by the time
  // the parallel phases walk it.
  if (vfs_->Mkdir("/mnt/d0") != 0 || vfs_->Mkdir("/mnt/shared") != 0) {
    kern::Panic("fsperf harness: mkdir failed");
  }
  int workers = cpus > 0 ? cpus : 0;
  for (int i = 0; i < workers; ++i) {
    char dir[32];
    std::snprintf(dir, sizeof(dir), "/mnt/cpu%d", i);
    if (vfs_->Mkdir(dir) != 0) {
      kern::Panic("fsperf harness: per-cpu mkdir failed");
    }
  }
  if (cpus > 0) {
    kernel_->slab().EnableSmpCache();
    impl_->cpus = std::make_unique<kern::CpuSet>(kernel_, cpus);
  }
}

FsperfHarness::~FsperfHarness() {
  impl_->cpus.reset();  // CPU threads drain before kernel/runtime teardown
  delete impl_;
}

int FsperfHarness::cpus() const { return impl_->cpus == nullptr ? 0 : impl_->cpus->ncpus(); }

namespace {

// One worker's pass over `files` files in `dir`. Phase wall times are
// accumulated into `wall[7]` (create, write, fsync, read, stat, rename,
// unlink); op counts into `ops[7]`. The fsync and rename phases only run
// when the config asks for them (the block-backed workload). Runs on the
// calling thread.
constexpr int kFsPhases = 7;

void RunPhases(kern::Kernel* kernel, kern::Vfs* vfs, const char* dir, const FsperfConfig& config,
               int worker, bool quiesce, uint64_t* wall, uint64_t* ops) {
  const uint64_t files = config.files;
  const uint32_t chunk = config.io_chunk;
  const uint32_t bytes = config.file_bytes;
  const uintptr_t ubuf = UserBase(worker);
  char path[64];

  // Phase 0: create (open O_CREAT + close).
  uint64_t t0 = lxfi::MonotonicNowNs();
  for (uint64_t i = 0; i < files; ++i) {
    std::snprintf(path, sizeof(path), "%s/f%llu", dir, static_cast<unsigned long long>(i));
    int err = 0;
    kern::File* f = vfs->Open(path, kern::kOCreate, &err);
    if (f == nullptr) {
      kern::Panic("fsperf: create failed");
    }
    vfs->Close(f);
    if (quiesce && (i & 63) == 63) {
      kern::CpuSet::QuiescePoint();
    }
  }
  wall[0] += lxfi::MonotonicNowNs() - t0;
  ops[0] += files;

  // Phase 1: write in chunks.
  t0 = lxfi::MonotonicNowNs();
  for (uint64_t i = 0; i < files; ++i) {
    std::snprintf(path, sizeof(path), "%s/f%llu", dir, static_cast<unsigned long long>(i));
    kern::File* f = vfs->Open(path, 0);
    for (uint32_t off = 0; off < bytes; off += chunk) {
      uint32_t n = off + chunk <= bytes ? chunk : bytes - off;
      if (vfs->Write(f, ubuf, n) != static_cast<int64_t>(n)) {
        kern::Panic("fsperf: write failed");
      }
      ++ops[1];
    }
    vfs->Close(f);
    if (quiesce && (i & 63) == 63) {
      kern::CpuSet::QuiescePoint();
    }
  }
  wall[1] += lxfi::MonotonicNowNs() - t0;

  // Phase 2: fsync (block backing: one journal checkpoint per file).
  if (config.fsync_phase) {
    t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < files; ++i) {
      std::snprintf(path, sizeof(path), "%s/f%llu", dir, static_cast<unsigned long long>(i));
      kern::File* f = vfs->Open(path, 0);
      if (f == nullptr || vfs->Fsync(f) != 0) {
        kern::Panic("fsperf: fsync failed");
      }
      vfs->Close(f);
      if (quiesce && (i & 63) == 63) {
        kern::CpuSet::QuiescePoint();
      }
    }
    wall[2] += lxfi::MonotonicNowNs() - t0;
    ops[2] += files;
  }

  // Phase 3: read back in chunks.
  t0 = lxfi::MonotonicNowNs();
  for (uint64_t i = 0; i < files; ++i) {
    std::snprintf(path, sizeof(path), "%s/f%llu", dir, static_cast<unsigned long long>(i));
    kern::File* f = vfs->Open(path, 0);
    int64_t got;
    while ((got = vfs->Read(f, ubuf, chunk)) > 0) {
      ++ops[3];
    }
    if (got < 0) {
      kern::Panic("fsperf: read failed");
    }
    vfs->Close(f);
    if (quiesce && (i & 63) == 63) {
      kern::CpuSet::QuiescePoint();
    }
  }
  wall[3] += lxfi::MonotonicNowNs() - t0;

  // Phase 4: stat.
  t0 = lxfi::MonotonicNowNs();
  for (uint64_t i = 0; i < files; ++i) {
    std::snprintf(path, sizeof(path), "%s/f%llu", dir, static_cast<unsigned long long>(i));
    kern::VfsStat st;
    if (vfs->Stat(path, &st) != 0 || st.size != bytes) {
      kern::Panic("fsperf: stat failed");
    }
    if (quiesce && (i & 63) == 63) {
      kern::CpuSet::QuiescePoint();
    }
  }
  wall[4] += lxfi::MonotonicNowNs() - t0;
  ops[4] += files;

  // Phase 5: rename every file (f%N -> g%N) through the dcache d_move.
  if (config.rename_phase) {
    char npath[64];
    t0 = lxfi::MonotonicNowNs();
    for (uint64_t i = 0; i < files; ++i) {
      std::snprintf(path, sizeof(path), "%s/f%llu", dir, static_cast<unsigned long long>(i));
      std::snprintf(npath, sizeof(npath), "%s/g%llu", dir, static_cast<unsigned long long>(i));
      if (vfs->Rename(path, npath) != 0) {
        kern::Panic("fsperf: rename failed");
      }
      if (quiesce && (i & 63) == 63) {
        kern::CpuSet::QuiescePoint();
      }
    }
    wall[5] += lxfi::MonotonicNowNs() - t0;
    ops[5] += files;
  }

  // Phase 6: unlink (the renamed names when the rename phase ran).
  t0 = lxfi::MonotonicNowNs();
  for (uint64_t i = 0; i < files; ++i) {
    std::snprintf(path, sizeof(path), "%s/%c%llu", dir, config.rename_phase ? 'g' : 'f',
                  static_cast<unsigned long long>(i));
    if (vfs->Unlink(path) != 0) {
      kern::Panic("fsperf: unlink failed");
    }
    if (quiesce && (i & 63) == 63) {
      kern::CpuSet::QuiescePoint();
    }
  }
  wall[6] += lxfi::MonotonicNowNs() - t0;
  ops[6] += files;
}

}  // namespace

FsperfMeasurement FsperfHarness::Run(const FsperfConfig& config) {
  // Stage the write payload once.
  std::memset(kernel_->user().UserPtr(UserBase(0)), 0xC3, config.io_chunk);
  uint64_t violations_before = rt_ != nullptr ? rt_->violation_count() : 0;
  uint64_t wall[kFsPhases] = {};
  uint64_t ops[kFsPhases] = {};
  RunPhases(kernel_, vfs_, "/mnt/d0", config, /*worker=*/0, /*quiesce=*/false, wall, ops);
  FsperfMeasurement m;
  FsperfPhase* phases[kFsPhases] = {&m.create, &m.write, &m.fsync, &m.read,
                                    &m.stat,   &m.rename, &m.unlink};
  for (int i = 0; i < kFsPhases; ++i) {
    phases[i]->ops = ops[i];
    phases[i]->wall_ns = wall[i];
  }
  if (rt_ != nullptr) {
    m.violations = rt_->violation_count() - violations_before;
  }
  return m;
}

FsScalingResult FsperfHarness::RunParallel(const FsperfConfig& config) {
  Impl* im = impl_;
  if (im->cpus == nullptr) {
    kern::Panic("RunParallel requires an SMP harness (cpus > 0)");
  }
  const int n = im->cpus->ncpus();
  for (int i = 0; i < n; ++i) {
    std::memset(kernel_->user().UserPtr(UserBase(i)), 0xC3, config.io_chunk);
  }
  std::vector<uint64_t> cpu_ns(n, 0);
  std::vector<uint64_t> cpu_ops(n, 0);
  kern::Kernel* k = kernel_;
  kern::Vfs* vfs = vfs_;
  uint64_t wall_start = lxfi::MonotonicNowNs();
  for (int i = 0; i < n; ++i) {
    uint64_t* out_ns = &cpu_ns[i];
    uint64_t* out_ops = &cpu_ops[i];
    FsperfConfig cfg = config;
    im->cpus->RunOn(i, [k, vfs, cfg, i, out_ns, out_ops] {
      char dir[32];
      std::snprintf(dir, sizeof(dir), "/mnt/cpu%d", i);
      uint64_t wall[kFsPhases] = {};
      uint64_t ops[kFsPhases] = {};
      uint64_t t0 = lxfi::ThreadCpuNowNs();
      RunPhases(k, vfs, dir, cfg, /*worker=*/i, /*quiesce=*/true, wall, ops);
      *out_ns = lxfi::ThreadCpuNowNs() - t0;
      *out_ops = 0;
      for (int p = 0; p < kFsPhases; ++p) {
        *out_ops += ops[p];
      }
    });
  }
  im->cpus->Barrier();
  FsScalingResult result;
  result.cpus = n;
  result.wall_ns = lxfi::MonotonicNowNs() - wall_start;
  for (int i = 0; i < n; ++i) {
    result.ops += cpu_ops[i];
    result.cpu_ns_total += cpu_ns[i];
  }
  return result;
}

FsScalingResult FsperfHarness::RunContended(const FsContendedConfig& config) {
  Impl* im = impl_;
  if (im->cpus == nullptr) {
    kern::Panic("RunContended requires an SMP harness (cpus > 0)");
  }
  const int n = im->cpus->ncpus();
  std::vector<uint64_t> cpu_ns(n, 0);
  std::vector<uint64_t> cpu_ops(n, 0);
  kern::Vfs* vfs = vfs_;
  uint64_t wall_start = lxfi::MonotonicNowNs();
  for (int i = 0; i < n; ++i) {
    uint64_t* out_ns = &cpu_ns[i];
    uint64_t* out_ops = &cpu_ops[i];
    FsContendedConfig cfg = config;
    im->cpus->RunOn(i, [vfs, cfg, i, out_ns, out_ops] {
      // Per-CPU names in the one shared hot directory: every walk contends
      // on /mnt/shared's child index, never on individual files (no
      // cross-CPU open-vs-unlink lifetime races).
      char path[64];
      uint64_t ops = 0;
      uint64_t quiesce_tick = 0;
      auto quiesce = [&quiesce_tick] {
        if ((++quiesce_tick & 63) == 0) {
          kern::CpuSet::QuiescePoint();
        }
      };
      uint64_t t0 = lxfi::ThreadCpuNowNs();
      for (uint32_t r = 0; r < cfg.rounds; ++r) {
        for (uint64_t f = 0; f < cfg.files; ++f) {
          std::snprintf(path, sizeof(path), "/mnt/shared/c%df%llu", i,
                        static_cast<unsigned long long>(f));
          int err = 0;
          kern::File* file = vfs->Open(path, kern::kOCreate, &err);
          if (file == nullptr) {
            kern::Panic("fsperf contended: create failed");
          }
          vfs->Close(file);
          ++ops;
          quiesce();
        }
        for (uint32_t s = 0; s < cfg.stats_per_file; ++s) {
          for (uint64_t f = 0; f < cfg.files; ++f) {
            std::snprintf(path, sizeof(path), "/mnt/shared/c%df%llu", i,
                          static_cast<unsigned long long>(f));
            kern::VfsStat st;
            if (vfs->Stat(path, &st) != 0) {
              kern::Panic("fsperf contended: stat failed");
            }
            ++ops;
            quiesce();
          }
        }
        for (uint64_t f = 0; f < cfg.files; ++f) {
          std::snprintf(path, sizeof(path), "/mnt/shared/c%df%llu", i,
                        static_cast<unsigned long long>(f));
          if (vfs->Unlink(path) != 0) {
            kern::Panic("fsperf contended: unlink failed");
          }
          ++ops;
          quiesce();
        }
      }
      *out_ns = lxfi::ThreadCpuNowNs() - t0;
      *out_ops = ops;
      kern::CpuSet::QuiescePoint();
    });
  }
  im->cpus->Barrier();
  FsScalingResult result;
  result.cpus = n;
  result.wall_ns = lxfi::MonotonicNowNs() - wall_start;
  for (int i = 0; i < n; ++i) {
    result.ops += cpu_ops[i];
    result.cpu_ns_total += cpu_ns[i];
  }
  return result;
}

// --- machine model -----------------------------------------------------------

FsMachineModel FsModelFor(const char* phase) {
  // Stock per-op CPU costs backed out of a real ramfs metadata run on the
  // paper testbed class (syscall + VFS + tmpfs work per operation): creates
  // and unlinks pay directory mutation and inode (de)allocation, stats pay
  // a path walk + getattr, chunked I/O pays the copy. Only these substrate
  // constants are modeled; the enforcement delta is measured.
  if (std::strcmp(phase, "create") == 0) {
    return FsMachineModel{3100.0};
  }
  if (std::strcmp(phase, "write") == 0) {
    return FsMachineModel{650.0};
  }
  if (std::strcmp(phase, "fsync") == 0) {
    return FsMachineModel{400.0};  // journal-less ramfs-class fsync is cheap
  }
  if (std::strcmp(phase, "rename") == 0) {
    return FsMachineModel{2800.0};  // two directory mutations + dcache move
  }
  if (std::strcmp(phase, "read") == 0) {
    return FsMachineModel{500.0};
  }
  if (std::strcmp(phase, "stat") == 0) {
    return FsMachineModel{1100.0};
  }
  if (std::strcmp(phase, "unlink") == 0) {
    return FsMachineModel{2400.0};
  }
  return FsMachineModel{1000.0};
}

FsModelRow ComputeFsModelRow(const char* phase, const FsperfPhase& stock,
                             const FsperfPhase& lxfi) {
  FsMachineModel model = FsModelFor(phase);
  double delta_ns = lxfi.NsPerOp() - stock.NsPerOp();
  if (delta_ns < 0) {
    delta_ns = 0;
  }
  double c_stock = model.c_stock_ns;
  double c_lxfi = model.c_stock_ns + delta_ns;
  FsModelRow row;
  row.phase = phase;
  row.stock_kops = 1e6 / c_stock;  // 1e9 ns/s -> kops
  row.lxfi_kops = 1e6 / c_lxfi;
  // CPU% needed to sustain the stock rate: > 100 means the enforced path
  // saturates below it (the Figure 12 "same throughput, more CPU" view).
  row.lxfi_cpu_pct = 100.0 * c_lxfi / c_stock;
  return row;
}

}  // namespace eval
