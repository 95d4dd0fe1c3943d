// fsperf: a metadata-heavy filesystem workload over the VFS + ramfs stack
// (the filesystem counterpart of netperf.h's Figure 12 methodology).
//
// The harness drives the real per-operation path — path walk, LXFI wrappers
// and annotation actions, uaccess-checked copies, ramfs — and measures wall
// time per operation for five phases: create, write, read, stat, unlink.
// bench_fsperf runs it against a stock and an isolated kernel and reports
// the per-op enforcement overhead; with --cpus N each simulated CPU drives
// its own working directory through the same enforcement path concurrently.
#pragma once

#include <cstdint>

namespace kern {
class Kernel;
class Vfs;
}

namespace lxfi {
class Runtime;
}

namespace eval {

struct FsperfConfig {
  uint64_t files = 300;     // files per (CPU-)working directory
  uint32_t file_bytes = 2048;
  uint32_t io_chunk = 512;  // read/write granularity
  // Extra phases for the block-backed (jexfs) workload: fsync forces a
  // journal checkpoint per file, rename moves every file through the
  // seqlock-correct dcache d_move before unlink.
  bool fsync_phase = false;
  bool rename_phase = false;
};

// The shared-directory contended workload: every CPU creates, stats and
// unlinks its own file names inside ONE hot directory (/mnt/shared), so all
// path walks and all dcache writers contend on the same parent index. This
// is the workload the per-CPU-directory scaling mode deliberately avoids —
// and the one the RCU-walk dcache exists for.
struct FsContendedConfig {
  uint64_t files = 600;         // files per CPU in the shared directory
  uint32_t stats_per_file = 16; // stat passes between create and unlink
  uint32_t rounds = 2;          // create/stat/unlink cycles
};

struct FsperfPhase {
  uint64_t ops = 0;
  uint64_t wall_ns = 0;

  double NsPerOp() const {
    return ops == 0 ? 0.0 : static_cast<double>(wall_ns) / static_cast<double>(ops);
  }
};

struct FsperfMeasurement {
  FsperfPhase create;
  FsperfPhase write;
  FsperfPhase fsync;   // populated only when config.fsync_phase
  FsperfPhase read;
  FsperfPhase stat;
  FsperfPhase rename;  // populated only when config.rename_phase
  FsperfPhase unlink;
  uint64_t violations = 0;

  uint64_t total_ops() const {
    return create.ops + write.ops + fsync.ops + read.ops + stat.ops + rename.ops + unlink.ops;
  }
  uint64_t total_wall_ns() const {
    return create.wall_ns + write.wall_ns + fsync.wall_ns + read.wall_ns + stat.wall_ns +
           rename.wall_ns + unlink.wall_ns;
  }
};

// Aggregate result of one parallel run (same conventions as netperf's
// SmpScalingResult: wall-clock is honest on hosts with >= cpus cores; the
// model aggregate assumes each simulated CPU runs at hardware speed, with
// contention still visible in the per-op CPU cost).
struct FsScalingResult {
  int cpus = 0;
  uint64_t ops = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns_total = 0;

  double WallOps() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(ops) * 1e9 / static_cast<double>(wall_ns);
  }
  double ModelOps() const {
    return cpu_ns_total == 0 ? 0.0
                             : static_cast<double>(ops) * 1e9 /
                                   static_cast<double>(cpu_ns_total) * static_cast<double>(cpus);
  }
  double PerOpCpuNs() const {
    return ops == 0 ? 0.0 : static_cast<double>(cpu_ns_total) / static_cast<double>(ops);
  }
};

// Owns a kernel (stock or isolated) with ramfs mounted at /mnt; runs the
// workload against it. cpus > 0 spawns a kern::CpuSet, enables the per-CPU
// slab cache, and pre-creates one working directory per CPU (/mnt/cpuN)
// plus the shared contended directory (/mnt/shared).
struct FsperfHarnessOptions {
  bool isolated = false;
  int cpus = 0;
  // Block backing: mounts jexfs (the extent-based journaling filesystem
  // module) over a RAM BlockDevice through the kernel page cache instead of
  // ramfs. jexfs is single-threaded per superblock, so cpus must be 0.
  bool block_backing = false;
  // Stacks the jexfs mount over an enforced dm-crypt target mapping the same
  // disk — the filesystem runs unchanged over the encrypted device.
  bool dm_crypt = false;
};

class FsperfHarness {
 public:
  explicit FsperfHarness(bool isolated, int cpus = 0);
  explicit FsperfHarness(const FsperfHarnessOptions& options);
  ~FsperfHarness();

  FsperfHarness(const FsperfHarness&) = delete;
  FsperfHarness& operator=(const FsperfHarness&) = delete;

  // Single-threaded five-phase run in /mnt/d0.
  FsperfMeasurement Run(const FsperfConfig& config);

  // The same five phases on every simulated CPU at once, each CPU in its
  // own directory. Requires cpus > 0 at construction.
  FsScalingResult RunParallel(const FsperfConfig& config);

  // Every CPU runs create/stat/unlink cycles over its own names in the one
  // shared hot directory. Requires cpus > 0 at construction.
  FsScalingResult RunContended(const FsContendedConfig& config);

  lxfi::Runtime* runtime() const { return rt_; }
  kern::Kernel* kernel() const { return kernel_; }
  kern::Vfs* vfs() const { return vfs_; }
  int cpus() const;

 private:
  struct Impl;
  Impl* impl_;
  kern::Kernel* kernel_ = nullptr;
  lxfi::Runtime* rt_ = nullptr;
  kern::Vfs* vfs_ = nullptr;
};

// --- machine model (the netperf Figure 12 convention, applied to fsperf) -----
//
// The simulated stack measures the per-operation *enforcement delta*
// honestly but runs its substrate (slab, dcache, uaccess) at host speed.
// Like netperf's MachineModel, the stock per-op CPU cost is a calibrated
// constant — per-op syscall+VFS+tmpfs costs from a real ramfs metadata run
// on the testbed class the paper used — and only the measured delta is
// added on top, so bench_fsperf --json can report modeled throughput and
// CPU%, not just raw per-op overhead.

struct FsMachineModel {
  double c_stock_ns;  // stock per-op CPU cost for this phase
};

// Model constants per phase name ("create", "write", "fsync", "read",
// "stat", "rename", "unlink").
FsMachineModel FsModelFor(const char* phase);

struct FsModelRow {
  const char* phase;
  double stock_kops;    // modeled stock throughput, k-ops/s (CPU-bound)
  double lxfi_kops;     // modeled enforced throughput at saturation
  double lxfi_cpu_pct;  // CPU% the enforced path needs to sustain the
                        // stock rate (> 100 means it cannot)
};

// Applies the model to a stock/LXFI phase pair: the measured per-op delta
// rides on the calibrated stock cost.
FsModelRow ComputeFsModelRow(const char* phase, const FsperfPhase& stock,
                             const FsperfPhase& lxfi);

}  // namespace eval
