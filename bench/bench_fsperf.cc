// fsperf: metadata-heavy filesystem workload over VFS + ramfs, stock vs
// LXFI-enforced (the filesystem counterpart of bench_netperf's Figure 12
// methodology).
//
// Default mode runs the five-phase create/write/read/stat/unlink workload
// on a stock and an isolated kernel and reports per-operation wall cost and
// the enforcement overhead per phase. The benign workload must complete
// with zero violations — that is asserted, not assumed.
//
// --cpus N additionally runs the workload on 1..N simulated CPUs, each CPU
// driving its own working directory through the concurrent enforcement
// path, reporting wall-clock and hardware-speed-model aggregates (same
// conventions as bench_netperf --cpus).
//
// --json FILE writes the shared bench schema (bench/json_out.h).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/json_out.h"
#include "src/base/log.h"
#include "src/eval/fsperf.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"

namespace {

// --stats FILE: dump the per-principal metrics snapshot (LxfiStats) of the
// enforced harness next to the throughput rows. Same JSON schema as --json,
// so CI's bench_*.json merge picks it up unchanged.
void DumpStatsFile(const lxfi::Runtime& rt, const char* path, const char* tag) {
  std::string json = lxfi::LxfiStats::DumpJson(rt, tag);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("per-principal stats written to %s\n", path);
}

struct PhaseRow {
  const char* name;
  eval::FsperfPhase stock;
  eval::FsperfPhase lxfi;

  double OverheadPct() const {
    return stock.NsPerOp() == 0 ? 0.0
                                : 100.0 * (lxfi.NsPerOp() - stock.NsPerOp()) / stock.NsPerOp();
  }
};

int RunOverhead(const eval::FsperfConfig& config, lxfibench::JsonWriter* json,
                const char* stats_path) {
  eval::FsperfHarness stock(/*isolated=*/false);
  eval::FsperfHarness isolated(/*isolated=*/true);
  // Enforced with partitioned heaps: the ramfs modules' kmallocs (file data
  // buffers, filter state) land in their own arena slots, so the write
  // guards on the copy loops resolve with the span compare instead of the
  // memo/cap-table probe.
  eval::FsperfHarness arena(/*isolated=*/true);
  arena.runtime()->EnablePartitionedHeaps();
  // Warm all paths (slab magazines, dcache spine, memo shards), then
  // measure.
  eval::FsperfConfig warm = config;
  warm.files = config.files / 10 + 1;
  stock.Run(warm);
  isolated.Run(warm);
  arena.Run(warm);
  eval::FsperfMeasurement ms = stock.Run(config);
  eval::FsperfMeasurement ml = isolated.Run(config);
  eval::FsperfMeasurement ma = arena.Run(config);

  if (ml.violations != 0 || ma.violations != 0) {
    std::fprintf(stderr, "FAIL: enforced benign workload raised %llu violations\n",
                 static_cast<unsigned long long>(ml.violations + ma.violations));
    return 1;
  }

  std::vector<PhaseRow> rows = {
      {"create", ms.create, ml.create}, {"write", ms.write, ml.write},
      {"read", ms.read, ml.read},       {"stat", ms.stat, ml.stat},
      {"unlink", ms.unlink, ml.unlink},
  };
  std::printf("=== fsperf: %llu files x %u bytes (chunk %u), stock vs LXFI ===\n",
              static_cast<unsigned long long>(config.files), config.file_bytes, config.io_chunk);
  std::printf("%-8s %10s %14s %14s %10s\n", "phase", "ops", "stock ns/op", "lxfi ns/op",
              "overhead");
  for (const PhaseRow& r : rows) {
    std::printf("%-8s %10llu %14.1f %14.1f %9.1f%%\n", r.name,
                static_cast<unsigned long long>(r.stock.ops), r.stock.NsPerOp(),
                r.lxfi.NsPerOp(), r.OverheadPct());
  }
  double stock_total = static_cast<double>(ms.total_wall_ns()) / ms.total_ops();
  double lxfi_total = static_cast<double>(ml.total_wall_ns()) / ml.total_ops();
  std::printf("%-8s %10llu %14.1f %14.1f %9.1f%%\n", "all",
              static_cast<unsigned long long>(ms.total_ops()), stock_total, lxfi_total,
              100.0 * (lxfi_total - stock_total) / stock_total);
  std::printf("enforced violations on the benign workload: %llu (must be 0)\n",
              static_cast<unsigned long long>(ml.violations));

  // Figure-12-style calibrated model: the measured enforcement delta rides
  // on real-ramfs stock per-op constants (eval::FsModelFor), yielding
  // modeled throughput and the CPU% the enforced path needs to sustain the
  // stock rate.
  std::printf("\n=== fsperf machine model (measured delta on calibrated stock costs) ===\n");
  std::printf("%-8s %16s %16s %18s\n", "phase", "stock kops/s", "lxfi kops/s",
              "lxfi cpu% @stock");
  for (const PhaseRow& r : rows) {
    eval::FsModelRow m = eval::ComputeFsModelRow(r.name, r.stock, r.lxfi);
    std::printf("%-8s %16.1f %16.1f %17.1f%%\n", m.phase, m.stock_kops, m.lxfi_kops,
                m.lxfi_cpu_pct);
  }

  // Enforced arena delta: same workload, same runtime, partitioned heaps on
  // vs off. PhaseRow reused with "stock" = plain LXFI so OverheadPct() is
  // the arena-relative delta (negative = the arena fast path won).
  std::vector<PhaseRow> arena_rows = {
      {"create", ms.create, ma.create}, {"write", ms.write, ma.write},
      {"read", ms.read, ma.read},       {"stat", ms.stat, ma.stat},
      {"unlink", ms.unlink, ma.unlink},
  };
  std::printf("\n=== fsperf enforced arena delta (LXFI + partitioned heaps) ===\n");
  std::printf("%-8s %14s %16s %14s\n", "phase", "lxfi ns/op", "lxfi+arena ns/op",
              "vs stock");
  for (size_t i = 0; i < arena_rows.size(); ++i) {
    std::printf("%-8s %14.1f %16.1f %13.1f%%\n", arena_rows[i].name, rows[i].lxfi.NsPerOp(),
                arena_rows[i].lxfi.NsPerOp(), arena_rows[i].OverheadPct());
  }
  double arena_total = static_cast<double>(ma.total_wall_ns()) / ma.total_ops();
  std::printf("%-8s %14.1f %16.1f %13.1f%%\n", "all", lxfi_total, arena_total,
              100.0 * (arena_total - stock_total) / stock_total);
  std::printf("(vs stock: enforcement overhead with arenas; compare the lxfi columns\n"
              "for what the span fast path takes off the plain enforced path)\n");

  if (json != nullptr) {
    json->Meta("mode", "overhead");
    json->Meta("files", static_cast<double>(config.files));
    json->Meta("file_bytes", static_cast<double>(config.file_bytes));
    json->Meta("io_chunk", static_cast<double>(config.io_chunk));
    json->Meta("lxfi_violations", static_cast<double>(ml.violations));
    for (const PhaseRow& r : rows) {
      json->AddRow(r.name)
          .Set("ops", static_cast<double>(r.stock.ops))
          .Set("stock_ns_per_op", r.stock.NsPerOp())
          .Set("lxfi_ns_per_op", r.lxfi.NsPerOp())
          .Set("overhead_pct", r.OverheadPct());
    }
    json->AddRow("all")
        .Set("ops", static_cast<double>(ms.total_ops()))
        .Set("stock_ns_per_op", stock_total)
        .Set("lxfi_ns_per_op", lxfi_total)
        .Set("overhead_pct", 100.0 * (lxfi_total - stock_total) / stock_total);
    for (const PhaseRow& r : rows) {
      eval::FsModelRow m = eval::ComputeFsModelRow(r.name, r.stock, r.lxfi);
      json->AddRow(std::string("model_") + r.name)
          .Set("stock_model_kops", m.stock_kops)
          .Set("lxfi_model_kops", m.lxfi_kops)
          .Set("lxfi_cpu_pct_at_stock_rate", m.lxfi_cpu_pct);
    }
    for (size_t i = 0; i < arena_rows.size(); ++i) {
      json->AddRow(std::string("arena_") + arena_rows[i].name)
          .Set("lxfi_ns_per_op", rows[i].lxfi.NsPerOp())
          .Set("lxfi_arena_ns_per_op", arena_rows[i].lxfi.NsPerOp())
          .Set("arena_overhead_vs_stock_pct", arena_rows[i].OverheadPct());
    }
    json->AddRow("arena_all")
        .Set("lxfi_ns_per_op", lxfi_total)
        .Set("lxfi_arena_ns_per_op", arena_total)
        .Set("arena_overhead_vs_stock_pct", 100.0 * (arena_total - stock_total) / stock_total);
  }
  if (stats_path != nullptr) {
    DumpStatsFile(*isolated.runtime(), stats_path, "lxfi_stats_fsperf");
  }
  return 0;
}

// Block-backed mode: the same workload (plus fsync and rename phases) over
// jexfs — the extent-based journaling filesystem module — mounted on a RAM
// BlockDevice through the kernel page cache. Three kernels: stock, enforced,
// and enforced with the mount stacked over a dm-crypt target, proving the
// same filesystem image runs unchanged over an enforced dm device.
int RunBlock(const eval::FsperfConfig& base, lxfibench::JsonWriter* json,
             const char* stats_path) {
  eval::FsperfConfig config = base;
  // jexfs has a 32-slot inode table: clamp the default file count.
  if (config.files > 24) {
    config.files = 24;
  }
  config.fsync_phase = true;
  config.rename_phase = true;

  eval::FsperfHarnessOptions stock_opts;
  stock_opts.block_backing = true;
  eval::FsperfHarnessOptions lxfi_opts = stock_opts;
  lxfi_opts.isolated = true;
  eval::FsperfHarnessOptions crypt_opts = lxfi_opts;
  crypt_opts.dm_crypt = true;
  eval::FsperfHarness stock(stock_opts);
  eval::FsperfHarness isolated(lxfi_opts);
  eval::FsperfHarness crypt(crypt_opts);

  eval::FsperfConfig warm = config;
  warm.files = config.files / 4 + 1;
  stock.Run(warm);
  isolated.Run(warm);
  crypt.Run(warm);
  eval::FsperfMeasurement ms = stock.Run(config);
  eval::FsperfMeasurement ml = isolated.Run(config);
  eval::FsperfMeasurement mc = crypt.Run(config);

  if (ml.violations != 0 || mc.violations != 0) {
    std::fprintf(stderr, "FAIL: enforced block workload raised %llu violations\n",
                 static_cast<unsigned long long>(ml.violations + mc.violations));
    return 1;
  }

  struct BlockRow {
    const char* name;
    eval::FsperfPhase stock;
    eval::FsperfPhase lxfi;
    eval::FsperfPhase crypt;
  };
  std::vector<BlockRow> rows = {
      {"create", ms.create, ml.create, mc.create}, {"write", ms.write, ml.write, mc.write},
      {"fsync", ms.fsync, ml.fsync, mc.fsync},     {"read", ms.read, ml.read, mc.read},
      {"stat", ms.stat, ml.stat, mc.stat},         {"rename", ms.rename, ml.rename, mc.rename},
      {"unlink", ms.unlink, ml.unlink, mc.unlink},
  };
  std::printf("=== fsperf --backing=block: jexfs over page cache, %llu files x %u bytes ===\n",
              static_cast<unsigned long long>(config.files), config.file_bytes);
  std::printf("%-8s %8s %14s %14s %10s %16s\n", "phase", "ops", "stock ns/op", "lxfi ns/op",
              "overhead", "lxfi+crypt ns/op");
  for (const BlockRow& r : rows) {
    double over = r.stock.NsPerOp() == 0
                      ? 0.0
                      : 100.0 * (r.lxfi.NsPerOp() - r.stock.NsPerOp()) / r.stock.NsPerOp();
    std::printf("%-8s %8llu %14.1f %14.1f %9.1f%% %16.1f\n", r.name,
                static_cast<unsigned long long>(r.stock.ops), r.stock.NsPerOp(), r.lxfi.NsPerOp(),
                over, r.crypt.NsPerOp());
  }
  double stock_total = static_cast<double>(ms.total_wall_ns()) / ms.total_ops();
  double lxfi_total = static_cast<double>(ml.total_wall_ns()) / ml.total_ops();
  double crypt_total = static_cast<double>(mc.total_wall_ns()) / mc.total_ops();
  std::printf("%-8s %8llu %14.1f %14.1f %9.1f%% %16.1f\n", "all",
              static_cast<unsigned long long>(ms.total_ops()), stock_total, lxfi_total,
              100.0 * (lxfi_total - stock_total) / stock_total, crypt_total);
  std::printf("enforced violations on the benign block workload: %llu (must be 0)\n",
              static_cast<unsigned long long>(ml.violations + mc.violations));

  if (json != nullptr) {
    json->Meta("mode", "block");
    json->Meta("files", static_cast<double>(config.files));
    json->Meta("file_bytes", static_cast<double>(config.file_bytes));
    json->Meta("lxfi_violations", static_cast<double>(ml.violations + mc.violations));
    for (const BlockRow& r : rows) {
      double over = r.stock.NsPerOp() == 0
                        ? 0.0
                        : 100.0 * (r.lxfi.NsPerOp() - r.stock.NsPerOp()) / r.stock.NsPerOp();
      json->AddRow(r.name)
          .Set("ops", static_cast<double>(r.stock.ops))
          .Set("stock_ns_per_op", r.stock.NsPerOp())
          .Set("lxfi_ns_per_op", r.lxfi.NsPerOp())
          .Set("overhead_pct", over)
          .Set("lxfi_dmcrypt_ns_per_op", r.crypt.NsPerOp());
    }
    json->AddRow("all")
        .Set("ops", static_cast<double>(ms.total_ops()))
        .Set("stock_ns_per_op", stock_total)
        .Set("lxfi_ns_per_op", lxfi_total)
        .Set("overhead_pct", 100.0 * (lxfi_total - stock_total) / stock_total)
        .Set("lxfi_dmcrypt_ns_per_op", crypt_total);
  }
  if (stats_path != nullptr) {
    DumpStatsFile(*isolated.runtime(), stats_path, "lxfi_stats_fsperf_block");
  }
  return 0;
}

// Shared-directory contended scaling: every CPU creates/stats/unlinks its
// own names in ONE hot directory, so all walks and all dcache writers hit
// the same parent index. Two configurations per CPU count: enforced and
// stock, both on the lock-free RCU-walk dcache.
int RunContended(int max_cpus, const eval::FsContendedConfig& config, lxfibench::JsonWriter* json,
                 const char* stats_path) {
  std::printf("=== fsperf contended: one shared hot directory, all CPUs ===\n");
  std::printf("(%llu files/cpu x %u stats x %u rounds)\n",
              static_cast<unsigned long long>(config.files), config.stats_per_file,
              config.rounds);
  std::printf("%-5s %16s %16s %12s\n", "cpus", "lxfi rcu ops/s", "stock rcu ops/s",
              "lxfi ns/op");
  if (json != nullptr) {
    json->Meta("mode", "contended");
    json->Meta("files_per_cpu", static_cast<double>(config.files));
    json->Meta("stats_per_file", static_cast<double>(config.stats_per_file));
    json->Meta("rounds", static_cast<double>(config.rounds));
  }
  int rc = 0;
  for (int n = 1; n <= max_cpus; ++n) {
    eval::FsScalingResult rcu;
    eval::FsScalingResult stock;
    uint64_t violations = 0;
    eval::FsContendedConfig warm = config;
    warm.rounds = 1;
    {
      eval::FsperfHarness h(/*isolated=*/true, /*cpus=*/n);
      h.RunContended(warm);
      rcu = h.RunContended(config);
      violations = h.runtime()->violation_count();
      if (n == max_cpus && stats_path != nullptr) {
        DumpStatsFile(*h.runtime(), stats_path, "lxfi_stats_fsperf_contended");
      }
    }
    {
      eval::FsperfHarness h(/*isolated=*/false, /*cpus=*/n);
      h.RunContended(warm);  // same warm-up the enforced rows get
      stock = h.RunContended(config);
    }
    if (violations != 0) {
      std::fprintf(stderr, "FAIL: %d-cpu contended enforced run raised %llu violations\n", n,
                   static_cast<unsigned long long>(violations));
      rc = 1;
    }
    std::printf("%-5d %16.0f %16.0f %12.1f\n", n, rcu.ModelOps(), stock.ModelOps(),
                rcu.PerOpCpuNs());
    if (json != nullptr) {
      json->AddRow("contended_cpus=" + std::to_string(n))
          .Set("cpus", n)
          .Set("lxfi_rcu_model_ops_per_sec", rcu.ModelOps())
          .Set("lxfi_rcu_wall_ops_per_sec", rcu.WallOps())
          .Set("lxfi_rcu_ns_per_op", rcu.PerOpCpuNs())
          .Set("stock_rcu_model_ops_per_sec", stock.ModelOps())
          .Set("violations", static_cast<double>(violations));
    }
  }
  return rc;
}

int RunScaling(int max_cpus, const eval::FsperfConfig& config, lxfibench::JsonWriter* json,
               const char* stats_path) {
  std::printf("=== fsperf SMP scaling: per-CPU working dirs, concurrent enforcement ===\n");
  std::printf("%-5s %16s %16s %16s %14s %10s\n", "cpus", "lxfi model ops/s", "lxfi wall ops/s",
              "stock model ops/s", "lxfi ns/op", "speedup");
  if (json != nullptr) {
    json->Meta("mode", "smp_scaling");
    json->Meta("files_per_cpu", static_cast<double>(config.files));
    json->Meta("file_bytes", static_cast<double>(config.file_bytes));
  }
  double base_model = 0.0;
  int rc = 0;
  for (int n = 1; n <= max_cpus; ++n) {
    eval::FsScalingResult lx;
    eval::FsScalingResult st;
    uint64_t violations = 0;
    {
      eval::FsperfHarness h(/*isolated=*/true, /*cpus=*/n);
      eval::FsperfConfig warm = config;
      warm.files = config.files / 10 + 1;
      h.RunParallel(warm);
      lx = h.RunParallel(config);
      violations = h.runtime()->violation_count();
      if (n == max_cpus && stats_path != nullptr) {
        DumpStatsFile(*h.runtime(), stats_path, "lxfi_stats_fsperf_scaling");
      }
    }
    {
      eval::FsperfHarness h(/*isolated=*/false, /*cpus=*/n);
      st = h.RunParallel(config);
    }
    if (violations != 0) {
      std::fprintf(stderr, "FAIL: %d-cpu enforced run raised %llu violations\n", n,
                   static_cast<unsigned long long>(violations));
      rc = 1;
    }
    if (n == 1) {
      base_model = lx.ModelOps();
    }
    double speedup = base_model > 0 ? lx.ModelOps() / base_model : 0.0;
    std::printf("%-5d %16.0f %16.0f %16.0f %14.1f %9.2fx\n", n, lx.ModelOps(), lx.WallOps(),
                st.ModelOps(), lx.PerOpCpuNs(), speedup);
    if (json != nullptr) {
      json->AddRow("cpus=" + std::to_string(n))
          .Set("cpus", n)
          .Set("lxfi_ops", static_cast<double>(lx.ops))
          .Set("lxfi_wall_ns", static_cast<double>(lx.wall_ns))
          .Set("lxfi_cpu_ns", static_cast<double>(lx.cpu_ns_total))
          .Set("lxfi_model_ops_per_sec", lx.ModelOps())
          .Set("lxfi_wall_ops_per_sec", lx.WallOps())
          .Set("lxfi_ns_per_op", lx.PerOpCpuNs())
          .Set("stock_model_ops_per_sec", st.ModelOps())
          .Set("speedup_vs_1cpu", speedup)
          .Set("violations", static_cast<double>(violations));
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  lxfi::SetLogLevel(lxfi::LogLevel::kError);

  int cpus = 0;
  bool contended = false;
  bool block = false;
  eval::FsperfConfig config;
  eval::FsContendedConfig ccfg;
  const char* json_path = nullptr;
  const char* stats_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cpus") == 0 && i + 1 < argc) {
      cpus = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--contended") == 0) {
      contended = true;
    } else if (std::strcmp(argv[i], "--backing") == 0 ||
               std::strncmp(argv[i], "--backing=", 10) == 0) {
      const char* b;
      if (argv[i][9] == '=') {
        b = argv[i] + 10;
      } else if (i + 1 < argc) {
        b = argv[++i];
      } else {
        std::fprintf(stderr, "--backing needs a value (ram|block)\n");
        return 2;
      }
      if (std::strcmp(b, "block") == 0) {
        block = true;
      } else if (std::strcmp(b, "ram") != 0) {
        std::fprintf(stderr, "--backing must be ram or block\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--files") == 0 && i + 1 < argc) {
      config.files = static_cast<uint64_t>(std::atoll(argv[++i]));
      ccfg.files = config.files;
    } else if (std::strcmp(argv[i], "--stats-per-file") == 0 && i + 1 < argc) {
      ccfg.stats_per_file = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      ccfg.rounds = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--bytes") == 0 && i + 1 < argc) {
      config.file_bytes = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      config.io_chunk = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stats") == 0 && i + 1 < argc) {
      stats_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--cpus N] [--contended] [--backing ram|block] [--files F] "
                   "[--stats-per-file S] [--rounds R] [--bytes B] [--chunk C] [--json FILE] "
                   "[--stats FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (contended && cpus <= 0) {
    std::fprintf(stderr, "--contended requires --cpus N\n");
    return 2;
  }
  if (block && (contended || cpus > 0)) {
    std::fprintf(stderr, "--backing=block is single-threaded (jexfs is one principal per sb)\n");
    return 2;
  }

  lxfibench::JsonWriter json(block       ? "bench_fsperf_block"
                             : contended ? "bench_fsperf_contended"
                                         : "bench_fsperf");
  lxfibench::JsonWriter* jp = json_path != nullptr ? &json : nullptr;
  if (stats_path != nullptr) {
    // Collection must be live before any harness runs so crossings count.
    lxfi::LxfiStats::SetEnabled(true);
  }
  int rc = block       ? RunBlock(config, jp, stats_path)
           : contended ? RunContended(cpus, ccfg, jp, stats_path)
           : cpus > 0  ? RunScaling(cpus, config, jp, stats_path)
                       : RunOverhead(config, jp, stats_path);
  if (json_path != nullptr && rc == 0) {
    json.WriteFile(json_path);
  }
  return rc;
}
