// tenants: a multi-tenant churn harness for violation containment.
//
// One kernel hosts N tenant principals: every tenant gets its own ramfs
// mount (/t<i>) and its own mount-scoped VFS filter module (flt<i>, scope
// "t<i>"), so the filter chain, the partitioned heaps and the per-principal
// capability tables all see hundreds of mutually-distrustful principals at
// once. RunChurn drives a metadata workload over every healthy tenant —
// optionally from several simulated CPUs at once —
// while the main (loader) thread injects a rogue filter probe into one
// tenant, rides the violation through ViolationPolicy::kQuarantine, drains
// the microreboot, and storms module load/unload cycles on the side.
//
// The headline the bench and tests assert: healthy tenants complete with
// zero violations and zero errors while the rogue tenant's module is
// quarantined and rebooted under load.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/modules/fsfilter/fsfilter.h"

namespace kern {
class Kernel;
class Module;
class Vfs;
}  // namespace kern

namespace lxfi {
class Containment;
class Runtime;
}  // namespace lxfi

namespace eval {

struct TenantsConfig {
  int tenants = 32;        // tenant count: one mount + one scoped filter each
  int cpus = 0;            // SMP worker CPUs (0 = drive everything inline)
  uint64_t files = 6;      // files per tenant per churn round
  uint32_t file_bytes = 256;
  uint32_t rounds = 2;     // create/write/stat/unlink cycles per tenant
  int rogue = -1;          // tenant whose filter is armed rogue (-1 = none)
  int storm_loads = 0;     // filter-module load/unload cycles during the run
};

struct TenantsResult {
  uint64_t healthy_ops = 0;
  uint64_t healthy_errors = 0;      // healthy-tenant op failures (must be 0)
  uint64_t healthy_violations = 0;  // violations raised by healthy workers (must be 0)
  uint64_t max_op_ns = 0;           // worst single healthy-tenant op latency
  uint64_t rogue_failfast = 0;      // -EIO fail-fast results on the rogue mount
  uint64_t rogue_recovered_ops = 0; // rogue-mount ops served after the microreboot
  uint64_t violations = 0;          // total violations (the rogue's quarantine)
  uint64_t quarantines = 0;
  uint64_t reboots = 0;
  uint64_t retired = 0;
  uint64_t arena_fallbacks = 0;     // shared-heap fallbacks (slot-exhausted tenants)
  uint64_t wall_ns = 0;

  double HealthyOpsPerSec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(healthy_ops) * 1e9 / static_cast<double>(wall_ns);
  }
};

class TenantsHarness {
 public:
  explicit TenantsHarness(const TenantsConfig& config);
  ~TenantsHarness();

  TenantsHarness(const TenantsHarness&) = delete;
  TenantsHarness& operator=(const TenantsHarness&) = delete;

  // The churn run described above. When config.rogue >= 0 the rogue filter
  // is armed with the cross-principal scribble probe, triggered from the
  // main thread, disarmed after its quarantine, and microrebooted — all
  // while the worker CPUs (config.cpus > 0) keep the healthy tenants under
  // load. Callable once per harness (the rogue module ends in probation).
  TenantsResult RunChurn();

  lxfi::Runtime* runtime() const;
  lxfi::Containment* containment() const;
  kern::Kernel* kernel() const;
  kern::Vfs* vfs() const;

  // The tenant's filter module as currently loaded (re-resolved by name, so
  // it stays correct across a microreboot). Null after retirement.
  kern::Module* FilterModule(int tenant) const;
  std::shared_ptr<mods::FsFilterState> FilterState(int tenant) const;
  const std::string& FilterName(int tenant) const;
  const std::string& MountPath(int tenant) const;

  // Arms tenant's filter with the cross-principal scribble probe aimed at
  // its neighbour filter's private state; Disarm returns it to benign.
  void ArmRogue(int tenant);
  void DisarmRogue(int tenant);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace eval
