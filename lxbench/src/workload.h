// The benchmark's workloads. Each one owns the system it drives — built
// from the public src/eval harnesses or, where they hide what the workload
// needs, from the same public kernel calls — and a seeded generator: the
// system receives only the generated paths, sizes, payloads and op order.
//
// Every workload runs from one thread as a closed loop with one client:
// RunOp(i) issues op i synchronously and checks its outputs before op i+1
// is generated.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace kern {
class Kernel;
class Vfs;
class NicHw;
class NetStack;
struct NetDevice;
struct BlockDevice;
}  // namespace kern

namespace lxfi {
class Runtime;
class Containment;
}  // namespace lxfi

namespace lxbench {

// The objects per-layer counters are read from; null where a workload has
// no such layer.
struct LayerHandles {
  kern::Kernel* kernel = nullptr;
  lxfi::Runtime* rt = nullptr;  // null on a stock kernel
  kern::Vfs* vfs = nullptr;
  lxfi::Containment* containment = nullptr;
  kern::NicHw* nic = nullptr;
  kern::NetStack* stack = nullptr;
  kern::NetDevice* netdev = nullptr;
  kern::BlockDevice* disk = nullptr;  // the RAM disk under the filesystem
};

// Counts the workload keeps about what it issued.
struct WorkloadCounts {
  uint64_t user_bytes_written = 0;  // payload bytes passed to Vfs::Write
  uint64_t trace_records = 0;       // lxfi-trace records drained
  uint64_t rogue_trips = 0;         // injected violations caught
  uint64_t rogue_failfast = 0;      // -EIO answers on a tripped tenant's mount
  // Slab objects side events leave live by a known leak (tenants_churn:
  // one per filter unload whose private state lies on the shared heap).
  // Each event's measured residue must equal its known leak; the ops
  // themselves must leave none.
  uint64_t slab_known_leaks = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Workload {
 public:
  static constexpr uint64_t kNoEvent = std::numeric_limits<uint64_t>::max();

  virtual ~Workload() = default;

  // Builds the system and brings it to its steady state: kernel and (unless
  // stock) Runtime, kernel API install, modules, mounts, prepopulated files,
  // warm-up. This is what setup_s times.
  virtual void Setup() = 0;

  // Issues op i of the seeded sequence (ops run in order from 0) and checks
  // its outputs. Returns false on a wrong output or unexpected errno.
  virtual bool RunOp(uint64_t i) = 0;

  // The first op index >= i before which side events run, or kNoEvent.
  virtual uint64_t NextEvent(uint64_t i) const { return kNoEvent; }
  // Runs the side events due before op i; false when a check failed.
  virtual bool RunEvents(uint64_t i) { return true; }

  // Checks that hold once the run is over; appends one line per failure.
  virtual void FinalChecks(std::vector<std::string>* problems) = 0;

  virtual LayerHandles handles() const = 0;

  // Ops the traced run takes its program counts over: a fixed prefix of
  // the sequence, so the counts repeat exactly for a seed.
  virtual uint64_t CountWindowOps() const = 0;

  // Ops after which the untraced run reads peak_rss_mb. Module churn grows
  // the system's memory per event, so reading it at a fixed op count keeps a
  // faster system from showing more memory for more events in the same time.
  // Small enough to be reached within a run on a slow host.
  virtual uint64_t MemoryCheckpointOps() const = 0;

  // Workload-specific end-to-end figures (tenants_churn: recovery time).
  virtual void ExtraMetrics(std::vector<Metric>* out) const {}

  const WorkloadCounts& counts() const { return counts_; }

 protected:
  // Records the live slab objects the run must come back to (end of Setup).
  void MarkSlabBaseline(kern::Kernel* kernel);
  // The end-of-run checks every workload shares: after an epoch grace
  // period the slab holds exactly baseline + `retained` (objects the system
  // keeps by design, e.g. cached pages) + the known leaks, and the
  // runtime saw no violation but the injected rogue trips.
  void CheckEnd(kern::Kernel* kernel, lxfi::Runtime* rt, uint64_t retained,
                std::vector<std::string>* problems) const;

  WorkloadCounts counts_;

 private:
  uint64_t slab_baseline_ = 0;
};

const std::vector<std::string>& WorkloadNames();

// Null for an unknown name. `stock` builds the same system without an LXFI
// runtime (the traced run's replay baseline).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool stock);

std::unique_ptr<Workload> MakeFsRamfsMix(uint64_t seed, bool stock);
std::unique_ptr<Workload> MakeFsJexfsJournal(uint64_t seed, bool stock);
std::unique_ptr<Workload> MakeNetE1000Rr(uint64_t seed, bool stock);
std::unique_ptr<Workload> MakeTenantsChurn(uint64_t seed, bool stock);

}  // namespace lxbench
