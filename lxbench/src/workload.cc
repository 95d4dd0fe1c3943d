#include "lxbench/src/workload.h"

#include "src/base/sync.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/runtime.h"

namespace lxbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fs_ramfs_mix", "fs_jexfs_journal",
                                                 "net_e1000_rr", "tenants_churn"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool stock) {
  if (name == "fs_ramfs_mix") {
    return MakeFsRamfsMix(seed, stock);
  }
  if (name == "fs_jexfs_journal") {
    return MakeFsJexfsJournal(seed, stock);
  }
  if (name == "net_e1000_rr") {
    return MakeNetE1000Rr(seed, stock);
  }
  if (name == "tenants_churn") {
    return MakeTenantsChurn(seed, stock);
  }
  return nullptr;
}

void Workload::MarkSlabBaseline(kern::Kernel* kernel) {
  lxfi::EpochReclaimer::Global().Synchronize();
  slab_baseline_ = kernel->slab().live_objects();
}

void Workload::CheckEnd(kern::Kernel* kernel, lxfi::Runtime* rt, uint64_t retained,
                        std::vector<std::string>* problems) const {
  // Inodes and dentries are freed after an epoch grace period.
  lxfi::EpochReclaimer::Global().Synchronize();
  const uint64_t expect = slab_baseline_ + retained + counts_.slab_known_leaks;
  const uint64_t live = kernel->slab().live_objects();
  if (live != expect) {
    problems->push_back("slab live objects " + std::to_string(live) + " != " +
                        std::to_string(expect) + " (baseline " + std::to_string(slab_baseline_) +
                        ", retained " + std::to_string(retained) + ", known leaks " +
                        std::to_string(counts_.slab_known_leaks) + ")");
  }
  if (rt != nullptr && rt->violation_count() != counts_.rogue_trips) {
    problems->push_back("violations " + std::to_string(rt->violation_count()) +
                        " != injected rogue trips " + std::to_string(counts_.rogue_trips));
  }
}

}  // namespace lxbench
