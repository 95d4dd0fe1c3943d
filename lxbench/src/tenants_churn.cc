// tenants_churn: 128 tenants, each with its own ramfs mount and a
// mount-scoped fsfilter module, on TenantsHarness with cpus = 0
// (ViolationPolicy::kQuarantine, partitioned heaps). lxfi-trace is on and
// drained every kDrainEvery ops. Ops round-robin over the tenants, each
// tenant cycling create+write, stat, unlink with seeded sizes. Side events:
// a filter load/unload cycle on a scratch mount every kCycleEvery ops, and
// every kRogueEvery ops a rogue armed in a different tenant each time,
// tripped, disarmed and microrebooted.
//
// The stock replay builds the same tenants by hand (TenantsHarness always
// attaches a runtime) and skips the rogue events, which need containment.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lxbench/src/measure.h"
#include "lxbench/src/spans.h"
#include "lxbench/src/workload.h"
#include "src/base/sync.h"
#include "src/base/trace.h"
#include "src/eval/tenants.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/containment.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/lxfi/violation.h"
#include "src/modules/fsfilter/fsfilter.h"
#include "src/modules/ramfs/ramfs.h"

namespace lxbench {
namespace {

constexpr int kTenants = 128;
constexpr uint64_t kDrainEvery = 32;
constexpr uint64_t kCycleEvery = 2048;
constexpr uint64_t kFirstRogue = 6000;
constexpr uint64_t kRogueEvery = 40000;
// Each tenant is armed at most once, so the rogue cycles end after one per
// tenant (5.1 M ops, far beyond a run on the development host).
constexpr uint64_t kLastRogue = kFirstRogue + (kTenants - 1) * kRogueEvery;
constexpr uint32_t kMaxBytes = 1024;
constexpr uintptr_t kPatternBase = 0x10000;

enum Step { kCreateWrite = 0, kStat, kUnlink, kSteps };

// The harness's tenant naming ("/t7", "t7", "flt7").
std::string Numbered(const char* prefix, int t) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%d", prefix, t);
  return name;
}

// Next index >= i of the sequence first, first + every, first + 2 * every...
uint64_t NextOf(uint64_t i, uint64_t first, uint64_t every) {
  if (i <= first) {
    return first;
  }
  return first + (i - first + every - 1) / every * every;
}

class TenantsChurn : public Workload {
 public:
  TenantsChurn(uint64_t seed, bool stock)
      : seed_(seed), stock_(stock), ops_(seed, 1), rogues_(seed, 3), rogue_used_(kTenants, false) {}

  ~TenantsChurn() override {
    lxfi::TraceBuffer::SetEnabled(false);
    lxfi::TraceBuffer::Global().Drain(&drained_);
  }

  void Setup() override {
    if (stock_) {
      SetupStock();
    } else {
      eval::TenantsConfig cfg;
      cfg.tenants = kTenants;
      cfg.cpus = 0;
      harness_ = std::make_unique<eval::TenantsHarness>(cfg);
      kernel_ = harness_->kernel();
      vfs_ = harness_->vfs();
      for (int t = 0; t < kTenants; ++t) {
        mounts_.push_back(harness_->MountPath(t));
      }
    }
    FillPattern(seed_, 100, pattern_, kMaxBytes);
    std::memcpy(kernel_->user().UserPtr(kPatternBase), pattern_, kMaxBytes);
    for (const std::string& mount : mounts_) {
      kern::VfsStat st;
      if (vfs_->Stat(mount.c_str(), &st) != 0) {
        throw std::runtime_error("tenants_churn setup: tenant mount not serving");
      }
    }
    sizes_.assign(kTenants, 0);
    live_.assign(kTenants, std::string());
    lxfi::TraceBuffer::Global().Drain(&drained_);
    drained_.clear();
    lxfi::TraceBuffer::SetEnabled(true);
    MarkSlabBaseline(kernel_);
  }

  bool RunOp(uint64_t i) override {
    int t = static_cast<int>(i % kTenants);
    uint64_t round = i / kTenants;
    char path[48];
    std::snprintf(path, sizeof(path), "%s/f%llu", mounts_[t].c_str(),
                  static_cast<unsigned long long>(round / kSteps));
    switch (round % kSteps) {
      case kCreateWrite: {
        uint32_t bytes = static_cast<uint32_t>(1 + ops_.Below(kMaxBytes / 64)) * 64;
        sizes_[t] = bytes;
        kern::File* f = Traced(kVfsOpen, [&] { return vfs_->Open(path, kern::kOCreate); });
        if (f == nullptr) {
          return false;
        }
        live_[t] = path;
        bool ok = Traced(kVfsWrite, [&] { return vfs_->Write(f, kPatternBase, bytes); }) == bytes;
        counts_.user_bytes_written += bytes;
        return Traced(kVfsClose, [&] { return vfs_->Close(f); }) == 0 && ok;
      }
      case kStat: {
        kern::VfsStat st;
        return Traced(kVfsStat, [&] { return vfs_->Stat(path, &st); }) == 0 &&
               st.size == sizes_[t];
      }
      default:
        sizes_[t] = 0;
        live_[t].clear();
        return Traced(kVfsUnlink, [&] { return vfs_->Unlink(path); }) == 0;
    }
  }

  uint64_t NextEvent(uint64_t i) const override {
    uint64_t next = std::min(NextOf(i, kDrainEvery, kDrainEvery),
                             NextOf(i, kCycleEvery / 2, kCycleEvery));
    if (!stock_ && i <= kLastRogue) {
      next = std::min(next, NextOf(i, kFirstRogue, kRogueEvery));
    }
    return next;
  }

  bool RunEvents(uint64_t i) override {
    const bool cycle = i >= kCycleEvery / 2 && (i - kCycleEvery / 2) % kCycleEvery == 0;
    const bool rogue =
        !stock_ && i >= kFirstRogue && i <= kLastRogue && (i - kFirstRogue) % kRogueEvery == 0;
    bool ok = true;
    if (cycle || rogue) {
      // Known leak: fsfilter's exit never frees its kmalloc'd private state,
      // and the bulk teardown reclaims it only when it lies in a partition.
      // The 16 partition slots run out long before 128 tenants, so a filter
      // unload whose state fell back to the shared heap leaves exactly that
      // one object live. Any other residue is a leak on the module or
      // containment path and fails the event.
      lxfi::EpochReclaimer::Global().Synchronize();
      const size_t live = kernel_->slab().live_objects();
      uint64_t known = 0;
      if (cycle) {
        ok = FilterCycle(&known) && ok;
      }
      if (rogue) {
        ok = RogueCycle(&known) && ok;
      }
      lxfi::EpochReclaimer::Global().Synchronize();
      const int64_t residue = static_cast<int64_t>(kernel_->slab().live_objects() - live);
      if (residue != static_cast<int64_t>(known)) {
        std::fprintf(stderr, "lxbench: side event before op %llu left %lld slab objects, %llu known\n",
                     static_cast<unsigned long long>(i), static_cast<long long>(residue),
                     static_cast<unsigned long long>(known));
        ok = false;
      }
      counts_.slab_known_leaks += known;
    }
    if (i >= kDrainEvery && i % kDrainEvery == 0) {
      Span span(kTraceDrain);
      counts_.trace_records += lxfi::TraceBuffer::Global().Drain(&drained_);
      drained_.clear();
    }
    return ok;
  }

  void FinalChecks(std::vector<std::string>* problems) override {
    // Finish every tenant's cycle so the file set is back to empty.
    for (std::string& path : live_) {
      if (!path.empty() && vfs_->Unlink(path.c_str()) != 0) {
        problems->push_back("cleanup unlink failed: " + path);
      }
      path.clear();
    }
    if (vfs_->open_files() != 0) {
      problems->push_back("open files left behind");
    }
    CheckEnd(kernel_, harness_ != nullptr ? harness_->runtime() : nullptr, 0, problems);
    if (harness_ != nullptr) {
      lxfi::Containment* c = harness_->containment();
      if (c->quarantines() != counts_.rogue_trips || c->reboots() != counts_.rogue_trips ||
          c->retired() != 0) {
        problems->push_back("containment: " + std::to_string(c->quarantines()) +
                            " quarantines, " + std::to_string(c->reboots()) + " reboots, " +
                            std::to_string(c->retired()) + " retired for " +
                            std::to_string(counts_.rogue_trips) + " rogue trips");
      }
    }
  }

  LayerHandles handles() const override {
    LayerHandles h;
    h.kernel = kernel_;
    h.vfs = vfs_;
    if (harness_ != nullptr) {
      h.rt = harness_->runtime();
      h.containment = harness_->containment();
    }
    return h;
  }

  uint64_t CountWindowOps() const override { return 12000; }
  uint64_t MemoryCheckpointOps() const override { return 250'000; }

  void ExtraMetrics(std::vector<Metric>* out) const override {
    if (!recovery_ms_.empty()) {
      out->push_back({"recovery_p50_ms", Median(recovery_ms_), "ms"});
    }
  }

 private:
  void SetupStock() {
    stock_kernel_ = std::make_unique<kern::Kernel>(256ull << 20);
    kernel_ = stock_kernel_.get();
    lxfi::InstallKernelApi(kernel_, nullptr);
    vfs_ = kern::GetVfs(kernel_);
    if (kernel_->LoadModule(mods::RamfsModuleDef()) == nullptr) {
      throw std::runtime_error("tenants_churn setup: ramfs failed to load");
    }
    for (int t = 0; t < kTenants; ++t) {
      mounts_.push_back(Numbered("/t", t));
      if (vfs_->Mount("ramfs", mounts_.back().c_str()) == nullptr) {
        throw std::runtime_error("tenants_churn setup: tenant mount failed");
      }
    }
    for (int t = 0; t < kTenants; ++t) {
      scopes_.push_back(Numbered("t", t));
      filter_names_.push_back(Numbered("flt", t));
      mods::FsFilterConfig fc;
      fc.module_name = filter_names_.back();
      fc.filter_name = filter_names_.back().c_str();
      fc.priority = t;
      fc.scope = scopes_.back().c_str();
      if (kernel_->LoadModule(mods::FsFilterModuleDef(fc)) == nullptr) {
        throw std::runtime_error("tenants_churn setup: tenant filter failed to load");
      }
    }
  }

  // 1 when the filter's private state lies on the shared heap, where its
  // unload leaves it (the known fsfilter leak), 0 inside a partition.
  uint64_t KnownLeak(const mods::FsFilterState& filter) const {
    return kernel_->slab().PartitionOf(filter.priv) == kern::SlabAllocator::kNoPartition ? 1 : 0;
  }

  // A tenant arrives and leaves: scratch mount, scoped filter, one stat
  // through it, filter unload, unmount. Adds the unload's known leak to
  // *known.
  bool FilterCycle(uint64_t* known) {
    if (Traced(kVfsMount, [&] { return vfs_->Mount("ramfs", "/cyc"); }) == nullptr) {
      return false;
    }
    mods::FsFilterConfig fc;
    fc.module_name = "cycflt";
    fc.filter_name = "cycflt";
    fc.priority = 1 << 20;
    fc.scope = "cyc";
    kern::Module* m =
        Traced(kModuleLoad, [&] { return kernel_->LoadModule(mods::FsFilterModuleDef(fc)); });
    bool ok = m != nullptr;
    if (ok) {
      kern::VfsStat st;
      auto filter = mods::GetFsFilter(*m);
      ok = Traced(kVfsStat, [&] { return vfs_->Stat("/cyc", &st); }) == 0 &&
           filter->pre_count(kern::VfsOp::kStat) == 1;
      *known += KnownLeak(*filter);
      Span span(kModuleUnload);
      kernel_->UnloadModule(m);
    }
    return Traced(kVfsUnmount, [&] { return vfs_->Unmount("/cyc"); }) == 0 && ok;
  }

  // Arms a rogue filter in a tenant not armed before, trips it with a stat
  // on its mount, disarms it, drains the microreboot and waits for the
  // tenant's mount to serve a stat through the rebooted filter. The reboot
  // unloads the tenant's filter: adds that unload's known leak to *known.
  bool RogueCycle(uint64_t* known) {
    int t = static_cast<int>(rogues_.Below(kTenants));
    while (rogue_used_[t]) {
      t = (t + 1) % kTenants;
    }
    rogue_used_[t] = true;
    const char* mount = mounts_[t].c_str();
    if (auto filter = harness_->FilterState(t)) {
      *known += KnownLeak(*filter);
    }
    lxfi::Containment* c = harness_->containment();
    const uint64_t quarantines = c->quarantines();
    const uint64_t reboots = c->reboots();
    const uint64_t retired = c->retired();
    const uint64_t violations = harness_->runtime()->violation_count();

    harness_->ArmRogue(t);
    bool tripped = false;
    {
      Span span(kContainmentTrip);
      try {
        kern::VfsStat st;
        vfs_->Stat(mount, &st);
      } catch (const lxfi::LxfiViolation&) {
        tripped = true;
      }
    }
    const uint64_t tripped_at = NowNs();
    harness_->DisarmRogue(t);
    if (!tripped) {
      return false;
    }
    ++counts_.rogue_trips;
    // Traffic to the tripped tenant between quarantine and reboot.
    kern::VfsStat st;
    int rc = Traced(kVfsStat, [&] { return vfs_->Stat(mount, &st); });
    if (rc == -kern::kEio) {
      ++counts_.rogue_failfast;
    } else if (rc != 0) {
      return false;
    }
    {
      Span span(kContainmentReboot);
      for (int spins = 0; c->HasPendingReboots() && spins < 100; ++spins) {
        c->DrainPendingReboots();
      }
    }
    auto filter = harness_->FilterState(t);
    if (filter == nullptr) {
      return false;
    }
    uint64_t pre = filter->pre_count(kern::VfsOp::kStat);
    rc = Traced(kVfsStat, [&] { return vfs_->Stat(mount, &st); });
    recovery_ms_.push_back(static_cast<double>(NowNs() - tripped_at) / 1e6);
    return rc == 0 && filter->pre_count(kern::VfsOp::kStat) == pre + 1 &&
           c->quarantines() == quarantines + 1 && c->reboots() == reboots + 1 &&
           c->retired() == retired && harness_->runtime()->violation_count() == violations + 1;
  }

  uint64_t seed_;
  bool stock_;
  Rng ops_;
  Rng rogues_;
  std::vector<bool> rogue_used_;
  std::unique_ptr<eval::TenantsHarness> harness_;
  std::unique_ptr<kern::Kernel> stock_kernel_;
  kern::Kernel* kernel_ = nullptr;
  kern::Vfs* vfs_ = nullptr;
  std::vector<std::string> mounts_;
  // Stable storage for the stock filters' scope and name strings, which the
  // modules keep as const char*.
  std::deque<std::string> scopes_;
  std::deque<std::string> filter_names_;
  uint8_t pattern_[kMaxBytes];
  std::vector<uint32_t> sizes_;    // bytes of each tenant's live file
  std::vector<std::string> live_;  // each tenant's live file ("" if none)
  std::vector<lxfi::TraceRecord> drained_;
  std::vector<double> recovery_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantsChurn(uint64_t seed, bool stock) {
  return std::make_unique<TenantsChurn>(seed, stock);
}

}  // namespace lxbench
