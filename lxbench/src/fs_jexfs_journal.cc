// fs_jexfs_journal: jexfs over enforced dm-crypt over a RAM disk. Sixteen
// file slots (at most 16 live files; the inode table holds 32) each cycle
// through create, multi-chunk write, fsync, read-back with verification,
// rename, stat and unlink; every op advances one seeded slot by one step.
// The page cache holds the whole 1024-block disk (there is no eviction).
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lxbench/src/measure.h"
#include "lxbench/src/spans.h"
#include "lxbench/src/workload.h"
#include "src/eval/fsperf.h"
#include "src/kernel/block/block.h"
#include "src/kernel/fs/pagecache.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/runtime.h"
#include "src/modules/jexfs/jexfs.h"

namespace lxbench {
namespace {

constexpr int kSlots = 16;
constexpr uint32_t kChunk = 512;
// At most kJexExtentsPerInode (6) blocks, so even a file whose every block
// lands in a separate free-space hole fits its inode's extent slots.
constexpr uint32_t kMaxChunks = 6;
constexpr uint32_t kMaxBytes = kMaxChunks * kChunk;
constexpr int kPatterns = 8;
constexpr uintptr_t kReadBuf = 0x1000;
constexpr uintptr_t kPatternBase = 0x10000;

enum Step { kCreate = 0, kWrite, kFsync, kReadBack, kRename, kStat, kUnlink, kSteps };

struct Slot {
  int step = kCreate;
  uint32_t bytes = 0;
  int pattern = 0;
  char path[48] = {};     // name in /mnt/d0 until the rename step
  char renamed[48] = {};  // name in /mnt/shared after it
};

class FsJexfsJournal : public Workload {
 public:
  FsJexfsJournal(uint64_t seed, bool stock) : seed_(seed), stock_(stock), ops_(seed, 1) {}

  void Setup() override {
    eval::FsperfHarnessOptions opts;
    opts.isolated = !stock_;
    opts.block_backing = true;
    opts.dm_crypt = true;
    harness_ = std::make_unique<eval::FsperfHarness>(opts);
    kern::Kernel* k = harness_->kernel();
    vfs_ = harness_->vfs();
    for (int p = 0; p < kPatterns; ++p) {
      FillPattern(seed_, 100 + p, patterns_[p], kMaxBytes);
      std::memcpy(k->user().UserPtr(PatternAddr(p)), patterns_[p], kMaxBytes);
    }
    // The RAM disk under the dm-crypt device jexfs was mounted on.
    kern::Module* fs = k->FindModule("jexfs");
    kern::BlockLayer* block = kern::GetBlockLayer(k);
    kern::BlockDevice* top = fs == nullptr ? nullptr : block->FindDevice(mods::GetJexfs(*fs)->device);
    kern::DmTarget* target = top == nullptr ? nullptr : block->TargetOf(top);
    if (target == nullptr || target->underlying == nullptr) {
      throw std::runtime_error("fs_jexfs_journal setup: no dm-crypt stack under jexfs");
    }
    disk_ = target->underlying;
    // Warm-up: the two working directories are in the dcache.
    kern::VfsStat st;
    if (vfs_->Stat("/mnt/d0", &st) != 0 || vfs_->Stat("/mnt/shared", &st) != 0) {
      throw std::runtime_error("fs_jexfs_journal setup: working directories missing");
    }
    pages_cached_ = k->GetSubsystem<kern::PageCache>()->misses();
    MarkSlabBaseline(k);
  }

  bool RunOp(uint64_t i) override {
    int s = static_cast<int>(ops_.Below(kSlots));
    Slot& slot = slots_[s];
    bool ok = false;
    switch (slot.step) {
      case kCreate: {
        slot.bytes = static_cast<uint32_t>(1 + ops_.Below(kMaxChunks)) * kChunk;
        slot.pattern = static_cast<int>(ops_.Below(kPatterns));
        std::snprintf(slot.path, sizeof(slot.path), "/mnt/d0/s%dn%llu", s,
                      static_cast<unsigned long long>(i));
        std::snprintf(slot.renamed, sizeof(slot.renamed), "/mnt/shared/s%dn%llu", s,
                      static_cast<unsigned long long>(i));
        kern::File* f = Traced(kVfsOpen, [&] { return vfs_->Open(slot.path, kern::kOCreate); });
        ok = f != nullptr && Traced(kVfsClose, [&] { return vfs_->Close(f); }) == 0;
        break;
      }
      case kWrite: {
        kern::File* f = Traced(kVfsOpen, [&] { return vfs_->Open(slot.path, 0); });
        if (f == nullptr) {
          return false;
        }
        ok = true;
        for (uint32_t off = 0; off < slot.bytes && ok; off += kChunk) {
          uintptr_t src = PatternAddr(slot.pattern) + off;
          ok = Traced(kVfsWrite, [&] { return vfs_->Write(f, src, kChunk); }) == kChunk;
        }
        ok = Traced(kVfsClose, [&] { return vfs_->Close(f); }) == 0 && ok;
        counts_.user_bytes_written += slot.bytes;
        break;
      }
      case kFsync: {
        kern::File* f = Traced(kVfsOpen, [&] { return vfs_->Open(slot.path, 0); });
        if (f == nullptr) {
          return false;
        }
        ok = Traced(kVfsFsync, [&] { return vfs_->Fsync(f); }) == 0;
        ok = Traced(kVfsClose, [&] { return vfs_->Close(f); }) == 0 && ok;
        break;
      }
      case kReadBack: {
        kern::File* f = Traced(kVfsOpen, [&] { return vfs_->Open(slot.path, 0); });
        if (f == nullptr) {
          return false;
        }
        const uint8_t* got = harness_->kernel()->user().UserPtr(kReadBuf);
        uint32_t off = 0;
        int64_t n = 0;
        ok = true;
        while (ok && (n = Traced(kVfsRead, [&] { return vfs_->Read(f, kReadBuf, kChunk); })) > 0) {
          ok = off + n <= slot.bytes && std::memcmp(got, patterns_[slot.pattern] + off, n) == 0;
          off += static_cast<uint32_t>(n);
        }
        ok = Traced(kVfsClose, [&] { return vfs_->Close(f); }) == 0 && ok && n == 0 &&
             off == slot.bytes;
        break;
      }
      case kRename:
        ok = Traced(kVfsRename, [&] { return vfs_->Rename(slot.path, slot.renamed); }) == 0;
        break;
      case kStat: {
        kern::VfsStat st;
        ok = Traced(kVfsStat, [&] { return vfs_->Stat(slot.renamed, &st); }) == 0 &&
             st.size == slot.bytes;
        break;
      }
      case kUnlink:
        ok = Traced(kVfsUnlink, [&] { return vfs_->Unlink(slot.renamed); }) == 0;
        break;
    }
    slot.step = (slot.step + 1) % kSteps;
    return ok;
  }

  void FinalChecks(std::vector<std::string>* problems) override {
    // Finish every slot's cycle so the file set is back to empty.
    for (Slot& slot : slots_) {
      if (slot.step == kCreate) {
        continue;
      }
      const char* name = slot.step <= kRename ? slot.path : slot.renamed;
      if (vfs_->Unlink(name) != 0) {
        problems->push_back(std::string("cleanup unlink failed: ") + name);
      }
      slot.step = kCreate;
    }
    if (vfs_->open_files() != 0) {
      problems->push_back("open files left behind");
    }
    // Every page-cache fill keeps one CachedPage: the cache never evicts.
    kern::Kernel* k = harness_->kernel();
    const uint64_t filled = k->GetSubsystem<kern::PageCache>()->misses() - pages_cached_;
    CheckEnd(k, harness_->runtime(), filled, problems);
  }

  LayerHandles handles() const override {
    LayerHandles h;
    h.kernel = harness_->kernel();
    h.rt = harness_->runtime();
    h.vfs = vfs_;
    h.disk = disk_;
    return h;
  }

  uint64_t CountWindowOps() const override { return 3000; }
  uint64_t MemoryCheckpointOps() const override { return 150'000; }

 private:
  static uintptr_t PatternAddr(int p) { return kPatternBase + static_cast<uintptr_t>(p) * kMaxBytes; }

  uint64_t seed_;
  bool stock_;
  Rng ops_;
  std::unique_ptr<eval::FsperfHarness> harness_;
  kern::Vfs* vfs_ = nullptr;
  kern::BlockDevice* disk_ = nullptr;
  uint8_t patterns_[kPatterns][kMaxBytes];
  Slot slots_[kSlots];
  uint64_t pages_cached_ = 0;  // page-cache fills at the slab baseline
};

}  // namespace

std::unique_ptr<Workload> MakeFsJexfsJournal(uint64_t seed, bool stock) {
  return std::make_unique<FsJexfsJournal>(seed, stock);
}

}  // namespace lxbench
