// fs_ramfs_mix: read-mostly VFS traffic over one ramfs mount with default
// RuntimeOptions. 16 directories x 256 prepopulated 2 KiB files; the
// seeded mix is ~60% stat, 25% 512 B chunk reads, 10% whole-file
// overwrites and 5% create+unlink pairs (so the file count stays constant).
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
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/runtime.h"

namespace lxbench {
namespace {

constexpr int kDirs = 16;
constexpr int kFilesPerDir = 256;
constexpr int kFiles = kDirs * kFilesPerDir;
constexpr uint32_t kFileBytes = 2048;
constexpr uint32_t kChunk = 512;
constexpr int kPatterns = 8;
// User-space staging: the read buffer, then one 2 KiB source per pattern.
constexpr uintptr_t kReadBuf = 0x1000;
constexpr uintptr_t kPatternBase = 0x10000;

class FsRamfsMix : public Workload {
 public:
  FsRamfsMix(uint64_t seed, bool stock) : seed_(seed), stock_(stock), ops_(seed, 1) {}

  void Setup() override {
    harness_ = std::make_unique<eval::FsperfHarness>(/*isolated=*/!stock_);
    kern::Kernel* k = harness_->kernel();
    vfs_ = harness_->vfs();
    for (int p = 0; p < kPatterns; ++p) {
      FillPattern(seed_, 100 + p, patterns_[p], kFileBytes);
      std::memcpy(k->user().UserPtr(PatternAddr(p)), patterns_[p], kFileBytes);
    }
    Rng init(seed_, 2);
    paths_.resize(kFiles);
    model_.resize(kFiles);
    for (int d = 0; d < kDirs; ++d) {
      std::string dir = "/mnt/w" + std::to_string(d);
      Require(vfs_->Mkdir(dir.c_str()) == 0, "mkdir");
      for (int f = 0; f < kFilesPerDir; ++f) {
        int id = d * kFilesPerDir + f;
        paths_[id] = dir + "/f" + std::to_string(f);
        model_[id] = static_cast<uint8_t>(init.Below(kPatterns));
        kern::File* file = vfs_->Open(paths_[id].c_str(), kern::kOCreate);
        Require(file != nullptr, "create");
        Require(vfs_->Write(file, PatternAddr(model_[id]), kFileBytes) == kFileBytes, "write");
        vfs_->Close(file);
      }
    }
    // Warm-up: one stat per file puts every dentry in the dcache.
    for (const std::string& path : paths_) {
      kern::VfsStat st;
      Require(vfs_->Stat(path.c_str(), &st) == 0, "warm-up stat");
    }
    MarkSlabBaseline(k);
  }

  bool RunOp(uint64_t i) override {
    uint64_t r = ops_.Below(100);
    int id = static_cast<int>(ops_.Below(kFiles));
    const char* path = paths_[id].c_str();
    if (r < 60) {
      kern::VfsStat st;
      int rc = Traced(kVfsStat, [&] { return vfs_->Stat(path, &st); });
      return rc == 0 && st.size == kFileBytes && (st.mode & kern::kIfReg) != 0;
    }
    if (r < 85) {
      uint32_t off = static_cast<uint32_t>(ops_.Below(kFileBytes / kChunk)) * kChunk;
      kern::File* f = Traced(kVfsOpen, [&] { return vfs_->Open(path, 0); });
      if (f == nullptr) {
        return false;
      }
      bool ok = Traced(kVfsSeek, [&] { return vfs_->Seek(f, off); }) == 0;
      ok = ok && Traced(kVfsRead, [&] { return vfs_->Read(f, kReadBuf, kChunk); }) == kChunk;
      ok = Traced(kVfsClose, [&] { return vfs_->Close(f); }) == 0 && ok;
      return ok && std::memcmp(harness_->kernel()->user().UserPtr(kReadBuf),
                               patterns_[model_[id]] + off, kChunk) == 0;
    }
    if (r < 95) {
      uint8_t next = static_cast<uint8_t>((model_[id] + 1 + ops_.Below(kPatterns - 1)) % kPatterns);
      kern::File* f = Traced(kVfsOpen, [&] { return vfs_->Open(path, 0); });
      if (f == nullptr) {
        return false;
      }
      bool ok = Traced(kVfsWrite, [&] { return vfs_->Write(f, PatternAddr(next), kFileBytes); }) ==
                kFileBytes;
      ok = Traced(kVfsClose, [&] { return vfs_->Close(f); }) == 0 && ok;
      model_[id] = next;
      counts_.user_bytes_written += kFileBytes;
      return ok;
    }
    char tmp[48];
    std::snprintf(tmp, sizeof(tmp), "/mnt/w%d/t%llu", id / kFilesPerDir,
                  static_cast<unsigned long long>(i));
    kern::File* f = Traced(kVfsOpen, [&] { return vfs_->Open(tmp, kern::kOCreate); });
    if (f == nullptr) {
      return false;
    }
    bool ok = Traced(kVfsClose, [&] { return vfs_->Close(f); }) == 0;
    return Traced(kVfsUnlink, [&] { return vfs_->Unlink(tmp); }) == 0 && ok;
  }

  void FinalChecks(std::vector<std::string>* problems) override {
    if (vfs_->open_files() != 0) {
      problems->push_back("open files left behind");
    }
    CheckEnd(harness_->kernel(), harness_->runtime(), 0, problems);
  }

  LayerHandles handles() const override {
    LayerHandles h;
    h.kernel = harness_->kernel();
    h.rt = harness_->runtime();
    h.vfs = vfs_;
    return h;
  }

  uint64_t CountWindowOps() const override { return 20000; }
  uint64_t MemoryCheckpointOps() const override { return 2'000'000; }

 private:
  static uintptr_t PatternAddr(int p) { return kPatternBase + static_cast<uintptr_t>(p) * kFileBytes; }
  static void Require(bool ok, const char* what) {
    if (!ok) {
      throw std::runtime_error(std::string("fs_ramfs_mix setup: ") + what + " failed");
    }
  }

  uint64_t seed_;
  bool stock_;
  Rng ops_;
  std::unique_ptr<eval::FsperfHarness> harness_;
  kern::Vfs* vfs_ = nullptr;
  uint8_t patterns_[kPatterns][kFileBytes];
  std::vector<std::string> paths_;
  std::vector<uint8_t> model_;  // pattern each file holds
};

}  // namespace

std::unique_ptr<Workload> MakeFsRamfsMix(uint64_t seed, bool stock) {
  return std::make_unique<FsRamfsMix>(seed, stock);
}

}  // namespace lxbench
