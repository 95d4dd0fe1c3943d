// Crash-consistency sweep for jexfs: run an enforced metadata+data workload
// with the block layer's sector-granular write log attached, then cut the
// power at EVERY write boundary — rebuild the disk image from the base image
// plus a log prefix, run journal replay, and require the fsck invariants to
// hold at each cut. On top of the structural sweep, two pointwise claims:
// fsync is durable (a synced file survives every later cut with its exact
// content) and rename is atomic (after the journal committed the move,
// every cut sees exactly one of the two names, never both, never neither).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/block/block.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/uaccess.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/modules/jexfs/jexfs.h"
#include "src/modules/jexfs/jexfs_format.h"

namespace {

constexpr uint64_t kDiskBlocks = 1024;
constexpr uintptr_t kUbuf = 0x1000;

// --- host-side image inspection (on replayed images) -------------------------

mods::JexDiskSuper SuperOf(const uint8_t* img) {
  mods::JexDiskSuper sup;
  std::memcpy(&sup, mods::JexBlockPtr(img, 0), sizeof(sup));
  return sup;
}

mods::JexDiskInode InodeAt(const uint8_t* img, const mods::JexDiskSuper& sup, uint32_t idx) {
  mods::JexDiskInode di;
  const uint8_t* blk = mods::JexBlockPtr(img, sup.itable_start + idx / mods::kJexInodesPerBlock);
  std::memcpy(&di, blk + (idx % mods::kJexInodesPerBlock) * sizeof(di), sizeof(di));
  return di;
}

// Finds `name` in the directory inode `dir`; returns the inode-table index
// or kJexNoInode.
uint32_t DirFind(const uint8_t* img, const mods::JexDiskSuper& sup,
                 const mods::JexDiskInode& dir, const char* name) {
  for (const mods::JexExtent& e : dir.ext) {
    for (uint64_t b = e.start; b < e.start + e.len; ++b) {
      const uint8_t* blk = mods::JexBlockPtr(img, b);
      for (uint32_t i = 0; i < mods::kJexDirEntsPerBlock; ++i) {
        mods::JexDirEnt ent;
        std::memcpy(&ent, blk + i * sizeof(ent), sizeof(ent));
        if (ent.ino != mods::kJexNoInode && std::strncmp(ent.name, name, sizeof(ent.name)) == 0) {
          return ent.ino;
        }
      }
    }
  }
  return mods::kJexNoInode;
}

// Resolves a one- or two-component path from the root directory.
uint32_t PathFind(const uint8_t* img, const mods::JexDiskSuper& sup, const char* a,
                  const char* b = nullptr) {
  uint32_t idx = DirFind(img, sup, InodeAt(img, sup, 0), a);
  if (idx == mods::kJexNoInode || b == nullptr) {
    return idx;
  }
  return DirFind(img, sup, InodeAt(img, sup, idx), b);
}

std::string FileContent(const uint8_t* img, const mods::JexDiskSuper& sup, uint32_t idx) {
  mods::JexDiskInode di = InodeAt(img, sup, idx);
  std::string out;
  for (const mods::JexExtent& e : di.ext) {
    for (uint64_t b = e.start; b < e.start + e.len && out.size() < di.size; ++b) {
      size_t take = std::min<size_t>(mods::kJexBlockSize, di.size - out.size());
      out.append(reinterpret_cast<const char*>(mods::JexBlockPtr(img, b)), take);
    }
  }
  return out;
}

std::string Pattern(size_t n, char base) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(base + static_cast<char>(i % 29));
  }
  return s;
}

// --- the workload rig --------------------------------------------------------

struct CrashRig {
  CrashRig() {
    kernel = std::make_unique<kern::Kernel>(256ull << 20);
    lxfi::RuntimeOptions options;
    options.partitioned_heaps = true;
    rt = std::make_unique<lxfi::Runtime>(kernel.get(), options);
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    block = kern::GetBlockLayer(kernel.get());
    dev = block->CreateRamDisk("crashdisk0", kDiskBlocks);
    base.resize(kDiskBlocks * mods::kJexBlockSize);
    EXPECT_TRUE(mods::JexMkfs(base.data(), kDiskBlocks));
    std::memcpy(dev->backing, base.data(), base.size());
    block->SetWriteLog(dev, &log);
    EXPECT_NE(kernel->LoadModule(mods::JexfsModuleDef("jexfs", "crashdisk0")), nullptr);
    vfs = kern::GetVfs(kernel.get());
    sb = vfs->Mount("jexfs", "/mnt");
  }

  void WriteFile(const char* path, const std::string& data) {
    int err = 0;
    kern::File* f = vfs->Open(path, kern::kOCreate, &err);
    ASSERT_NE(f, nullptr) << path << " err=" << err;
    std::memcpy(kernel->user().UserPtr(kUbuf), data.data(), data.size());
    ASSERT_EQ(vfs->Write(f, kUbuf, data.size()), static_cast<int64_t>(data.size()));
    ASSERT_EQ(vfs->Close(f), 0);
  }

  void FsyncFile(const char* path) {
    int err = 0;
    kern::File* f = vfs->Open(path, 0, &err);
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(vfs->Fsync(f), 0);
    ASSERT_EQ(vfs->Close(f), 0);
  }

  // The disk image after cutting power at write boundary k.
  std::vector<uint8_t> ImageAtCut(size_t k) const {
    std::vector<uint8_t> img = base;
    for (size_t i = 0; i < k; ++i) {
      std::memcpy(img.data() + log[i].sector * kern::kSectorSize, log[i].data.data(),
                  log[i].data.size());
    }
    return img;
  }

  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::BlockLayer* block = nullptr;
  kern::BlockDevice* dev = nullptr;
  kern::Vfs* vfs = nullptr;
  kern::SuperBlock* sb = nullptr;
  std::vector<uint8_t> base;
  std::vector<kern::BlockWrite> log;
};

TEST(JexfsCrash, SweepEveryWriteBoundary) {
  CrashRig rig;
  ASSERT_NE(rig.sb, nullptr);

  const std::string a_data = Pattern(1500, 'a');
  const std::string b_data = Pattern(300, 'b');
  const std::string c_data = Pattern(2000, 'c');
  const std::string c_tail = Pattern(700, 'z');

  // Workload: creates, multi-block writes, a directory, fsyncs (journal
  // commit + checkpoint: both sides of the epoch bump land in the log),
  // a rename after a sync, an unlink, and the unmount checkpoint.
  rig.WriteFile("/mnt/a.txt", a_data);
  ASSERT_EQ(rig.vfs->Mkdir("/mnt/d"), 0);
  rig.WriteFile("/mnt/d/b", b_data);
  rig.FsyncFile("/mnt/a.txt");
  const size_t a_synced = rig.log.size();  // a.txt durable from here on

  ASSERT_EQ(rig.vfs->Rename("/mnt/a.txt", "/mnt/d/a2"), 0);
  rig.WriteFile("/mnt/c", c_data);
  ASSERT_EQ(rig.vfs->Unlink("/mnt/d/b"), 0);
  rig.FsyncFile("/mnt/c");
  const size_t c_synced = rig.log.size();  // c durable from here on

  {
    int err = 0;
    kern::File* f = rig.vfs->Open("/mnt/c", 0, &err);
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(rig.vfs->Seek(f, c_data.size()), 0);
    std::memcpy(rig.kernel->user().UserPtr(kUbuf), c_tail.data(), c_tail.size());
    ASSERT_EQ(rig.vfs->Write(f, kUbuf, c_tail.size()), static_cast<int64_t>(c_tail.size()));
    ASSERT_EQ(rig.vfs->Close(f), 0);
  }
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);  // KillSb checkpoints
  EXPECT_EQ(rig.rt->violation_count(), 0u);
  ASSERT_GT(rig.log.size(), 50u) << "the workload must produce a real write history";
  // Journal records are multi-sector bios, so the log holds more sectors
  // than the device completed write bios: some cuts below fall inside one.
  EXPECT_GT(rig.log.size(), rig.dev->writes) << "no cut tears a multi-sector record bio";

  for (size_t k = 0; k <= rig.log.size(); ++k) {
    std::vector<uint8_t> img = rig.ImageAtCut(k);
    int applied = mods::JexReplay(img.data(), kDiskBlocks);
    ASSERT_GE(applied, 0) << "replay rejected the image at cut " << k;
    std::string why;
    ASSERT_TRUE(mods::JexFsck(img.data(), kDiskBlocks, &why))
        << "fsck failed at cut " << k << " of " << rig.log.size() << ": " << why;

    mods::JexDiskSuper sup = SuperOf(img.data());
    if (k >= a_synced) {
      // Durability + rename atomicity: the synced file exists under exactly
      // one of its two names, with its exact synced content.
      uint32_t at_old = PathFind(img.data(), sup, "a.txt");
      uint32_t at_new = PathFind(img.data(), sup, "d", "a2");
      ASSERT_TRUE((at_old == mods::kJexNoInode) != (at_new == mods::kJexNoInode))
          << "cut " << k << ": rename must expose exactly one name (old="
          << at_old << " new=" << at_new << ")";
      uint32_t idx = at_old != mods::kJexNoInode ? at_old : at_new;
      ASSERT_EQ(FileContent(img.data(), sup, idx), a_data) << "cut " << k;
    }
    if (k >= c_synced) {
      uint32_t c_idx = PathFind(img.data(), sup, "c");
      ASSERT_NE(c_idx, mods::kJexNoInode) << "cut " << k << ": synced file lost";
      std::string got = FileContent(img.data(), sup, c_idx);
      // The post-sync append may or may not have reached the disk; the
      // synced prefix must be intact either way.
      ASSERT_GE(got.size(), c_data.size()) << "cut " << k;
      ASSERT_EQ(got.substr(0, c_data.size()), c_data) << "cut " << k;
      if (got.size() > c_data.size()) {
        ASSERT_EQ(got.substr(c_data.size()), c_tail.substr(0, got.size() - c_data.size()))
            << "cut " << k;
      }
    }
  }
}

// A commit is one [desc | data... | commit] bio, and a device may make its
// sectors durable in any order. For every commit bio in the log, build each
// image in which the commit sector is durable but one earlier sector of the
// same bio (the descriptor or a data block) still holds its old bytes:
// replay must discard that transaction, apply exactly what the image from
// before the bio applies, and leave an image fsck accepts.
TEST(JexfsCrash, CommitDurableBeforeAnEarlierSectorIsDiscarded) {
  CrashRig rig;
  ASSERT_NE(rig.sb, nullptr);
  rig.WriteFile("/mnt/a", Pattern(1500, 'a'));
  ASSERT_EQ(rig.vfs->Mkdir("/mnt/d"), 0);
  rig.WriteFile("/mnt/d/b", Pattern(2600, 'b'));
  rig.FsyncFile("/mnt/a");
  ASSERT_EQ(rig.vfs->Rename("/mnt/a", "/mnt/d/a2"), 0);
  rig.WriteFile("/mnt/c", Pattern(900, 'c'));
  ASSERT_EQ(rig.vfs->Unlink("/mnt/d/b"), 0);
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  EXPECT_EQ(rig.rt->violation_count(), 0u);

  const mods::JexDiskSuper sup = SuperOf(rig.base.data());
  const uint64_t jend = sup.journal_start + sup.journal_blocks;
  const size_t img_bytes = kDiskBlocks * mods::kJexBlockSize;
  size_t commits = 0;
  size_t torn = 0;
  for (size_t start = 0; start < rig.log.size(); ++start) {
    const uint64_t head = rig.log[start].sector;
    mods::JexJournalDesc desc;
    std::memcpy(&desc, rig.log[start].data.data(), sizeof(desc));
    if (head <= sup.journal_start || head >= jend || desc.magic != mods::kJexDescMagic) {
      continue;
    }
    // The bio's n + 2 sectors are consecutive in the log, the commit last.
    const uint64_t n = desc.nblocks;
    const size_t end = start + n + 2;
    ASSERT_LE(end, rig.log.size());
    for (uint64_t i = 0; i < n + 2; ++i) {
      ASSERT_EQ(rig.log[start + i].sector, head + i) << "commit seq " << desc.seq;
    }
    mods::JexJournalCommit cm;
    std::memcpy(&cm, rig.log[end - 1].data.data(), sizeof(cm));
    ASSERT_EQ(cm.magic, mods::kJexCommitMagic);
    ASSERT_EQ(cm.seq, desc.seq);
    ++commits;

    const std::vector<uint8_t> old_img = rig.ImageAtCut(start);
    const std::vector<uint8_t> new_img = rig.ImageAtCut(end);
    std::vector<uint8_t> expect = old_img;
    const int applied_before = mods::JexReplay(expect.data(), kDiskBlocks);
    ASSERT_GE(applied_before, 0);
    std::vector<uint8_t> whole = new_img;
    ASSERT_EQ(mods::JexReplay(whole.data(), kDiskBlocks), applied_before + 1)
        << "the whole bio must commit its transaction (seq " << desc.seq << ")";

    for (uint64_t i = 0; i < n + 1; ++i) {
      const size_t off = (head + i) * mods::kJexBlockSize;
      if (std::memcmp(old_img.data() + off, new_img.data() + off, mods::kJexBlockSize) == 0) {
        continue;  // the old sector held the same bytes: nothing is stale
      }
      ++torn;
      std::vector<uint8_t> img = new_img;
      std::memcpy(img.data() + off, old_img.data() + off, mods::kJexBlockSize);
      ASSERT_EQ(mods::JexReplay(img.data(), kDiskBlocks), applied_before)
          << "seq " << desc.seq << ": stale sector " << head + i << " was replayed";
      std::string why;
      ASSERT_TRUE(mods::JexFsck(img.data(), kDiskBlocks, &why))
          << "seq " << desc.seq << ", stale sector " << head + i << ": " << why;
      // Outside the bio's own journal sectors, the image is exactly the
      // replayed image from before the bio: nothing of it reached a home.
      const size_t bio_lo = head * mods::kJexBlockSize;
      const size_t bio_hi = (head + n + 2) * mods::kJexBlockSize;
      ASSERT_EQ(std::memcmp(img.data(), expect.data(), bio_lo), 0) << "seq " << desc.seq;
      ASSERT_EQ(std::memcmp(img.data() + bio_hi, expect.data() + bio_hi, img_bytes - bio_hi), 0)
          << "seq " << desc.seq;
    }
  }
  EXPECT_GE(commits, 4u) << "the workload must commit several transactions";
  EXPECT_GT(torn, commits) << "each commit bio must yield torn images";
}

// Remount spot checks: images cut at interesting boundaries must mount in a
// fresh kernel through the module's own replay path and serve reads.
TEST(JexfsCrash, CutImagesRemountThroughTheModule) {
  CrashRig rig;
  ASSERT_NE(rig.sb, nullptr);
  const std::string data = Pattern(1800, 'm');
  rig.WriteFile("/mnt/survivor", data);
  rig.FsyncFile("/mnt/survivor");
  const size_t synced = rig.log.size();
  rig.WriteFile("/mnt/after", Pattern(400, 'n'));
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);

  const size_t cuts[] = {synced, (synced + rig.log.size()) / 2, rig.log.size()};
  for (size_t k : cuts) {
    std::vector<uint8_t> img = rig.ImageAtCut(k);
    auto kernel = std::make_unique<kern::Kernel>(256ull << 20);
    lxfi::InstallKernelApi(kernel.get(), nullptr);
    kern::BlockDevice* dev =
        kern::GetBlockLayer(kernel.get())->CreateRamDisk("crashdisk0", kDiskBlocks);
    std::memcpy(dev->backing, img.data(), img.size());
    ASSERT_NE(kernel->LoadModule(mods::JexfsModuleDef("jexfs", "crashdisk0")), nullptr);
    kern::Vfs* vfs = kern::GetVfs(kernel.get());
    ASSERT_NE(vfs->Mount("jexfs", "/mnt"), nullptr) << "cut " << k;
    int err = 0;
    kern::File* f = vfs->Open("/mnt/survivor", 0, &err);
    ASSERT_NE(f, nullptr) << "cut " << k << " err=" << err;
    std::string out;
    char chunk[256];
    int64_t got;
    while ((got = vfs->Read(f, kUbuf, sizeof(chunk))) > 0) {
      out.append(reinterpret_cast<char*>(kernel->user().UserPtr(kUbuf)),
                 static_cast<size_t>(got));
    }
    vfs->Close(f);
    EXPECT_EQ(out, data) << "cut " << k;
    ASSERT_EQ(vfs->Unmount("/mnt"), 0);
  }
}

}  // namespace
