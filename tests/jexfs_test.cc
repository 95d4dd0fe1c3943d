// jexfs functional tests: the extent-based journaling filesystem module
// driven through the VFS on a RAM BlockDevice, stock and LXFI-enforced,
// plus the dm-crypt-stacked configuration from the acceptance criteria —
// the same on-disk image mounts unchanged over an enforced dm target, and
// the raw disk underneath carries ciphertext only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/kernel/block/block.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/uaccess.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/modules/dm/dm_modules.h"
#include "src/modules/jexfs/jexfs.h"
#include "src/modules/jexfs/jexfs_format.h"

namespace {

constexpr uint64_t kDiskBlocks = 1024;
constexpr uintptr_t kUbuf = 0x1000;

// mkfs from trusted harness code, written through the TOP device so a
// dm-crypt-stacked mount finds a correctly encrypted disk underneath.
void MkfsThroughDevice(kern::Kernel* kernel, kern::BlockDevice* top) {
  std::vector<uint8_t> img(kDiskBlocks * mods::kJexBlockSize);
  ASSERT_TRUE(mods::JexMkfs(img.data(), kDiskBlocks));
  kern::BlockLayer* block = kern::GetBlockLayer(kernel);
  for (uint64_t s = 0; s < kDiskBlocks; ++s) {
    kern::Bio bio;
    bio.sector = s;
    bio.size = mods::kJexBlockSize;
    bio.data = img.data() + s * mods::kJexBlockSize;
    bio.write = true;
    ASSERT_EQ(block->SubmitBio(top, &bio), 0);
  }
}

struct JexRig {
  JexRig(bool isolated, bool crypt, bool partitions = true) {
    kernel = std::make_unique<kern::Kernel>(256ull << 20);
    if (isolated) {
      // Same configuration as the fsperf block harness: per-principal heap
      // partitions keep jexfs and dm-crypt allocations on disjoint pages,
      // so neither becomes a page-writer of the other's end_io slots.
      lxfi::RuntimeOptions options;
      options.partitioned_heaps = partitions;
      rt = std::make_unique<lxfi::Runtime>(kernel.get(), options);
    }
    lxfi::InstallKernelApi(kernel.get(), rt.get());
    block = kern::GetBlockLayer(kernel.get());
    raw = block->CreateRamDisk("jexdisk0", kDiskBlocks);
    top = raw;
    if (crypt) {
      EXPECT_NE(kernel->LoadModule(mods::DmCryptModuleDef()), nullptr);
      top = block->DmCreate("jexcrypt0", "crypt", raw, "t3stk3y");
      EXPECT_NE(top, nullptr);
    }
    MkfsThroughDevice(kernel.get(), top);
    jex_mod = kernel->LoadModule(mods::JexfsModuleDef("jexfs", top->name));
    EXPECT_NE(jex_mod, nullptr);
    vfs = kern::GetVfs(kernel.get());
    sb = vfs->Mount("jexfs", "/mnt");
  }

  uintptr_t PutUser(const void* src, size_t n) {
    std::memcpy(kernel->user().UserPtr(kUbuf), src, n);
    return kUbuf;
  }
  void GetUser(void* dst, size_t n) { std::memcpy(dst, kernel->user().UserPtr(kUbuf), n); }

  // Writes `data` to a fresh file at `path` and closes it.
  void WriteFile(const char* path, const std::string& data) {
    int err = 0;
    kern::File* f = vfs->Open(path, kern::kOCreate, &err);
    ASSERT_NE(f, nullptr) << path << " err=" << err;
    ASSERT_EQ(vfs->Write(f, PutUser(data.data(), data.size()), data.size()),
              static_cast<int64_t>(data.size()));
    ASSERT_EQ(vfs->Close(f), 0);
  }

  std::string ReadFile(const char* path) {
    int err = 0;
    kern::File* f = vfs->Open(path, 0, &err);
    if (f == nullptr) {
      return "<open failed: " + std::to_string(err) + ">";
    }
    std::string out;
    char chunk[256];
    int64_t got;
    while ((got = vfs->Read(f, kUbuf, sizeof(chunk))) > 0) {
      GetUser(chunk, static_cast<size_t>(got));
      out.append(chunk, static_cast<size_t>(got));
    }
    vfs->Close(f);
    return out;
  }

  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<lxfi::Runtime> rt;
  kern::BlockLayer* block = nullptr;
  kern::BlockDevice* raw = nullptr;  // the RAM disk
  kern::BlockDevice* top = nullptr;  // raw, or the dm-crypt device over it
  kern::Module* jex_mod = nullptr;
  kern::Vfs* vfs = nullptr;
  kern::SuperBlock* sb = nullptr;
};

std::string Pattern(size_t n, char base) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(base + static_cast<char>(i % 23));
  }
  return s;
}

class JexfsParam : public ::testing::TestWithParam<bool> {};

TEST_P(JexfsParam, CreateWriteReadBackStat) {
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  // Multi-extent file: 1500 bytes spans three 512-byte blocks.
  std::string data = Pattern(1500, 'a');
  rig.WriteFile("/mnt/a.txt", data);
  EXPECT_EQ(rig.ReadFile("/mnt/a.txt"), data);
  kern::VfsStat st;
  ASSERT_EQ(rig.vfs->Stat("/mnt/a.txt", &st), 0);
  EXPECT_EQ(st.size, data.size());
  EXPECT_EQ(st.nlink, 1u);
  // Overwrite in place, then extend.
  std::string more = Pattern(2048, 'A');
  rig.WriteFile("/mnt/a.txt", more);
  EXPECT_EQ(rig.ReadFile("/mnt/a.txt"), more);
  if (rig.rt != nullptr) {
    EXPECT_EQ(rig.rt->violation_count(), 0u);
  }
}

TEST_P(JexfsParam, DirectoriesRenameUnlink) {
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  ASSERT_EQ(rig.vfs->Mkdir("/mnt/d"), 0);
  rig.WriteFile("/mnt/d/x", "payload-x");
  kern::VfsStat before;
  ASSERT_EQ(rig.vfs->Stat("/mnt/d/x", &before), 0);

  // Same-directory rename through the seqlock-correct d_move path.
  ASSERT_EQ(rig.vfs->Rename("/mnt/d/x", "/mnt/d/y"), 0);
  kern::VfsStat after;
  EXPECT_EQ(rig.vfs->Stat("/mnt/d/x", &after), -kern::kEnoent);
  ASSERT_EQ(rig.vfs->Stat("/mnt/d/y", &after), 0);
  EXPECT_EQ(after.ino, before.ino);
  EXPECT_EQ(rig.ReadFile("/mnt/d/y"), "payload-x");

  // Cross-directory rename.
  ASSERT_EQ(rig.vfs->Rename("/mnt/d/y", "/mnt/z"), 0);
  EXPECT_EQ(rig.ReadFile("/mnt/z"), "payload-x");

  // rmdir honours emptiness; unlink empties it.
  rig.WriteFile("/mnt/d/keep", "k");
  EXPECT_EQ(rig.vfs->Rmdir("/mnt/d"), -kern::kEnotempty);
  ASSERT_EQ(rig.vfs->Unlink("/mnt/d/keep"), 0);
  EXPECT_EQ(rig.vfs->Rmdir("/mnt/d"), 0);
  ASSERT_EQ(rig.vfs->Unlink("/mnt/z"), 0);
  EXPECT_EQ(rig.vfs->Stat("/mnt/z", &after), -kern::kEnoent);
  if (rig.rt != nullptr) {
    EXPECT_EQ(rig.rt->violation_count(), 0u);
  }
}

TEST_P(JexfsParam, ErrorPaths) {
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  int err = 0;
  EXPECT_EQ(rig.vfs->Open("/mnt/nope", 0, &err), nullptr);
  EXPECT_EQ(err, -kern::kEnoent);
  EXPECT_EQ(rig.vfs->Open("/mnt/missingdir/f", kern::kOCreate, &err), nullptr);
  EXPECT_EQ(rig.vfs->Unlink("/mnt/nope"), -kern::kEnoent);
  EXPECT_EQ(rig.vfs->Rename("/mnt/nope", "/mnt/other"), -kern::kEnoent);
  // Existing positive destination: RENAME_NOREPLACE semantics.
  rig.WriteFile("/mnt/src", "s");
  rig.WriteFile("/mnt/dst", "d");
  EXPECT_EQ(rig.vfs->Rename("/mnt/src", "/mnt/dst"), -kern::kEexist);
  // A name longer than the on-disk dirent field must be refused, not
  // truncated into a colliding entry.
  std::string long_name = "/mnt/" + std::string(mods::kJexNameMax + 5, 'n');
  EXPECT_EQ(rig.vfs->Open(long_name.c_str(), kern::kOCreate, &err), nullptr);
  if (rig.rt != nullptr) {
    EXPECT_EQ(rig.rt->violation_count(), 0u);
  }
}

TEST_P(JexfsParam, FsyncRemountPersistence) {
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  std::string data = Pattern(1300, 'p');
  ASSERT_EQ(rig.vfs->Mkdir("/mnt/sub"), 0);
  rig.WriteFile("/mnt/sub/persist", data);
  int err = 0;
  kern::File* f = rig.vfs->Open("/mnt/sub/persist", 0, &err);
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(rig.vfs->Fsync(f), 0);
  ASSERT_EQ(rig.vfs->Close(f), 0);
  auto st = mods::GetJexfs(*rig.jex_mod);
  ASSERT_NE(st, nullptr);
  EXPECT_GT(st->commits, 0u) << "fsync must have committed journal transactions";

  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  rig.sb = rig.vfs->Mount("jexfs", "/mnt");
  ASSERT_NE(rig.sb, nullptr);
  EXPECT_EQ(rig.ReadFile("/mnt/sub/persist"), data);
  kern::VfsStat vstat;
  ASSERT_EQ(rig.vfs->Stat("/mnt/sub/persist", &vstat), 0);
  EXPECT_EQ(vstat.size, data.size());
  if (rig.rt != nullptr) {
    EXPECT_EQ(rig.rt->violation_count(), 0u);
  }
}

// After a remount the dcache is empty: unlink and rename must find names
// that exist only on disk, with no earlier walk to have cached them.
TEST_P(JexfsParam, UnlinkAndRenameFindUncachedNamesAfterRemount) {
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  const std::string a = Pattern(700, 'a');
  const std::string b = Pattern(900, 'b');
  rig.WriteFile("/mnt/gone", a);
  rig.WriteFile("/mnt/from", a);
  rig.WriteFile("/mnt/src", a);
  rig.WriteFile("/mnt/dst", b);
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  rig.sb = rig.vfs->Mount("jexfs", "/mnt");
  ASSERT_NE(rig.sb, nullptr);

  EXPECT_EQ(rig.vfs->Unlink("/mnt/gone"), 0);
  EXPECT_EQ(rig.vfs->Rename("/mnt/from", "/mnt/to"), 0);
  EXPECT_EQ(rig.vfs->Rename("/mnt/src", "/mnt/dst"), -kern::kEexist);
  EXPECT_EQ(rig.ReadFile("/mnt/src"), a);
  EXPECT_EQ(rig.ReadFile("/mnt/dst"), b);
  EXPECT_EQ(rig.ReadFile("/mnt/to"), a);
  kern::VfsStat st;
  EXPECT_EQ(rig.vfs->Stat("/mnt/gone", &st), -kern::kEnoent);
  EXPECT_EQ(rig.vfs->Stat("/mnt/from", &st), -kern::kEnoent);
  if (rig.rt != nullptr) {
    EXPECT_EQ(rig.rt->violation_count(), 0u);
  }
}

// Mkdir asks the filesystem before creating: after a remount it refuses
// names that exist only on disk instead of adding a second directory entry.
TEST_P(JexfsParam, MkdirOverUncachedNamesAfterRemountFails) {
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  ASSERT_EQ(rig.vfs->Mkdir("/mnt/d"), 0);
  rig.WriteFile("/mnt/f", Pattern(300, 'f'));
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  rig.sb = rig.vfs->Mount("jexfs", "/mnt");
  ASSERT_NE(rig.sb, nullptr);

  EXPECT_EQ(rig.vfs->Mkdir("/mnt/d"), -kern::kEexist);
  EXPECT_EQ(rig.vfs->Mkdir("/mnt/f"), -kern::kEexist);
  EXPECT_EQ(rig.vfs->Unlink("/mnt/f"), 0);
  EXPECT_EQ(rig.vfs->Rmdir("/mnt/d"), 0);
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  rig.sb = rig.vfs->Mount("jexfs", "/mnt");
  ASSERT_NE(rig.sb, nullptr);
  kern::VfsStat st;
  EXPECT_EQ(rig.vfs->Stat("/mnt/d", &st), -kern::kEnoent);
  EXPECT_EQ(rig.vfs->Stat("/mnt/f", &st), -kern::kEnoent);
  if (rig.rt != nullptr) {
    EXPECT_EQ(rig.rt->violation_count(), 0u);
  }
}

// Open(kOCreate) of a name that exists only on disk opens that file: same
// inode and size, and no second directory entry.
TEST_P(JexfsParam, OpenCreateOverUncachedNameAfterRemountOpensIt) {
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  const std::string data = Pattern(700, 'o');
  rig.WriteFile("/mnt/f", data);
  kern::VfsStat before;
  ASSERT_EQ(rig.vfs->Stat("/mnt/f", &before), 0);
  kern::VfsStatFs fs_before;
  ASSERT_EQ(rig.vfs->StatFs("/mnt", &fs_before), 0);
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  rig.sb = rig.vfs->Mount("jexfs", "/mnt");
  ASSERT_NE(rig.sb, nullptr);

  int err = 0;
  kern::File* f = rig.vfs->Open("/mnt/f", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr) << "err=" << err;
  EXPECT_EQ(f->inode->ino, before.ino);
  EXPECT_EQ(f->inode->size, data.size());
  ASSERT_EQ(rig.vfs->Close(f), 0);
  kern::VfsStatFs fs_after;
  ASSERT_EQ(rig.vfs->StatFs("/mnt", &fs_after), 0);
  EXPECT_EQ(fs_after.files, fs_before.files);
  EXPECT_EQ(rig.ReadFile("/mnt/f"), data);
  // One entry: once it is unlinked, a fresh mount does not find the name.
  EXPECT_EQ(rig.vfs->Unlink("/mnt/f"), 0);
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  rig.sb = rig.vfs->Mount("jexfs", "/mnt");
  ASSERT_NE(rig.sb, nullptr);
  kern::VfsStat st;
  EXPECT_EQ(rig.vfs->Stat("/mnt/f", &st), -kern::kEnoent);
  if (rig.rt != nullptr) {
    EXPECT_EQ(rig.rt->violation_count(), 0u);
  }
}

TEST_P(JexfsParam, StatFsCountsFilesAndBytes) {
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  rig.WriteFile("/mnt/one", Pattern(600, 'q'));
  rig.WriteFile("/mnt/two", Pattern(100, 'r'));
  kern::VfsStatFs out;
  ASSERT_EQ(rig.vfs->StatFs("/mnt", &out), 0);
  EXPECT_EQ(out.files, 2u);
  EXPECT_EQ(out.bytes, 700u);
}

// A commit is one device write: [desc | data... | commit] as one bio. The
// sector-granular write log shows its sectors in journal order, head to
// head + n + 1, with the commit block last.
TEST_P(JexfsParam, CommitWritesOneBioWithTheCommitBlockLast) {
  std::vector<kern::BlockWrite> log;  // outlives the rig's unmount writes
  JexRig rig(GetParam(), /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  rig.block->SetWriteLog(rig.raw, &log);
  int err = 0;
  kern::File* f = rig.vfs->Open("/mnt/shape", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr) << "err=" << err;
  // The create committed its own transaction; its commit block was the last
  // sector written, so the next record starts right behind it.
  ASSERT_FALSE(log.empty());
  mods::JexJournalCommit prev;
  std::memcpy(&prev, log.back().data.data(), sizeof(prev));
  ASSERT_EQ(prev.magic, mods::kJexCommitMagic);
  const uint64_t head = log.back().sector + 1;

  // Three data blocks plus the inode and bitmap blocks: n = 5 staged blocks.
  log.clear();
  const uint64_t writes_before = rig.raw->writes;
  std::string data = Pattern(1500, 's');
  ASSERT_EQ(rig.vfs->Write(f, rig.PutUser(data.data(), data.size()), data.size()),
            static_cast<int64_t>(data.size()));
  EXPECT_EQ(rig.raw->writes - writes_before, 1u) << "one bio per commit";

  ASSERT_FALSE(log.empty());
  mods::JexJournalDesc desc;
  std::memcpy(&desc, log.front().data.data(), sizeof(desc));
  ASSERT_EQ(desc.magic, mods::kJexDescMagic);
  const uint64_t n = desc.nblocks;
  EXPECT_GE(n, 3u);
  ASSERT_EQ(log.size(), n + 2);
  std::vector<uint8_t> staged;
  for (uint64_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].sector, head + i) << "write " << i;
    if (i >= 1 && i <= n) {
      staged.insert(staged.end(), log[i].data.begin(), log[i].data.end());
    }
  }
  EXPECT_EQ(mods::JexChecksum(staged.data(), n), desc.checksum);
  mods::JexJournalCommit cm;
  std::memcpy(&cm, log.back().data.data(), sizeof(cm));
  EXPECT_EQ(cm.magic, mods::kJexCommitMagic);
  EXPECT_EQ(cm.seq, desc.seq);
  EXPECT_EQ(cm.checksum, desc.checksum);

  ASSERT_EQ(rig.vfs->Fsync(f), 0);
  ASSERT_EQ(rig.vfs->Close(f), 0);
  EXPECT_EQ(rig.ReadFile("/mnt/shape"), data);
  if (rig.rt != nullptr) {
    EXPECT_EQ(rig.rt->violation_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(StockAndEnforced, JexfsParam, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Enforced" : "Stock";
                         });

// --- dm-crypt stacked (enforced): the acceptance configuration ---------------

TEST(JexfsOverDmCrypt, FullWorkloadIsCleanAndRawDiskIsCiphertext) {
  JexRig rig(/*isolated=*/true, /*crypt=*/true);
  ASSERT_NE(rig.sb, nullptr);
  ASSERT_NE(rig.top, rig.raw) << "the mount must sit on the dm device";

  // A recognizable plaintext block, fsynced so it reaches the disk.
  std::string secret(512, '\0');
  for (size_t i = 0; i < secret.size(); ++i) {
    secret[i] = static_cast<char>("SECRETBLOCK!"[i % 12]);
  }
  ASSERT_EQ(rig.vfs->Mkdir("/mnt/d"), 0);
  rig.WriteFile("/mnt/d/s", secret);
  int err = 0;
  kern::File* f = rig.vfs->Open("/mnt/d/s", 0, &err);
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(rig.vfs->Fsync(f), 0);
  ASSERT_EQ(rig.vfs->Close(f), 0);
  EXPECT_EQ(rig.ReadFile("/mnt/d/s"), secret);

  // Rename and unlink work identically over the stacked target.
  ASSERT_EQ(rig.vfs->Rename("/mnt/d/s", "/mnt/moved"), 0);
  EXPECT_EQ(rig.ReadFile("/mnt/moved"), secret);

  // The raw RAM disk below dm-crypt never sees the plaintext: search the
  // whole backing store for a 24-byte window of the pattern.
  const uint8_t* backing = rig.raw->backing;
  size_t total = kDiskBlocks * kern::kSectorSize;
  bool leaked = false;
  for (size_t i = 0; i + 24 <= total && !leaked; ++i) {
    leaked = std::memcmp(backing + i, secret.data(), 24) == 0;
  }
  EXPECT_FALSE(leaked) << "plaintext visible on the disk below dm-crypt";
  EXPECT_EQ(rig.rt->violation_count(), 0u);
}

TEST(JexfsOverDmCrypt, RemountPersistsThroughTheStack) {
  JexRig rig(/*isolated=*/true, /*crypt=*/true);
  ASSERT_NE(rig.sb, nullptr);
  std::string data = Pattern(900, 'w');
  rig.WriteFile("/mnt/keep", data);
  int err = 0;
  kern::File* f = rig.vfs->Open("/mnt/keep", 0, &err);
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(rig.vfs->Fsync(f), 0);
  ASSERT_EQ(rig.vfs->Close(f), 0);
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  rig.sb = rig.vfs->Mount("jexfs", "/mnt");
  ASSERT_NE(rig.sb, nullptr);
  EXPECT_EQ(rig.ReadFile("/mnt/keep"), data);
  EXPECT_EQ(rig.rt->violation_count(), 0u);
}


// Golden ciphertext image: a seeded workload of writes, overwrites, fsyncs,
// renames, unlinks and remounts over enforced dm-crypt leaves a raw disk
// whose FNV-1a hash is pinned. The constant only moves when the bytes
// jexfs or dm-crypt put on the disk move: a change to how bios are split,
// bounced or batched that keeps the on-disk format keeps it.
TEST(JexfsOverDmCrypt, SeededWorkloadLeavesTheGoldenCiphertextImage) {
  JexRig rig(/*isolated=*/true, /*crypt=*/true);
  ASSERT_NE(rig.sb, nullptr);
  ASSERT_EQ(rig.vfs->Mkdir("/mnt/d"), 0);
  constexpr int kFiles = 5;
  std::vector<std::string> model(kFiles);
  std::vector<bool> in_d(kFiles, false);
  auto path = [&](int i) {
    return std::string(in_d[i] ? "/mnt/d/f" : "/mnt/f") + std::to_string(i);
  };
  lxfi::Rng rng(1);
  for (int step = 0; step < 80; ++step) {
    int i = static_cast<int>(rng.Below(kFiles));
    uint64_t op = rng.Below(10);
    int err = 0;
    if (op < 6) {
      // Overwrite or extend at an offset inside the file, up to 8 KiB.
      uint64_t off = rng.Below(model[i].size() + 1);
      uint64_t len = rng.Range(1, std::min<uint64_t>(4000, 8192 - off));
      std::string chunk(len, '\0');
      for (char& c : chunk) {
        c = static_cast<char>(rng.Next());
      }
      kern::File* f = rig.vfs->Open(path(i).c_str(), kern::kOCreate, &err);
      ASSERT_NE(f, nullptr) << "step " << step << " err=" << err;
      ASSERT_EQ(rig.vfs->Seek(f, off), 0);
      ASSERT_EQ(rig.vfs->Write(f, rig.PutUser(chunk.data(), len), len),
                static_cast<int64_t>(len))
          << "step " << step;
      if (op == 0) {
        ASSERT_EQ(rig.vfs->Fsync(f), 0);
      }
      ASSERT_EQ(rig.vfs->Close(f), 0);
      model[i].resize(std::max<uint64_t>(model[i].size(), off + len));
      model[i].replace(off, len, chunk);
    } else if (op < 8 && !model[i].empty()) {
      std::string from = path(i);
      in_d[i] = !in_d[i];
      ASSERT_EQ(rig.vfs->Rename(from.c_str(), path(i).c_str()), 0) << "step " << step;
    } else if (op == 8 && !model[i].empty()) {
      ASSERT_EQ(rig.vfs->Unlink(path(i).c_str()), 0) << "step " << step;
      model[i].clear();
    } else if (op == 9) {
      ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
      rig.sb = rig.vfs->Mount("jexfs", "/mnt");
      ASSERT_NE(rig.sb, nullptr) << "step " << step;
    }
  }
  for (int i = 0; i < kFiles; ++i) {
    if (!model[i].empty()) {
      EXPECT_EQ(rig.ReadFile(path(i).c_str()), model[i]) << path(i);
    }
  }
  ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0);
  EXPECT_EQ(rig.rt->violation_count(), 0u);
  uint64_t hash = lxfi::Fnv1a64(std::string_view(reinterpret_cast<const char*>(rig.raw->backing),
                                                 kDiskBlocks * kern::kSectorSize));
  EXPECT_EQ(hash, 0x5ae706519257bc36ull) << std::hex << "0x" << hash;
}

// A transaction of 8 data blocks plus the inode block makes an 11-sector
// record bio, larger than the biggest slab size class, so dm-crypt writes
// part of it through its page-granular 8-sector bounce. The bounces belong
// to the target, so repeated large commits (and the checkpoints they force)
// allocate no new slab pages once warm.
TEST(JexfsOverDmCrypt, LargeTransactionsKeepSlabPagesFlat) {
  JexRig rig(/*isolated=*/true, /*crypt=*/true);
  ASSERT_NE(rig.sb, nullptr);
  int err = 0;
  kern::File* f = rig.vfs->Open("/mnt/big", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr) << "err=" << err;
  std::string data;
  auto overwrite = [&](int round) {
    data = Pattern(4000, static_cast<char>('a' + round % 20));
    ASSERT_EQ(rig.vfs->Seek(f, 0), 0);
    ASSERT_EQ(rig.vfs->Write(f, rig.PutUser(data.data(), data.size()), data.size()),
              static_cast<int64_t>(data.size()));
  };
  // Warm up past a journal wrap so every size class and cached page exists.
  for (int round = 0; round < 10; ++round) {
    overwrite(round);
  }
  const size_t pages = rig.kernel->slab().pages_allocated();
  for (int round = 10; round < 50; ++round) {
    overwrite(round);
  }
  EXPECT_EQ(rig.kernel->slab().pages_allocated(), pages);
  ASSERT_EQ(rig.vfs->Close(f), 0);
  EXPECT_EQ(rig.ReadFile("/mnt/big"), data);
  EXPECT_EQ(rig.rt->violation_count(), 0u);
}

// Enforced jexfs needs its record buffer inside the mount principal's heap
// partition (see JexSb in jexfs.cc). With partitions off the buffer lands in
// the shared heap, and Mount refuses with -ENOMEM instead of leaving a
// WRITE violation for the second transaction's staging.
TEST(JexfsEnforced, MountWithoutHeapPartitionsFailsClosed) {
  JexRig rig(/*isolated=*/true, /*crypt=*/false, /*partitions=*/false);
  EXPECT_EQ(rig.sb, nullptr);
  EXPECT_EQ(rig.rt->violation_count(), 0u);
}


// Each mount kmallocs a 29 KiB journal record inside the mount principal's
// 1 MiB heap partition. Unmount frees it and the next mount reuses its pages,
// so any number of remounts keeps the record in the partition (Mount above
// would refuse one that fell outside) and allocates no new slab pages.
TEST(JexfsEnforced, RemountsReuseTheRecordPages) {
  JexRig rig(/*isolated=*/true, /*crypt=*/false);
  ASSERT_NE(rig.sb, nullptr);
  rig.WriteFile("/mnt/keep", Pattern(700, 'k'));
  const size_t pages = rig.kernel->slab().pages_allocated();
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(rig.vfs->Unmount("/mnt"), 0) << "remount " << i;
    rig.sb = rig.vfs->Mount("jexfs", "/mnt");
    ASSERT_NE(rig.sb, nullptr) << "remount " << i;
  }
  EXPECT_EQ(rig.kernel->slab().pages_allocated(), pages);
  EXPECT_EQ(rig.ReadFile("/mnt/keep"), Pattern(700, 'k'));
  EXPECT_EQ(rig.rt->violation_count(), 0u);
}

}  // namespace
