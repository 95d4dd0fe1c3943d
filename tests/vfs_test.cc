// VFS core + ramfs integration: mount/path-walk/create/read/write/stat/
// unlink through the checked dispatch path, in stock and LXFI-isolated
// configurations. The isolated runs must complete the benign workload with
// zero violations (the Figure 12 "it still works" half of the claim).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/lxfi/runtime.h"
#include "src/modules/ramfs/ramfs.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

class VfsTest : public ::testing::TestWithParam<bool> {
 protected:
  VfsTest() : bench_(GetParam()) {
    vfs_ = kern::GetVfs(bench_.kernel.get());
    mod_ = bench_.kernel->LoadModule(mods::RamfsModuleDef());
  }

  // Stages `data` in simulated user memory and returns its user VA.
  uintptr_t StageUser(const void* data, size_t n) {
    std::memcpy(bench_.kernel->user().UserPtr(kUbuf), data, n);
    return kUbuf;
  }
  const uint8_t* UserData() const { return bench_.kernel->user().UserPtr(kUbuf); }

  int WriteFile(const char* path, const void* data, size_t n) {
    int err = 0;
    kern::File* f = vfs_->Open(path, kern::kOCreate, &err);
    if (f == nullptr) {
      return err;
    }
    int64_t wrote = vfs_->Write(f, StageUser(data, n), n);
    int rc = vfs_->Close(f);
    if (wrote != static_cast<int64_t>(n)) {
      return wrote < 0 ? static_cast<int>(wrote) : -kern::kEinval;
    }
    return rc;
  }

  static constexpr uintptr_t kUbuf = 0x1000;

  Bench bench_;
  kern::Vfs* vfs_ = nullptr;
  kern::Module* mod_ = nullptr;
};

TEST_P(VfsTest, ModuleLoadsAndRegistersFilesystem) {
  ASSERT_NE(mod_, nullptr);
  EXPECT_NE(vfs_->FindFilesystem("ramfs"), nullptr);
}

TEST_P(VfsTest, MountExposesRootDirectory) {
  ASSERT_NE(mod_, nullptr);
  kern::SuperBlock* sb = vfs_->Mount("ramfs", "/mnt");
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(vfs_->SuperAt("/mnt"), sb);
  kern::VfsStat st;
  ASSERT_EQ(vfs_->Stat("/mnt", &st), 0);
  EXPECT_NE(st.mode & kern::kIfDir, 0u);
  EXPECT_EQ(vfs_->Unmount("/mnt"), 0);
  EXPECT_EQ(vfs_->SuperAt("/mnt"), nullptr);
}

TEST_P(VfsTest, CreateWriteReadStatUnlink) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  const char payload[] = "the quick brown fox";
  ASSERT_EQ(WriteFile("/mnt/f0", payload, sizeof(payload)), 0);

  kern::VfsStat st;
  ASSERT_EQ(vfs_->Stat("/mnt/f0", &st), 0);
  EXPECT_EQ(st.size, sizeof(payload));
  EXPECT_NE(st.mode & kern::kIfReg, 0u);
  EXPECT_EQ(st.nlink, 1u);

  int err = 0;
  kern::File* f = vfs_->Open("/mnt/f0", 0, &err);
  ASSERT_NE(f, nullptr) << err;
  std::memset(bench_.kernel->user().UserPtr(kUbuf), 0, sizeof(payload));
  EXPECT_EQ(vfs_->Read(f, kUbuf, sizeof(payload)), static_cast<int64_t>(sizeof(payload)));
  EXPECT_EQ(std::memcmp(UserData(), payload, sizeof(payload)), 0);
  // Sequential read hits EOF.
  EXPECT_EQ(vfs_->Read(f, kUbuf, 16), 0);
  EXPECT_EQ(vfs_->Close(f), 0);

  EXPECT_EQ(vfs_->Unlink("/mnt/f0"), 0);
  EXPECT_EQ(vfs_->Stat("/mnt/f0", &st), -kern::kEnoent);
}

TEST_P(VfsTest, DirectoriesNestAndWalk) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  ASSERT_EQ(vfs_->Mkdir("/mnt/a"), 0);
  ASSERT_EQ(vfs_->Mkdir("/mnt/a/b"), 0);
  const char payload[] = "nested";
  ASSERT_EQ(WriteFile("/mnt/a/b/f", payload, sizeof(payload)), 0);
  kern::VfsStat st;
  ASSERT_EQ(vfs_->Stat("/mnt/a/b/f", &st), 0);
  EXPECT_EQ(st.size, sizeof(payload));

  // Remove leaf-first; non-empty rmdir refuses.
  EXPECT_EQ(vfs_->Rmdir("/mnt/a"), -kern::kEnotempty);
  EXPECT_EQ(vfs_->Unlink("/mnt/a/b/f"), 0);
  EXPECT_EQ(vfs_->Rmdir("/mnt/a/b"), 0);
  EXPECT_EQ(vfs_->Rmdir("/mnt/a"), 0);
}

TEST_P(VfsTest, FileGrowsAcrossReallocBoundaries) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  int err = 0;
  kern::File* f = vfs_->Open("/mnt/big", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr);
  uint8_t chunk[512];
  constexpr int kChunks = 10;  // 5 KiB: several capacity doublings from 64
  for (int i = 0; i < kChunks; ++i) {
    std::memset(chunk, 'a' + i, sizeof(chunk));
    ASSERT_EQ(vfs_->Write(f, StageUser(chunk, sizeof(chunk)), sizeof(chunk)),
              static_cast<int64_t>(sizeof(chunk)));
  }
  ASSERT_EQ(vfs_->Seek(f, 0), 0);
  for (int i = 0; i < kChunks; ++i) {
    ASSERT_EQ(vfs_->Read(f, kUbuf, sizeof(chunk)), static_cast<int64_t>(sizeof(chunk)));
    EXPECT_EQ(UserData()[0], 'a' + i);
    EXPECT_EQ(UserData()[511], 'a' + i);
  }
  EXPECT_EQ(vfs_->Close(f), 0);
  kern::VfsStat st;
  ASSERT_EQ(vfs_->Stat("/mnt/big", &st), 0);
  EXPECT_EQ(st.size, static_cast<uint64_t>(kChunks) * sizeof(chunk));
}

TEST_P(VfsTest, ErrnoSurface) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  int err = 0;
  EXPECT_EQ(vfs_->Open("/mnt/missing", 0, &err), nullptr);
  EXPECT_EQ(err, -kern::kEnoent);
  EXPECT_EQ(vfs_->Open("/nowhere/f", 0, &err), nullptr);
  EXPECT_EQ(err, -kern::kEnodev);
  ASSERT_EQ(vfs_->Mkdir("/mnt/d"), 0);
  EXPECT_EQ(vfs_->Open("/mnt/d", 0, &err), nullptr);
  EXPECT_EQ(err, -kern::kEisdir);
  EXPECT_EQ(vfs_->Mkdir("/mnt/d"), -kern::kEexist);
  EXPECT_EQ(vfs_->Unlink("/mnt/d"), -kern::kEisdir);
  const char payload[] = "x";
  ASSERT_EQ(WriteFile("/mnt/f", payload, 1), 0);
  EXPECT_EQ(vfs_->Rmdir("/mnt/f"), -kern::kEnotdir);
  kern::VfsStat st;
  EXPECT_EQ(vfs_->Stat("/mnt/f/notdir", &st), -kern::kEnotdir);
  // Open(kOCreate) resolves the path to the leaf's parent: a mount root and
  // an existing directory open as directories, a missing parent or a
  // regular-file parent fails the walk.
  EXPECT_EQ(vfs_->Open("/mnt", kern::kOCreate, &err), nullptr);
  EXPECT_EQ(err, -kern::kEisdir);
  EXPECT_EQ(vfs_->Open("/mnt/nodir/f", kern::kOCreate, &err), nullptr);
  EXPECT_EQ(err, -kern::kEnoent);
  EXPECT_EQ(vfs_->Open("/mnt/d", kern::kOCreate, &err), nullptr);
  EXPECT_EQ(err, -kern::kEisdir);
  EXPECT_EQ(vfs_->Open("/mnt/f/x", kern::kOCreate, &err), nullptr);
  EXPECT_EQ(err, -kern::kEnotdir);
  // Mkdir, unlink and rename need a leaf below a mount root.
  EXPECT_EQ(vfs_->Mkdir("/mnt"), -kern::kEinval);
  EXPECT_EQ(vfs_->Unlink("/nowhere"), -kern::kEinval);
  EXPECT_EQ(vfs_->Rename("/mnt", "/mnt/g"), -kern::kEinval);
}

// Open(kOCreate) resolves a new name once: its miss is the one lookup
// dispatch, and opening the name again (with or without kOCreate) costs
// none.
TEST_P(VfsTest, CreateCostsOneLookupDispatchAndReopenNone) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  const uint64_t base = vfs_->lookup_dispatches();
  int err = 0;
  kern::File* f = vfs_->Open("/mnt/new", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr) << err;
  ASSERT_EQ(vfs_->Close(f), 0);
  EXPECT_EQ(vfs_->lookup_dispatches(), base + 1);
  for (int flags : {kern::kOCreate, 0}) {
    f = vfs_->Open("/mnt/new", flags, &err);
    ASSERT_NE(f, nullptr) << err;
    ASSERT_EQ(vfs_->Close(f), 0);
  }
  EXPECT_EQ(vfs_->lookup_dispatches(), base + 1);
  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

TEST_P(VfsTest, StatfsCountsFilesAndBytes) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  ASSERT_EQ(WriteFile("/mnt/a", "aaaa", 4), 0);
  ASSERT_EQ(WriteFile("/mnt/b", "bb", 2), 0);
  kern::VfsStatFs sfs;
  ASSERT_EQ(vfs_->StatFs("/mnt", &sfs), 0);
  EXPECT_EQ(sfs.files, 2u);
  EXPECT_EQ(sfs.bytes, 6u);
  EXPECT_STREQ(sfs.fsname, "ramfs");
}

TEST_P(VfsTest, PrepopulatedMountSeedsKeepFile) {
  // Separate kernel: the prepopulating flavour exercises d_alloc.
  Bench bench(GetParam());
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  ASSERT_NE(bench.kernel->LoadModule(mods::RamfsModuleDef(/*prepopulate=*/true)), nullptr);
  ASSERT_NE(vfs->Mount("ramfs", "/seeded"), nullptr);
  kern::VfsStat st;
  EXPECT_EQ(vfs->Stat("/seeded/.keep", &st), 0);
  if (GetParam()) {
    EXPECT_EQ(bench.rt->violation_count(), 0u);
  }
}

TEST_P(VfsTest, OpenHandlesBlockUnlinkAndUnmount) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  int err = 0;
  kern::File* f = vfs_->Open("/mnt/held", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr);
  // The dentry and inode are referenced by the open File: both unlink and
  // unmount refuse instead of freeing under the handle.
  EXPECT_EQ(vfs_->Unlink("/mnt/held"), -kern::kEbusy);
  EXPECT_EQ(vfs_->Unmount("/mnt"), -kern::kEbusy);
  EXPECT_EQ(vfs_->Close(f), 0);
  EXPECT_EQ(vfs_->Unlink("/mnt/held"), 0);
  EXPECT_EQ(vfs_->Unmount("/mnt"), 0);
  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

TEST_P(VfsTest, HugeSeekWriteFailsInsteadOfWrapping) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  int err = 0;
  kern::File* f = vfs_->Open("/mnt/sparse", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr);
  // Far beyond the ramfs size cap: the write must fail cleanly (no wrap of
  // pos + n, no unbounded capacity-doubling loop).
  ASSERT_EQ(vfs_->Seek(f, 1ull << 62), 0);
  EXPECT_EQ(vfs_->Write(f, StageUser("x", 1), 1), -kern::kEnospc);
  ASSERT_EQ(vfs_->Seek(f, ~0ull), 0);
  EXPECT_EQ(vfs_->Write(f, StageUser("xy", 2), 2), -kern::kEnospc);
  // The file is still usable at sane offsets.
  ASSERT_EQ(vfs_->Seek(f, 0), 0);
  EXPECT_EQ(vfs_->Write(f, StageUser("ok", 2), 2), 2);
  EXPECT_EQ(vfs_->Close(f), 0);
}

TEST_P(VfsTest, UnmountReleasesEverything) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  ASSERT_EQ(WriteFile("/mnt/f0", "data", 4), 0);
  ASSERT_EQ(vfs_->Mkdir("/mnt/d"), 0);
  ASSERT_EQ(WriteFile("/mnt/d/f1", "more", 4), 0);
  EXPECT_EQ(vfs_->Unmount("/mnt"), 0);
  // A fresh mount at the same place starts empty.
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  kern::VfsStat st;
  EXPECT_EQ(vfs_->Stat("/mnt/f0", &st), -kern::kEnoent);
}

TEST_P(VfsTest, ZeroViolationsOnBenignWorkload) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  for (int i = 0; i < 32; ++i) {
    std::string path = "/mnt/f" + std::to_string(i);
    ASSERT_EQ(WriteFile(path.c_str(), path.data(), path.size()), 0);
    kern::VfsStat st;
    ASSERT_EQ(vfs_->Stat(path.c_str(), &st), 0);
    ASSERT_EQ(st.size, path.size());
  }
  for (int i = 0; i < 32; ++i) {
    std::string path = "/mnt/f" + std::to_string(i);
    ASSERT_EQ(vfs_->Unlink(path.c_str()), 0);
  }
  ASSERT_EQ(vfs_->Unmount("/mnt"), 0);
  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

TEST_P(VfsTest, SecondMissCostsZeroModuleDispatches) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  kern::VfsStat st;
  uint64_t base = vfs_->lookup_dispatches();
  EXPECT_EQ(vfs_->Stat("/mnt/nothere", &st), -kern::kEnoent);
  EXPECT_EQ(vfs_->lookup_dispatches(), base + 1);  // first miss dispatches
  uint64_t neg_hits = vfs_->dcache().negative_hits();
  EXPECT_EQ(vfs_->Stat("/mnt/nothere", &st), -kern::kEnoent);
  EXPECT_EQ(vfs_->Stat("/mnt/nothere", &st), -kern::kEnoent);
  // The repeats were answered by the cached negative dentry: zero further
  // module dispatches, two negative-cache hits.
  EXPECT_EQ(vfs_->lookup_dispatches(), base + 1);
  EXPECT_EQ(vfs_->dcache().negative_hits(), neg_hits + 2);
  if (GetParam()) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

TEST_P(VfsTest, CreateInvalidatesCachedNegative) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  kern::VfsStat st;
  ASSERT_EQ(vfs_->Stat("/mnt/f", &st), -kern::kEnoent);  // cache the negative
  ASSERT_EQ(WriteFile("/mnt/f", "data", 4), 0);          // displaces it
  ASSERT_EQ(vfs_->Stat("/mnt/f", &st), 0);
  EXPECT_EQ(st.size, 4u);
  // Same story for mkdir over a cached negative.
  ASSERT_EQ(vfs_->Stat("/mnt/d", &st), -kern::kEnoent);
  ASSERT_EQ(vfs_->Mkdir("/mnt/d"), 0);
  ASSERT_EQ(vfs_->Stat("/mnt/d", &st), 0);
  EXPECT_NE(st.mode & kern::kIfDir, 0u);
  // And unlinking brings the name back to (dispatching) miss behavior.
  ASSERT_EQ(vfs_->Unlink("/mnt/f"), 0);
  uint64_t base = vfs_->lookup_dispatches();
  EXPECT_EQ(vfs_->Stat("/mnt/f", &st), -kern::kEnoent);
  EXPECT_EQ(vfs_->lookup_dispatches(), base + 1);
}

TEST_P(VfsTest, DyingDirectoryRefusesNewEntriesAndWalks) {
  // Simulates the rmdir-in-flight window: once a directory is marked
  // dying, nothing may be linked into it (the rmdir's ENOTEMPTY check has
  // already run) and walkers treat it as gone.
  ASSERT_NE(mod_, nullptr);
  kern::SuperBlock* sb = vfs_->Mount("ramfs", "/mnt");
  ASSERT_NE(sb, nullptr);
  ASSERT_EQ(vfs_->Mkdir("/mnt/d"), 0);
  kern::Dentry* d = nullptr;
  for (kern::Dentry* c = sb->root->child; c != nullptr; c = c->sibling) {
    if (std::strcmp(c->name, "d") == 0) {
      d = c;
    }
  }
  ASSERT_NE(d, nullptr);
  kern::Dcache::SetDying(d, true);
  kern::VfsStat st;
  EXPECT_EQ(vfs_->Stat("/mnt/d", &st), -kern::kEnoent);
  EXPECT_EQ(vfs_->Stat("/mnt/d/x", &st), -kern::kEnoent);
  int err = 0;
  EXPECT_EQ(vfs_->Open("/mnt/d/f", kern::kOCreate, &err), nullptr);
  EXPECT_EQ(err, -kern::kEnoent);
  // The DInstantiate guard itself: a racing create that resolved the
  // directory before the dying mark must fail to link into it.
  kern::Dentry* child = vfs_->DAlloc(d, "f");
  ASSERT_NE(child, nullptr);
  kern::Inode* ino = vfs_->Iget(sb);
  ino->mode = kern::kIfReg;
  EXPECT_EQ(vfs_->DInstantiate(child, ino), -kern::kEnoent);
  vfs_->Iput(ino);
  kern::Dcache::SetDying(d, false);
  EXPECT_EQ(vfs_->Stat("/mnt/d", &st), 0);
  ASSERT_EQ(vfs_->Mkdir("/mnt/d/sub"), 0);
  EXPECT_EQ(vfs_->Rmdir("/mnt/d"), -kern::kEnotempty);
  EXPECT_EQ(vfs_->Rmdir("/mnt/d/sub"), 0);
  EXPECT_EQ(vfs_->Rmdir("/mnt/d"), 0);
}

TEST_P(VfsTest, NegativeDentryCacheIsBounded) {
  ASSERT_NE(mod_, nullptr);
  ASSERT_NE(vfs_->Mount("ramfs", "/mnt"), nullptr);
  kern::VfsStat st;
  constexpr int kProbes = 40;  // > kMaxNegativePerDir
  for (int i = 0; i < kProbes; ++i) {
    std::string path = "/mnt/m" + std::to_string(i);
    ASSERT_EQ(vfs_->Stat(path.c_str(), &st), -kern::kEnoent);
  }
  EXPECT_EQ(vfs_->SuperAt("/mnt")->root->neg_children, kern::Dcache::kMaxNegativePerDir);
  // Second pass: the first kMaxNegativePerDir misses are free, the rest
  // dispatch again (bounded cache, not unbounded growth).
  uint64_t base = vfs_->lookup_dispatches();
  for (int i = 0; i < kProbes; ++i) {
    std::string path = "/mnt/m" + std::to_string(i);
    ASSERT_EQ(vfs_->Stat(path.c_str(), &st), -kern::kEnoent);
  }
  EXPECT_EQ(vfs_->lookup_dispatches(),
            base + (kProbes - kern::Dcache::kMaxNegativePerDir));
}

INSTANTIATE_TEST_SUITE_P(StockAndLxfi, VfsTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Lxfi" : "Stock";
                         });

TEST(VfsPrincipals, EachMountIsItsOwnPrincipal) {
  Bench bench(/*isolated=*/true);
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  kern::Module* mod = bench.kernel->LoadModule(mods::RamfsModuleDef());
  ASSERT_NE(mod, nullptr);
  kern::SuperBlock* sba = vfs->Mount("ramfs", "/a");
  kern::SuperBlock* sbb = vfs->Mount("ramfs", "/b");
  ASSERT_NE(sba, nullptr);
  ASSERT_NE(sbb, nullptr);

  lxfi::ModuleCtx* mc = bench.rt->CtxOf(mod);
  lxfi::Principal* pa = mc->Lookup(reinterpret_cast<uintptr_t>(sba));
  lxfi::Principal* pb = mc->Lookup(reinterpret_cast<uintptr_t>(sbb));
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_NE(pa, pb);
  // Each principal holds WRITE over its own superblock's fillable fields
  // (s_op/s_fs_info), not the other's — and never over the kernel-managed
  // fields (type/root/next_ino) of either.
  EXPECT_TRUE(bench.rt->Owns(pa, lxfi::Capability::Write(&sba->s_op, 2 * sizeof(void*))));
  EXPECT_FALSE(bench.rt->Owns(pa, lxfi::Capability::Write(&sbb->s_op, 2 * sizeof(void*))));
  EXPECT_TRUE(bench.rt->Owns(pb, lxfi::Capability::Write(&sbb->s_op, 2 * sizeof(void*))));
  EXPECT_FALSE(bench.rt->Owns(pa, lxfi::Capability::Write(&sba->root, sizeof(void*))));
  EXPECT_FALSE(bench.rt->Owns(pa, lxfi::Capability::Write(&sba->type, sizeof(void*))));
  // Inodes alias onto the mount principal: a file created under /a is
  // owned by pa.
  int err = 0;
  kern::File* f = vfs->Open("/a/file", kern::kOCreate, &err);
  ASSERT_NE(f, nullptr);
  lxfi::Principal* pf = mc->Lookup(reinterpret_cast<uintptr_t>(f->inode));
  EXPECT_EQ(pf, pa);
  EXPECT_TRUE(bench.rt->Owns(pa, lxfi::Capability::Write(f->inode, sizeof(kern::Inode))));
  EXPECT_FALSE(bench.rt->Owns(pb, lxfi::Capability::Write(f->inode, sizeof(kern::Inode))));
  EXPECT_EQ(vfs->Close(f), 0);
  EXPECT_EQ(bench.rt->violation_count(), 0u);
}

TEST(VfsRegistration, FilesystemRegistrationCapabilityFlow) {
  Bench bench(/*isolated=*/true);
  kern::Vfs* vfs = kern::GetVfs(bench.kernel.get());
  kern::Module* mod = bench.kernel->LoadModule(mods::RamfsModuleDef());
  ASSERT_NE(mod, nullptr);
  auto st = mods::GetRamfs(*mod);
  ASSERT_NE(st, nullptr);
  lxfi::Principal* shared = bench.rt->CtxOf(mod)->shared();
  // While registered the module holds the REF ticket (and, since the fstype
  // sits in its .data section, WRITE over the struct — dispatch integrity
  // comes from the indirect-call annotation-hash check, as for proto_ops).
  EXPECT_TRUE(bench.rt->Owns(
      shared, lxfi::Capability::Ref("file_system_type", st->fstype)));
  // Unregister while mounted refuses and restores the ticket. Run under the
  // module's principal so the wrapped import's annotations execute.
  ASSERT_NE(vfs->Mount("ramfs", "/m"), nullptr);
  {
    lxfi::ScopedPrincipal as_module(bench.rt.get(), shared);
    EXPECT_EQ(st->api.unregister_filesystem(st->fstype), -kern::kEbusy);
  }
  EXPECT_TRUE(bench.rt->Owns(
      shared, lxfi::Capability::Ref("file_system_type", st->fstype)));
  ASSERT_EQ(vfs->Unmount("/m"), 0);
  EXPECT_EQ(bench.rt->violation_count(), 0u);
}

}  // namespace
