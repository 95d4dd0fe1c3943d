// Device-mapper module tests: dm-zero, dm-crypt, dm-snapshot semantics and
// per-device principal isolation, on stock and isolated kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <vector>

#include "src/kernel/block/block.h"
#include "src/kernel/kernel.h"
#include "src/kernel/smp.h"
#include "src/lxfi/kernel_api.h"
#include "src/lxfi/runtime.h"
#include "src/modules/dm/dm_modules.h"
#include "tests/testbench.h"

namespace {

using lxfitest::Bench;

class DmTest : public ::testing::TestWithParam<bool> {
 protected:
  DmTest() : bench_(GetParam()) {
    block_ = kern::GetBlockLayer(bench_.kernel.get());
    origin_ = block_->CreateRamDisk("disk0", 64);
    cow_ = block_->CreateRamDisk("cowdev0", 64);
  }

  int Io(kern::BlockDevice* dev, uint64_t sector, uint8_t* buf, uint32_t size, bool write) {
    kern::Bio bio;
    bio.sector = sector;
    bio.size = size;
    bio.data = buf;
    bio.write = write;
    return block_->SubmitBio(dev, &bio);
  }

  Bench bench_;
  kern::BlockLayer* block_ = nullptr;
  kern::BlockDevice* origin_ = nullptr;
  kern::BlockDevice* cow_ = nullptr;
};

TEST_P(DmTest, RamDiskReadWrite) {
  uint8_t out[512];
  std::memset(out, 0x42, sizeof(out));
  EXPECT_EQ(Io(origin_, 3, out, sizeof(out), true), 0);
  uint8_t in[512] = {};
  EXPECT_EQ(Io(origin_, 3, in, sizeof(in), false), 0);
  EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);
}

TEST_P(DmTest, RamDiskRejectsOutOfRange) {
  uint8_t buf[512];
  EXPECT_NE(Io(origin_, 64, buf, sizeof(buf), true), 0);
}

TEST_P(DmTest, DmZeroReadsZerosAndSwallowsWrites) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmZeroModuleDef()), nullptr);
  kern::BlockDevice* zero = block_->DmCreate("zero0", "zero", origin_, "");
  ASSERT_NE(zero, nullptr);
  uint8_t buf[512];
  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(Io(zero, 0, buf, sizeof(buf), true), 0);  // write discarded
  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(Io(zero, 0, buf, sizeof(buf), false), 0);
  for (size_t i = 0; i < sizeof(buf); ++i) {
    ASSERT_EQ(buf[i], 0) << "byte " << i;
  }
  // The origin was never touched.
  uint8_t origin_data[512];
  EXPECT_EQ(Io(origin_, 0, origin_data, sizeof(origin_data), false), 0);
  EXPECT_EQ(origin_data[0], 0);
}

TEST_P(DmTest, DmCryptRoundtripAndCiphertextOnDisk) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmCryptModuleDef()), nullptr);
  kern::BlockDevice* crypt = block_->DmCreate("crypt0", "crypt", origin_, "secretkey");
  ASSERT_NE(crypt, nullptr);
  uint8_t plain[1024];
  for (size_t i = 0; i < sizeof(plain); ++i) {
    plain[i] = static_cast<uint8_t>(i);
  }
  uint8_t buf[1024];
  std::memcpy(buf, plain, sizeof(buf));
  EXPECT_EQ(Io(crypt, 8, buf, sizeof(buf), true), 0);

  // On-disk bytes must differ from the plaintext (it is "encrypted").
  uint8_t disk[1024];
  EXPECT_EQ(Io(origin_, 8, disk, sizeof(disk), false), 0);
  EXPECT_NE(std::memcmp(disk, plain, sizeof(disk)), 0);

  // Reading back through the crypt device restores the plaintext.
  uint8_t back[1024] = {};
  EXPECT_EQ(Io(crypt, 8, back, sizeof(back), false), 0);
  EXPECT_EQ(std::memcmp(back, plain, sizeof(back)), 0);
}

// dm-crypt tweaks its keystream per sector (plain64-style IV), so the bio
// boundaries a sector was written with do not matter: one 1024 B write reads
// back as two 512 B reads, two 512 B writes read back as one 1024 B read,
// and both write shapes leave the same ciphertext on the disk.
TEST_P(DmTest, DmCryptMultiSectorBioMatchesPerSectorBios) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmCryptModuleDef()), nullptr);
  kern::BlockDevice* crypt = block_->DmCreate("crypt0", "crypt", origin_, "secretkey");
  ASSERT_NE(crypt, nullptr);
  uint8_t plain[1024];
  for (size_t i = 0; i < sizeof(plain); ++i) {
    plain[i] = static_cast<uint8_t>(i * 7 + 3);
  }

  // One 1024 B bio at sector 8, read back one sector at a time.
  uint8_t buf[1024];
  std::memcpy(buf, plain, sizeof(buf));
  ASSERT_EQ(Io(crypt, 8, buf, sizeof(buf), true), 0);
  uint8_t half[512];
  ASSERT_EQ(Io(crypt, 8, half, sizeof(half), false), 0);
  EXPECT_EQ(std::memcmp(half, plain, sizeof(half)), 0) << "sector 8 alone";
  ASSERT_EQ(Io(crypt, 9, half, sizeof(half), false), 0);
  EXPECT_EQ(std::memcmp(half, plain + 512, sizeof(half)), 0) << "sector 9 alone";
  uint8_t whole_bio_cipher[1024];
  ASSERT_EQ(Io(origin_, 8, whole_bio_cipher, sizeof(whole_bio_cipher), false), 0);

  // Two 512 B bios at sectors 16 and 17, read back as one 1024 B bio.
  std::memcpy(buf, plain, sizeof(buf));
  ASSERT_EQ(Io(crypt, 16, buf, 512, true), 0);
  ASSERT_EQ(Io(crypt, 17, buf + 512, 512, true), 0);
  uint8_t back[1024] = {};
  ASSERT_EQ(Io(crypt, 16, back, sizeof(back), false), 0);
  EXPECT_EQ(std::memcmp(back, plain, sizeof(back)), 0) << "sectors 16-17 as one bio";

  // Same plaintext at the same sectors: same ciphertext, whatever the shape.
  std::memcpy(buf, plain, sizeof(buf));
  ASSERT_EQ(Io(crypt, 8, buf, 512, true), 0);
  ASSERT_EQ(Io(crypt, 9, buf + 512, 512, true), 0);
  uint8_t per_sector_cipher[1024];
  ASSERT_EQ(Io(origin_, 8, per_sector_cipher, sizeof(per_sector_cipher), false), 0);
  EXPECT_EQ(std::memcmp(per_sector_cipher, whole_bio_cipher, sizeof(per_sector_cipher)), 0);
  EXPECT_NE(std::memcmp(per_sector_cipher, plain, sizeof(plain)), 0);
  if (bench_.rt != nullptr) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

// A bio longer than the biggest slab size class (17 sectors here) goes
// through the target's page-granular bounces as a 16-sector and a 1-sector
// piece. It reads back in any shape, leaves the same ciphertext as
// per-sector writes, and allocates no new slab pages: crypt_ctr allocated
// every bounce before the first bio.
TEST_P(DmTest, DmCryptLargeBioReusesSlabPages) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmCryptModuleDef()), nullptr);
  kern::BlockDevice* crypt = block_->DmCreate("crypt0", "crypt", origin_, "secretkey");
  ASSERT_NE(crypt, nullptr);
  constexpr uint32_t kSectors = 17;
  constexpr uint32_t kBytes = kSectors * kern::kSectorSize;
  std::vector<uint8_t> plain(kBytes);
  for (size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  std::vector<uint8_t> buf = plain;
  ASSERT_EQ(Io(crypt, 3, buf.data(), kBytes, true), 0);
  const size_t pages = bench_.kernel->slab().pages_allocated();
  for (int round = 0; round < 20; ++round) {
    ASSERT_EQ(Io(crypt, 3, buf.data(), kBytes, true), 0);
    ASSERT_EQ(Io(crypt, 3, buf.data(), kBytes, false), 0);
  }
  EXPECT_EQ(bench_.kernel->slab().pages_allocated(), pages);
  EXPECT_EQ(buf, plain);
  std::vector<uint8_t> whole_bio_cipher(kBytes);
  ASSERT_EQ(Io(origin_, 3, whole_bio_cipher.data(), kBytes, false), 0);

  uint8_t one[kern::kSectorSize];
  for (uint32_t s = 0; s < kSectors; ++s) {
    ASSERT_EQ(Io(crypt, 3 + s, one, sizeof(one), false), 0);
    EXPECT_EQ(std::memcmp(one, plain.data() + s * kern::kSectorSize, sizeof(one)), 0)
        << "sector " << 3 + s << " alone";
    std::memcpy(one, plain.data() + s * kern::kSectorSize, sizeof(one));
    ASSERT_EQ(Io(crypt, 3 + s, one, sizeof(one), true), 0);
  }
  std::vector<uint8_t> per_sector_cipher(kBytes);
  ASSERT_EQ(Io(origin_, 3, per_sector_cipher.data(), kBytes, false), 0);
  EXPECT_EQ(per_sector_cipher, whole_bio_cipher);
  if (bench_.rt != nullptr) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

// crypt_map guards each payload with one ranged check, so a bio's store
// guards do not grow with its size: a 1024 B bio adds exactly as many
// kMemWrite guards as a 512 B bio, on the write path (encrypt into the
// bounce buffer) and on the read path (decrypt into bio->data).
TEST_P(DmTest, DmCryptStoreGuardsDoNotGrowWithPayload) {
  if (bench_.rt == nullptr) {
    GTEST_SKIP() << "guard counts exist only under LXFI";
  }
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmCryptModuleDef()), nullptr);
  kern::BlockDevice* crypt = block_->DmCreate("crypt0", "crypt", origin_, "secretkey");
  ASSERT_NE(crypt, nullptr);
  uint8_t buf[1024];
  std::memset(buf, 0x5a, sizeof(buf));
  auto guards_for = [&](uint32_t size, bool write) {
    uint64_t before = bench_.rt->guards().count(lxfi::GuardType::kMemWrite);
    EXPECT_EQ(Io(crypt, 16, buf, size, write), 0);
    return bench_.rt->guards().count(lxfi::GuardType::kMemWrite) - before;
  };
  uint64_t write_512 = guards_for(512, true);
  uint64_t write_1024 = guards_for(1024, true);
  uint64_t read_512 = guards_for(512, false);
  uint64_t read_1024 = guards_for(1024, false);
  EXPECT_GT(write_512, 0u);
  EXPECT_EQ(write_1024, write_512);
  EXPECT_GT(read_512, 0u);
  EXPECT_EQ(read_1024, read_512);
}

// Three CPUs write disjoint sector ranges through one crypt target, in bios
// of 1 to 16 sectors, so their writes interleave on the target's shared
// sub-bio and bounces. Each CPU reads its range back after every round, and
// the final ciphertext equals what a single CPU writes through a second
// target with the same key.
TEST_P(DmTest, DmCryptThreeCpusShareOneTarget) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmCryptModuleDef()), nullptr);
  kern::BlockDevice* disk2 = block_->CreateRamDisk("disk2", 64);
  kern::BlockDevice* crypt = block_->DmCreate("crypt0", "crypt", origin_, "secretkey");
  kern::BlockDevice* solo = block_->DmCreate("crypt1", "crypt", disk2, "secretkey");
  ASSERT_NE(crypt, nullptr);
  ASSERT_NE(solo, nullptr);
  constexpr int kCpus = 3;
  constexpr uint32_t kSectors = 16;  // per CPU: sectors [16 w, 16 w + 16)
  constexpr uint32_t kBytes = kSectors * kern::kSectorSize;
  constexpr int kRounds = 60;
  auto pattern = [](int w, int round, uint32_t i) {
    return static_cast<uint8_t>(i * 7 + static_cast<uint32_t>(w * 31 + round * 13));
  };
  std::atomic<int> errors{0};
  {
    kern::CpuSet cpus(bench_.kernel.get(), kCpus);
    for (int w = 0; w < kCpus; ++w) {
      cpus.RunOn(w, [&, w] {
        const uint64_t base = static_cast<uint64_t>(w) * kSectors;
        std::vector<uint8_t> plain(kBytes);
        std::vector<uint8_t> buf(kBytes);
        uint64_t lcg = 0x9e37 + static_cast<uint64_t>(w);
        for (int round = 0; round < kRounds; ++round) {
          for (uint32_t i = 0; i < kBytes; ++i) {
            plain[i] = pattern(w, round, i);
          }
          buf = plain;
          for (uint32_t done = 0; done < kSectors;) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            uint32_t n = 1 + static_cast<uint32_t>(lcg >> 33) % (kSectors - done);
            if (Io(crypt, base + done, buf.data() + done * kern::kSectorSize,
                   n * kern::kSectorSize, true) != 0) {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
            done += n;
          }
          std::vector<uint8_t> back(kBytes);
          if (Io(crypt, base, back.data(), kBytes, false) != 0 || back != plain) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          kern::CpuSet::QuiescePoint();
        }
      });
    }
    cpus.Barrier();
  }
  EXPECT_EQ(errors.load(), 0);
  std::vector<uint8_t> buf(kCpus * kBytes);
  for (int w = 0; w < kCpus; ++w) {
    for (uint32_t i = 0; i < kBytes; ++i) {
      buf[w * kBytes + i] = pattern(w, kRounds - 1, i);
    }
  }
  ASSERT_EQ(Io(solo, 0, buf.data(), kCpus * kBytes, true), 0);
  std::vector<uint8_t> shared_cipher(kCpus * kBytes);
  std::vector<uint8_t> solo_cipher(kCpus * kBytes);
  ASSERT_EQ(Io(origin_, 0, shared_cipher.data(), kCpus * kBytes, false), 0);
  ASSERT_EQ(Io(disk2, 0, solo_cipher.data(), kCpus * kBytes, false), 0);
  EXPECT_EQ(shared_cipher, solo_cipher);
  if (bench_.rt != nullptr) {
    EXPECT_EQ(bench_.rt->violation_count(), 0u);
  }
}

TEST_P(DmTest, DmCryptDifferentKeysDifferentCiphertext) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmCryptModuleDef()), nullptr);
  kern::BlockDevice* disk2 = block_->CreateRamDisk("disk2", 64);
  kern::BlockDevice* a = block_->DmCreate("ca", "crypt", origin_, "keyA");
  kern::BlockDevice* b = block_->DmCreate("cb", "crypt", disk2, "keyB");
  uint8_t data[512] = {1, 2, 3, 4};
  uint8_t buf[512];
  std::memcpy(buf, data, sizeof(buf));
  Io(a, 0, buf, sizeof(buf), true);
  std::memcpy(buf, data, sizeof(buf));
  Io(b, 0, buf, sizeof(buf), true);
  uint8_t da[512], db[512];
  Io(origin_, 0, da, sizeof(da), false);
  Io(disk2, 0, db, sizeof(db), false);
  EXPECT_NE(std::memcmp(da, db, sizeof(da)), 0);
}

TEST_P(DmTest, DmSnapshotCopiesBeforeWrite) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmSnapshotModuleDef()), nullptr);
  // Seed the origin.
  uint8_t seed[512];
  std::memset(seed, 0xaa, sizeof(seed));
  Io(origin_, 0, seed, sizeof(seed), true);

  kern::BlockDevice* snap = block_->DmCreate("snap0", "snapshot", origin_, "cowdev0");
  ASSERT_NE(snap, nullptr);

  // First write to chunk 0 triggers the copy-on-write.
  uint8_t update[512];
  std::memset(update, 0xbb, sizeof(update));
  EXPECT_EQ(Io(snap, 0, update, sizeof(update), true), 0);

  // The COW device preserved the original bytes.
  uint8_t cow_data[512];
  EXPECT_EQ(Io(cow_, 0, cow_data, sizeof(cow_data), false), 0);
  EXPECT_EQ(cow_data[0], 0xaa);
  // The origin carries the new data (the target remaps writes to it).
  uint8_t origin_data[512];
  EXPECT_EQ(Io(origin_, 0, origin_data, sizeof(origin_data), false), 0);
  EXPECT_EQ(origin_data[0], 0xbb);

  // A second write to the same chunk does not re-copy.
  kern::DmTarget* target = block_->TargetOf(snap);
  auto* priv = static_cast<mods::DmSnapshotTarget*>(target->private_data);
  uint64_t copies = priv->cow_copies;
  EXPECT_EQ(Io(snap, 0, update, sizeof(update), true), 0);
  EXPECT_EQ(priv->cow_copies, copies);
}

TEST_P(DmTest, DmSnapshotUnknownCowDeviceFailsCtr) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmSnapshotModuleDef()), nullptr);
  EXPECT_EQ(block_->DmCreate("snapX", "snapshot", origin_, "no-such-device"), nullptr);
}

TEST_P(DmTest, DmRemoveRunsDtr) {
  ASSERT_NE(bench_.kernel->LoadModule(mods::DmCryptModuleDef()), nullptr);
  kern::BlockDevice* crypt = block_->DmCreate("crypt0", "crypt", origin_, "k");
  ASSERT_NE(crypt, nullptr);
  block_->DmRemove(crypt);
  EXPECT_EQ(block_->FindDevice("crypt0"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(StockAndLxfi, DmTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Lxfi" : "Stock";
                         });

// DmCreate runs no dtr after a failed ctr, so crypt_ctr must free what it
// allocated before the allocation that failed. The heap is filled to the
// last object, then one object is freed in each size class the block core
// and crypt_ctr need up to the 2 KiB bounce, but none for the 4 KiB one:
// ctr fails halfway through its bounce set and the heap must hold exactly
// as many live objects as before DmCreate.
TEST(DmCryptCtr, FailureFreesThePartialBounceSet) {
  kern::Kernel kernel(4ull << 20);
  lxfi::Runtime rt(&kernel);
  lxfi::InstallKernelApi(&kernel, &rt);
  kern::BlockLayer* block = kern::GetBlockLayer(&kernel);
  kern::BlockDevice* disk = block->CreateRamDisk("disk0", 64);
  ASSERT_NE(kernel.LoadModule(mods::DmCryptModuleDef()), nullptr);

  kern::SlabAllocator& slab = kernel.slab();
  // One object of every slab class and bounce size first, so each has a
  // page or run to free into; then the rest of the heap, largest first.
  std::vector<size_t> sizes(kern::SlabAllocator::kClassSizes.begin(),
                            kern::SlabAllocator::kClassSizes.end());
  sizes.insert(sizes.end(), {size_t{8} << 10, size_t{16} << 10, size_t{32} << 10});
  std::map<size_t, std::vector<void*>> fill;
  for (size_t size : sizes) {
    fill[size].push_back(slab.Alloc(size));
    ASSERT_NE(fill[size].back(), nullptr);
  }
  for (auto size = sizes.rbegin(); size != sizes.rend(); ++size) {
    while (void* p = slab.Alloc(*size)) {
      fill[*size].push_back(p);
    }
  }
  // Frees one object of the class that serves `need` bytes.
  auto free_one_for = [&](size_t need) {
    size_t size = *std::lower_bound(sizes.begin(), sizes.end(), need);
    slab.Free(fill[size].back());
    fill[size].pop_back();
  };
  for (size_t need : {sizeof(kern::BlockDevice), sizeof(kern::DmTarget),
                      sizeof(mods::DmCryptTarget), sizeof(kern::Bio), size_t{512}, size_t{1024},
                      size_t{2048}}) {
    free_one_for(need);
  }
  const size_t live = slab.live_objects();
  EXPECT_EQ(block->DmCreate("crypt0", "crypt", disk, "k"), nullptr);
  EXPECT_EQ(slab.live_objects(), live) << "crypt_ctr leaked part of its bounce set";
  EXPECT_EQ(rt.violation_count(), 0u);

  for (auto& [size, objs] : fill) {
    for (void* p : objs) {
      slab.Free(p);
    }
  }
  EXPECT_NE(block->DmCreate("crypt0", "crypt", disk, "k"), nullptr) << "the heap was too small";
}

// --- per-device principal isolation (the §2.1 scenario) ------------------------

TEST(DmPrincipals, TargetsAreSeparatePrincipalsWithDisjointRefs) {
  Bench bench(/*isolated=*/true);
  kern::BlockLayer* block = kern::GetBlockLayer(bench.kernel.get());
  kern::BlockDevice* sys = block->CreateRamDisk("sda", 64);
  kern::BlockDevice* usb = block->CreateRamDisk("sdb", 64);
  kern::Module* m = bench.kernel->LoadModule(mods::DmCryptModuleDef());
  ASSERT_NE(m, nullptr);
  kern::BlockDevice* csys = block->DmCreate("crypt-sys", "crypt", sys, "k1");
  kern::BlockDevice* cusb = block->DmCreate("crypt-usb", "crypt", usb, "k2");
  ASSERT_NE(csys, nullptr);
  ASSERT_NE(cusb, nullptr);

  lxfi::ModuleCtx* ctx = bench.rt->CtxOf(m);
  auto principal_of = [&](kern::BlockDevice* dev) {
    return ctx->Lookup(reinterpret_cast<uintptr_t>(block->TargetOf(dev)));
  };
  lxfi::Principal* psys = principal_of(csys);
  lxfi::Principal* pusb = principal_of(cusb);
  ASSERT_NE(psys, nullptr);
  ASSERT_NE(pusb, nullptr);
  EXPECT_NE(psys, pusb);
  EXPECT_TRUE(bench.rt->Owns(pusb, lxfi::Capability::Ref("block_device", usb)));
  EXPECT_FALSE(bench.rt->Owns(pusb, lxfi::Capability::Ref("block_device", sys)))
      << "the USB mapping must not be able to name the system disk";
}

TEST(DmPrincipals, SnapshotGetsRefOnlyForItsCow) {
  Bench bench(/*isolated=*/true);
  kern::BlockLayer* block = kern::GetBlockLayer(bench.kernel.get());
  kern::BlockDevice* origin = block->CreateRamDisk("o", 64);
  kern::BlockDevice* cow1 = block->CreateRamDisk("cow1", 64);
  kern::BlockDevice* cow2 = block->CreateRamDisk("cow2", 64);
  kern::Module* m = bench.kernel->LoadModule(mods::DmSnapshotModuleDef());
  kern::BlockDevice* snap = block->DmCreate("s1", "snapshot", origin, "cow1");
  ASSERT_NE(snap, nullptr);
  lxfi::Principal* p = bench.rt->CtxOf(m)->Lookup(
      reinterpret_cast<uintptr_t>(block->TargetOf(snap)));
  EXPECT_TRUE(bench.rt->Owns(p, lxfi::Capability::Ref("block_device", cow1)));
  EXPECT_FALSE(bench.rt->Owns(p, lxfi::Capability::Ref("block_device", cow2)));
}

}  // namespace
