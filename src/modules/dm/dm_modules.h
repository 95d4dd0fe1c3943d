// Device-mapper target modules: dm-crypt, dm-zero, dm-snapshot.
//
// Each mapped device is one LXFI principal (the paper's §2.1 scenario: a
// compromise through a malicious USB disk must not reach the system disk
// mapped by the same module). Targets receive bios through the annotated
// target_type::map indirect call and reach underlying devices only through
// REF capabilities granted per target instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/base/sync.h"
#include "src/kernel/block/block.h"
#include "src/kernel/kernel.h"

namespace mods {

// Common bound imports for the dm modules.
struct DmImports {
  kern::ImportFn<kern::kKmalloc> kmalloc;
  kern::ImportFn<kern::kKfree> kfree;
  kern::ImportFn<kern::kDmRegisterTarget> dm_register_target;
  kern::ImportFn<kern::kDmUnregisterTarget> dm_unregister_target;
  kern::ImportFn<kern::kSubmitBio> submit_bio;
  kern::ImportFn<kern::kDmGetDevice> dm_get_device;
  kern::ImportFn<kern::kPrintk> printk;
};

// --- dm-crypt ---------------------------------------------------------------
// XOR-keystream "encryption": not cryptography, but it exercises exactly the
// data paths the real dm-crypt does (bounce buffers, in-place transforms,
// nested submit_bio), which is what the isolation evaluation needs.
//
// Each target owns its I/O buffers for its whole life, like Linux dm-crypt's
// per-target mempool and bio_set: crypt_ctr allocates one sub-bio and one
// bounce of each power-of-two size from 1 to 64 sectors, and crypt_dtr
// frees them, so crypt_map allocates nothing. A write goes down as pieces,
// each filling one whole bounce, so every range submit_bio transfers is
// exactly one kmalloc grant and its post-transfer hands back exactly what
// the pre-transfer revoked. A read needs no bounce: the sub-bio points at
// the caller's payload, which is decrypted in place.
inline constexpr int kCryptBounces = 7;

struct DmCryptTarget {
  uint8_t key = 0;
  uint64_t ios = 0;
  // Serializes crypt_map's use of sub and bounce. It is per target, not per
  // module: crypt stacked on crypt runs two targets of this module on one
  // call path, and a module-wide lock held across submit_bio would wait on
  // itself. A host lock word in the target's own allocation, so taking it
  // costs no crossing.
  lxfi::Spinlock lock;
  kern::Bio* sub = nullptr;
  uint8_t* bounce[kCryptBounces] = {};  // bounce[b] holds 2^b sectors
};

struct DmCryptState {
  kern::Module* m = nullptr;
  DmImports api;
  kern::DmTargetType* type = nullptr;  // in module .data
};

kern::ModuleDef DmCryptModuleDef();
std::shared_ptr<DmCryptState> GetDmCrypt(kern::Module& m);

// Keystream byte `i` of a bio that starts at `sector` (sector-tweaked XOR).
// Byte i lies in sector + i / kSectorSize at offset i % kSectorSize, and the
// tweak is per sector, like dm-crypt's plain64 IV: a sector encrypts the
// same whether it travels alone or inside a multi-sector bio, so data
// written in one bio shape can be read back in another.
inline uint8_t CryptKeystream(uint8_t key, uint64_t sector, size_t i) {
  return static_cast<uint8_t>(key ^ ((sector + i / kern::kSectorSize) * 131) ^
                              ((i % kern::kSectorSize) * 17));
}

// crypt_map's payload transform, as module `m`: dst[i] = src[i] ^
// CryptKeystream(key, sector, i) for i < n, under one ranged store guard
// over dst (lxfi::StoreEach). dst may equal src (in-place).
void CryptXorTransform(kern::Module& m, uint8_t* dst, const uint8_t* src, uint32_t n,
                       uint8_t key, uint64_t sector);

// --- dm-zero -----------------------------------------------------------------
struct DmZeroState {
  kern::Module* m = nullptr;
  DmImports api;
  kern::DmTargetType* type = nullptr;
};

kern::ModuleDef DmZeroModuleDef();
std::shared_ptr<DmZeroState> GetDmZero(kern::Module& m);

// --- dm-snapshot ---------------------------------------------------------------
// Copy-on-write: before the first write to a chunk, the original chunk is
// copied to the COW device named in the constructor params.
inline constexpr uint64_t kSnapChunkSectors = 8;

struct DmSnapshotTarget {
  kern::BlockDevice* cow = nullptr;
  uint8_t* copied_bitmap = nullptr;  // one byte per chunk
  uint64_t chunks = 0;
  uint64_t cow_copies = 0;
};

struct DmSnapshotState {
  kern::Module* m = nullptr;
  DmImports api;
  kern::DmTargetType* type = nullptr;
};

kern::ModuleDef DmSnapshotModuleDef();
std::shared_ptr<DmSnapshotState> GetDmSnapshot(kern::Module& m);

}  // namespace mods
