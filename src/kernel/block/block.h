// Block layer and device-mapper core.
//
// Provides what the dm-crypt / dm-zero / dm-snapshot modules need: bios,
// block devices (RAM-backed), and a device-mapper core that dispatches bios
// to module-provided target `map` functions through checked indirect calls.
// Each mapped device is one LXFI principal in the annotated modules, which
// is how a compromise through one USB disk cannot touch the system disk
// (§2.1's dm-crypt scenario). A device carries its own dm target, write log
// and page-cache index, so a bio finds its target with one load.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/sync.h"
#include "src/kernel/types.h"

namespace kern {

class Kernel;
class Module;
struct CachedPage;
struct DmTarget;

inline constexpr size_t kSectorSize = 512;

struct Bio {
  uint64_t sector = 0;
  uint32_t size = 0;  // bytes, multiple of kSectorSize
  uint8_t* data = nullptr;
  bool write = false;
  int status = 0;
  // Completion callback (module- or kernel-provided).
  uintptr_t end_io = 0;
  void* bi_private = nullptr;
};
inline constexpr FnPtrType<void(Bio*)> kBioEndIo{"bio_end_io_t"};

// dm target map() outcomes (include/linux/device-mapper.h).
inline constexpr int kDmMapioSubmitted = 0;
inline constexpr int kDmMapioRemapped = 1;
inline constexpr int kDmMapioKill = 2;

// One completed sector-granular write, as recorded by the write log: the
// crash-consistency harness replays prefixes of this sequence to model a
// power cut at every write boundary.
struct BlockWrite {
  uint64_t sector = 0;
  std::vector<uint8_t> data;
};

// Per-device block state hangs off the device itself, the way Linux hangs a
// bdev's page mapping and dm table off it: no layer keeps a side map keyed
// by BlockDevice*.
struct BlockDevice {
  char name[24] = {};
  uint64_t sectors = 0;
  uint8_t* backing = nullptr;  // RAM disk storage (kernel-owned), null for dm
  DmTarget* target = nullptr;  // the mapping target of a dm device, null for a RAM disk
  std::vector<BlockWrite>* write_log = nullptr;  // see BlockLayer::SetWriteLog
  // Page cache index (src/kernel/fs/pagecache.h): `sectors` slots in host
  // memory the cache owns, allocated on the first cached access and
  // published with a release store; `page_lock` serializes its fills.
  CachedPage** pages = nullptr;
  lxfi::Spinlock page_lock;
  uint64_t reads = 0;   // completed bios; atomic: CPUs fill pages concurrently
  uint64_t writes = 0;
};

// Module-provided target type (module memory).
struct DmTargetType {
  const char* name = nullptr;
  uintptr_t ctr = 0;
  uintptr_t dtr = 0;
  uintptr_t map = 0;
  Module* module = nullptr;
};
inline constexpr FnPtrType<int(DmTarget*, const char* params)> kDmCtr{"target_type::ctr"};
inline constexpr FnPtrType<void(DmTarget*)> kDmDtr{"target_type::dtr"};
inline constexpr FnPtrType<int(DmTarget*, Bio*)> kDmMap{"target_type::map"};

struct DmTarget {
  DmTargetType* type = nullptr;
  void* private_data = nullptr;     // module state for this target instance
  BlockDevice* underlying = nullptr;  // device the target maps onto
  BlockDevice* dm_dev = nullptr;      // the virtual device exposing the target
};

class BlockLayer {
 public:
  explicit BlockLayer(Kernel* kernel) : kernel_(kernel) {}

  // Creates a RAM-backed disk.
  BlockDevice* CreateRamDisk(const std::string& name, uint64_t sectors);

  // Issues a bio directly to a RAM disk (or a dm device; see MapBio).
  int SubmitBio(BlockDevice* dev, Bio* bio);

  // --- device-mapper ------------------------------------------------------
  int RegisterTargetType(DmTargetType* type);
  void UnregisterTargetType(DmTargetType* type);

  // dmsetup create: builds a virtual device with one target of `type_name`
  // mapping onto `underlying`, running the module's ctr.
  BlockDevice* DmCreate(const std::string& name, const std::string& type_name,
                        BlockDevice* underlying, const std::string& params);
  void DmRemove(BlockDevice* dm_dev);

  // The target mapping `dm_dev` (null for a RAM disk).
  DmTarget* TargetOf(BlockDevice* dm_dev);

  // dm_get_device: looks a registered device up by name (nullptr if absent).
  BlockDevice* FindDevice(const std::string& name) const;

  // Attaches a write log to a RAM-backed device: every write RamIo completes
  // is appended to `log` (caller-owned) in completion order. Null detaches.
  // Sector-granular so a prefix of the log is exactly "the device lost power
  // after its Nth durable sector write".
  void SetWriteLog(BlockDevice* dev, std::vector<BlockWrite>* log);

 private:
  int RamIo(BlockDevice* dev, Bio* bio);

  Kernel* kernel_;
  std::vector<BlockDevice*> devices_;
  std::unordered_map<std::string, DmTargetType*> target_types_;
};

BlockLayer* GetBlockLayer(Kernel* kernel);

inline constexpr KernelSymbol<int(BlockDevice*, Bio*)> kSubmitBio{"submit_bio"};
inline constexpr KernelSymbol<int(DmTargetType*)> kDmRegisterTarget{"dm_register_target"};
inline constexpr KernelSymbol<void(DmTargetType*)> kDmUnregisterTarget{"dm_unregister_target"};
inline constexpr KernelSymbol<BlockDevice*(const char* name)> kDmGetDevice{"dm_get_device"};

}  // namespace kern
