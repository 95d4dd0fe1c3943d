#include "src/kernel/block/block.h"

#include <cstring>

#include "src/base/trace.h"
#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"

namespace kern {

BlockDevice* BlockLayer::CreateRamDisk(const std::string& name, uint64_t sectors) {
  void* mem = kernel_->slab().Alloc(sizeof(BlockDevice));
  KERN_BUG_ON(mem == nullptr);
  BlockDevice* dev = new (mem) BlockDevice();
  std::snprintf(dev->name, sizeof(dev->name), "%s", name.c_str());
  dev->sectors = sectors;
  dev->backing = static_cast<uint8_t*>(kernel_->slab().Alloc(sectors * kSectorSize));
  KERN_BUG_ON(dev->backing == nullptr);
  devices_.push_back(dev);
  return dev;
}

int BlockLayer::RamIo(BlockDevice* dev, Bio* bio) {
  if (bio->sector * kSectorSize + bio->size > dev->sectors * kSectorSize) {
    bio->status = -kEinval;
    return -kEinval;
  }
  uint8_t* disk = dev->backing + bio->sector * kSectorSize;
  if (bio->write) {
    std::memcpy(disk, bio->data, bio->size);
    __atomic_fetch_add(&dev->writes, 1, __ATOMIC_RELAXED);
    if (dev->write_log != nullptr) {
      // Record sector-granular so a log prefix is a power cut at any write
      // boundary, even mid-bio.
      for (uint32_t off = 0; off < bio->size; off += kSectorSize) {
        BlockWrite w;
        w.sector = bio->sector + off / kSectorSize;
        w.data.assign(bio->data + off, bio->data + off + kSectorSize);
        dev->write_log->push_back(std::move(w));
      }
    }
  } else {
    std::memcpy(bio->data, disk, bio->size);
    __atomic_fetch_add(&dev->reads, 1, __ATOMIC_RELAXED);
  }
  bio->status = 0;
  return 0;
}

int BlockLayer::SubmitBio(BlockDevice* dev, Bio* bio) {
  // arg1 packs direction into the top bit so one record carries both.
  TRACE_EVENT(lxfi::TraceEvent::kBioSubmit, 0, bio->sector,
              static_cast<uint64_t>(bio->size) | (bio->write ? uint64_t{1} << 63 : 0));
  DmTarget* target = dev->target;
  if (target == nullptr) {
    int rc = RamIo(dev, bio);
    TRACE_EVENT(lxfi::TraceEvent::kBioComplete, 0, bio->sector,
                static_cast<uint64_t>(static_cast<int64_t>(bio->status)));
    if (bio->end_io != 0) {
      kernel_->IndirectCall(&bio->end_io, kBioEndIo, bio);
    }
    return rc;
  }
  // Device-mapper path: ask the module's target to map the bio.
  int rc = kernel_->IndirectCall(&target->type->map, kDmMap, target, bio);
  if (rc == kDmMapioRemapped) {
    // The core submits to the underlying device on the target's behalf.
    rc = SubmitBio(target->underlying, bio);
  } else if (rc == kDmMapioKill || rc < 0) {
    // Targets never write the submitter's bio struct (they only ever hold
    // the payload capability); the core records the failure for them.
    bio->status = rc < 0 ? rc : -kEinval;
    rc = bio->status;
  } else {
    bio->status = 0;
    rc = 0;
  }
  TRACE_EVENT(lxfi::TraceEvent::kBioComplete, 0, bio->sector,
              static_cast<uint64_t>(static_cast<int64_t>(bio->status)));
  if (bio->end_io != 0) {
    kernel_->IndirectCall(&bio->end_io, kBioEndIo, bio);
  }
  return rc;
}

int BlockLayer::RegisterTargetType(DmTargetType* type) {
  if (type->name == nullptr || target_types_.count(type->name) != 0) {
    return -kEinval;
  }
  target_types_[type->name] = type;
  return 0;
}

void BlockLayer::UnregisterTargetType(DmTargetType* type) {
  if (type->name != nullptr) {
    target_types_.erase(type->name);
  }
}

BlockDevice* BlockLayer::DmCreate(const std::string& name, const std::string& type_name,
                                  BlockDevice* underlying, const std::string& params) {
  auto tt = target_types_.find(type_name);
  if (tt == target_types_.end()) {
    return nullptr;
  }
  void* dev_mem = kernel_->slab().Alloc(sizeof(BlockDevice));
  void* tgt_mem = kernel_->slab().Alloc(sizeof(DmTarget));
  KERN_BUG_ON(dev_mem == nullptr || tgt_mem == nullptr);
  BlockDevice* dm_dev = new (dev_mem) BlockDevice();
  std::snprintf(dm_dev->name, sizeof(dm_dev->name), "%s", name.c_str());
  dm_dev->sectors = underlying != nullptr ? underlying->sectors : 0;
  DmTarget* target = new (tgt_mem) DmTarget();
  target->type = tt->second;
  target->underlying = underlying;
  target->dm_dev = dm_dev;

  if (tt->second->ctr != 0) {
    int rc = kernel_->IndirectCall(&tt->second->ctr, kDmCtr, target, params.c_str());
    if (rc != 0) {
      kernel_->slab().Free(tgt_mem);
      kernel_->slab().Free(dev_mem);
      return nullptr;
    }
  }
  devices_.push_back(dm_dev);
  dm_dev->target = target;
  return dm_dev;
}

void BlockLayer::DmRemove(BlockDevice* dm_dev) {
  DmTarget* target = dm_dev->target;
  if (target == nullptr) {
    return;  // not a dm device
  }
  if (target->type->dtr != 0) {
    kernel_->IndirectCall(&target->type->dtr, kDmDtr, target);
  }
  for (auto dit = devices_.begin(); dit != devices_.end(); ++dit) {
    if (*dit == dm_dev) {
      devices_.erase(dit);
      break;
    }
  }
  kernel_->slab().Free(target);
  kernel_->slab().Free(dm_dev);
}

BlockDevice* BlockLayer::FindDevice(const std::string& name) const {
  for (BlockDevice* dev : devices_) {
    if (name == dev->name) {
      return dev;
    }
  }
  return nullptr;
}

void BlockLayer::SetWriteLog(BlockDevice* dev, std::vector<BlockWrite>* log) {
  dev->write_log = log;
}

DmTarget* BlockLayer::TargetOf(BlockDevice* dm_dev) { return dm_dev->target; }

BlockLayer* GetBlockLayer(Kernel* kernel) { return kernel->EnsureSubsystem<BlockLayer>(kernel); }

}  // namespace kern
