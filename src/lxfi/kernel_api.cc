#include "src/lxfi/kernel_api.h"

#include <cstddef>
#include <cstring>

#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/kernel/block/block.h"
#include "src/kernel/fs/pagecache.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/netdevice.h"
#include "src/kernel/net/skbuff.h"
#include "src/kernel/net/socket.h"
#include "src/kernel/panic.h"
#include "src/kernel/pci/pci.h"
#include "src/kernel/sound/sound.h"
#include "src/kernel/timer.h"
#include "src/lxfi/lxfi_stats.h"
#include "src/lxfi/runtime.h"

namespace lxfi {
namespace {

// --- capability iterators (the programmer-supplied iterator-funcs, §3.3) ---

void InstallIterators(Runtime* rt) {
  IteratorRegistry& reg = rt->iterators();

  // Capabilities of a kmalloc allocation: exactly the bytes the caller asked
  // for (the CAN BCM defense hinges on this being the *actual* size).
  reg.Register("alloc_caps", [](CapIterContext& ctx, uint64_t arg) {
    const void* ptr = reinterpret_cast<const void*>(arg);
    size_t size = ctx.kernel()->slab().AllocSize(ptr);
    if (size > 0) {
      ctx.Emit(Capability::Write(ptr, size));
    }
  });

  // Figure 4's skb_caps: the sk_buff header and its payload buffer.
  reg.Register("skb_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* skb = reinterpret_cast<kern::SkBuff*>(arg);
    if (skb == nullptr) {
      return;
    }
    ctx.Emit(Capability::Write(skb, sizeof(kern::SkBuff)));
    if (skb->head != nullptr && skb->capacity > 0) {
      ctx.Emit(Capability::Write(skb->head, skb->capacity));
    }
  });

  // A net_device as handed to a driver: the struct, REF ownership, and the
  // driver-private area.
  reg.Register("etherdev_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* dev = reinterpret_cast<kern::NetDevice*>(arg);
    if (dev == nullptr) {
      return;
    }
    ctx.Emit(Capability::Write(dev, sizeof(kern::NetDevice)));
    ctx.Emit(Capability::Ref("net_device", dev));
    if (dev->priv != nullptr) {
      size_t priv_size = ctx.kernel()->slab().AllocSize(dev->priv);
      if (priv_size > 0) {
        ctx.Emit(Capability::Write(dev->priv, priv_size));
      }
    }
  });

  // BAR0 register window of a PCI device.
  reg.Register("pci_regs_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* dev = reinterpret_cast<kern::PciDev*>(arg);
    if (dev != nullptr && dev->regs != nullptr) {
      ctx.Emit(Capability::Write(dev->regs, dev->regs_size));
    }
  });

  reg.Register("napi_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::NapiStruct)));
    }
  });

  reg.Register("sock_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::Socket)));
    }
  });

  reg.Register("fam_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(
          Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::NetProtoFamily)));
    }
  });

  reg.Register("pcidrv_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::PciDriver)));
    }
  });

  // A bio and its data buffer.
  reg.Register("bio_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* bio = reinterpret_cast<kern::Bio*>(arg);
    if (bio == nullptr) {
      return;
    }
    ctx.Emit(Capability::Write(bio, sizeof(kern::Bio)));
    if (bio->data != nullptr && bio->size > 0) {
      ctx.Emit(Capability::Write(bio->data, bio->size));
    }
  });

  // Only the payload of a bio, for handing a submitted bio DOWN a device-
  // mapper stack: the struct itself — sector, size, and above all the
  // end_io call target — stays with the submitter, so a stacked target
  // never becomes a page-writer of a foreign module's completion slot.
  reg.Register("bio_data_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* bio = reinterpret_cast<kern::Bio*>(arg);
    if (bio != nullptr && bio->data != nullptr && bio->size > 0) {
      ctx.Emit(Capability::Write(bio->data, bio->size));
    }
  });

  reg.Register("dmtt_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::DmTargetType)));
    }
  });

  // A dm target instance: its struct plus REF ownership of the device it
  // maps onto (Guideline 3's fixed-value REF idea applied to block devices).
  reg.Register("dmtarget_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* target = reinterpret_cast<kern::DmTarget*>(arg);
    if (target == nullptr) {
      return;
    }
    ctx.Emit(Capability::Write(target, sizeof(kern::DmTarget)));
    if (target->underlying != nullptr) {
      ctx.Emit(Capability::Ref("block_device", target->underlying));
    }
  });

  reg.Register("timer_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::TimerList)));
    }
  });

  reg.Register("sndcard_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::SoundCard)));
    }
  });

  reg.Register("substream_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* ss = reinterpret_cast<kern::PcmSubstream*>(arg);
    if (ss == nullptr) {
      return;
    }
    ctx.Emit(Capability::Write(ss, sizeof(kern::PcmSubstream)));
    if (ss->dma_buffer != nullptr && ss->buffer_bytes > 0) {
      ctx.Emit(Capability::Write(ss->dma_buffer, ss->buffer_bytes));
    }
  });

  // --- VFS object iterators ------------------------------------------------
  // A filesystem type as the module kmalloc'd it: exactly that allocation,
  // so the register-time transfer moves the whole ops table and nothing
  // else (static instances fall back to the struct size).
  reg.Register("fstype_caps", [](CapIterContext& ctx, uint64_t arg) {
    const void* t = reinterpret_cast<const void*>(arg);
    if (t == nullptr) {
      return;
    }
    size_t size = ctx.kernel()->slab().AllocSize(t);
    ctx.Emit(Capability::Write(t, size > 0 ? size : sizeof(kern::FileSystemType)));
  });

  // A superblock as handed to mount: ONLY the fields a filesystem fills
  // (s_op + s_fs_info, adjacent by layout) plus the module-private
  // s_fs_info region once the module hangs one off it. The kernel-managed
  // fields around them (type, root, next_ino, open_files) stay
  // unwritable, so a malicious filesystem cannot forge the root dentry
  // Unmount frees or the fstype the registry trusts.
  reg.Register("sb_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* sb = reinterpret_cast<kern::SuperBlock*>(arg);
    if (sb == nullptr) {
      return;
    }
    static_assert(offsetof(kern::SuperBlock, s_fs_info) ==
                      offsetof(kern::SuperBlock, s_op) + sizeof(void*),
                  "sb_caps emits s_op+s_fs_info as one range");
    ctx.Emit(Capability::Write(&sb->s_op, 2 * sizeof(void*)));
    if (sb->s_fs_info != nullptr) {
      size_t size = ctx.kernel()->slab().AllocSize(sb->s_fs_info);
      if (size > 0) {
        ctx.Emit(Capability::Write(sb->s_fs_info, size));
      }
    }
  });

  // An inode and its module-private region (the ramfs data buffer).
  reg.Register("inode_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* inode = reinterpret_cast<kern::Inode*>(arg);
    if (inode == nullptr) {
      return;
    }
    ctx.Emit(Capability::Write(inode, sizeof(kern::Inode)));
    if (inode->i_private != nullptr) {
      size_t size = ctx.kernel()->slab().AllocSize(inode->i_private);
      if (size > 0) {
        ctx.Emit(Capability::Write(inode->i_private, size));
      }
    }
  });

  reg.Register("file_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::File)));
    }
  });

  reg.Register("filter_caps", [](CapIterContext& ctx, uint64_t arg) {
    const void* flt = reinterpret_cast<const void*>(arg);
    if (flt == nullptr) {
      return;
    }
    size_t size = ctx.kernel()->slab().AllocSize(flt);
    ctx.Emit(Capability::Write(flt, size > 0 ? size : sizeof(kern::VfsFilter)));
  });

  // Kernel-stack out-params handed to modules (VfsStat/VfsStatFs/FilterCtx):
  // the dispatch annotations copy WRITE over exactly the struct on the way
  // in and transfer it back on the way out — never relying on the blanket
  // kernel-stack grant, so the module's write window closes at return.
  reg.Register("vfsstat_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::VfsStat)));
    }
  });

  reg.Register("vfsstatfs_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::VfsStatFs)));
    }
  });

  reg.Register("filterctx_caps", [](CapIterContext& ctx, uint64_t arg) {
    if (arg != 0) {
      ctx.Emit(Capability::Write(reinterpret_cast<const void*>(arg), sizeof(kern::FilterCtx)));
    }
  });

  // The payload of a cached page — and ONLY the payload. The CachedPage
  // header (flags, hold count, hash linkage) stays kernel-owned forever;
  // pc_bwrite grants this range and pc_bwrite_done reclaims it, so the
  // writer-set over page->data names exactly the module that held the
  // write window when a scribble is attributed.
  reg.Register("pcdata_caps", [](CapIterContext& ctx, uint64_t arg) {
    auto* page = reinterpret_cast<kern::CachedPage*>(arg);
    if (page != nullptr) {
      ctx.Emit(Capability::Write(page->data, kern::kPcBlockSize));
    }
  });
}

}  // namespace

void RegisterContract(Runtime* rt, const kern::SymbolKey& id, size_t arity, ParamNames params,
                      const char* contract) {
  if (params.size() != arity) {
    kern::Panic(std::string("contract of '") + id.name + "' names " +
                std::to_string(params.size()) + " parameters for " + std::to_string(arity) +
                " arguments");
  }
  if (rt == nullptr) {
    return;
  }
  // Registration parses and compiles the set (refusing one the guard
  // compiler rejects); wrappers bind the program pointer at wrap time.
  lxfi::Status st = rt->annotations().Register(
      id.name, std::vector<std::string>(params.begin(), params.end()), contract);
  if (!st.ok()) {
    kern::Panic("kernel API annotation registration failed: " + st.ToString());
  }
}

void InstallKernelApi(kern::Kernel* kernel, Runtime* rt) {
  kern::Kernel* k = kernel;
  // Contracts resolve iterator-func names at registration, so the iterators
  // come first. The exports below keep one fixed order: it is the order
  // their kernel-text addresses are minted in.
  if (rt != nullptr) {
    InstallIterators(rt);
  }

  // --- memory ---------------------------------------------------------------
  // Allocation routes through the caller's heap partition when partitioned
  // heaps are on (PartitionedAlloc recovers the module caller from the
  // shadow stack — the import wrapper already dropped to kernel privilege);
  // otherwise it is the plain shared-heap slab path.
  auto kmalloc_impl = [k, rt](size_t size) -> void* {
    void* p = rt != nullptr ? rt->PartitionedAlloc(size) : k->slab().Alloc(size);
    if (p != nullptr && rt != nullptr) {
      // Fresh allocations are zeroed; zeroing resets writer attribution (§5).
      rt->writer_set().ClearRange(reinterpret_cast<uintptr_t>(p), size);
    }
    return p;
  };
  const char* alloc_contract = "post(if (return != 0) transfer(write, return, size))";
  Export(k, rt, kern::kKmalloc, {"size"}, alloc_contract, kmalloc_impl);
  Export(k, rt, kern::kKzalloc, {"size"}, alloc_contract, kmalloc_impl);
  Export(k, rt, kern::kDmaAllocCoherent, {"size"}, alloc_contract, kmalloc_impl);
  Export(k, rt, kern::kKrealloc, {"ptr", "size"},
         "pre(transfer(alloc_caps(ptr))) post(if (return != 0) transfer(write, return, size))",
         [k, kmalloc_impl](void* old_p, size_t size) -> void* {
           // Always move (and stay in the caller's partition): the fresh
           // requested size keeps AllocSize/alloc_caps truthful, and the
           // pre-transfer already revoked the old object's capabilities.
           if (size == 0) {
             if (old_p != nullptr) {
               k->slab().Free(old_p);
             }
             return nullptr;
           }
           void* np = kmalloc_impl(size);
           if (np == nullptr) {
             return nullptr;
           }
           if (old_p != nullptr) {
             size_t old_size = k->slab().AllocSize(old_p);
             std::memcpy(np, old_p, old_size < size ? old_size : size);
             k->slab().Free(old_p);
           }
           return np;
         });
  Export(k, rt, kern::kKfree, {"ptr"}, "pre(transfer(alloc_caps(ptr)))",
         [k](void* p) { k->slab().Free(p); });
  Export(k, rt, kern::kDmaFreeCoherent, {"ptr"}, "pre(transfer(alloc_caps(ptr)))",
         [k](void* p) { k->slab().Free(p); });
  Export(k, rt, kern::kKsize, {"ptr"}, "pre(check(alloc_caps(ptr)))",
         [k](const void* p) -> size_t { return k->slab().UsableSize(p); });

  // --- spinlocks (simulated single-core: init/lock/unlock write the word) ---
  // The §1 motivating example: spin_lock_init writes a zero through its
  // argument, so the caller must prove write access. The word is stored as
  // bytes because the exploit aims it at a 4-byte-aligned struct cred
  // field, where a typed 8-byte store is undefined behaviour.
  const char* lock_contract = "pre(check(write, lock, 8))";
  auto set_word = [](uintptr_t* lock, uintptr_t v) { std::memcpy(lock, &v, sizeof(v)); };
  Export(k, rt, kern::kSpinLockInit, {"lock"}, lock_contract,
         [set_word](uintptr_t* lock) { set_word(lock, 0); });
  Export(k, rt, kern::kSpinLock, {"lock"}, lock_contract,
         [set_word](uintptr_t* lock) { set_word(lock, 1); });
  Export(k, rt, kern::kSpinUnlock, {"lock"}, lock_contract,
         [set_word](uintptr_t* lock) { set_word(lock, 0); });

  Export(k, rt, kern::kPrintk, {"fmt"}, "",
         [](const char* msg) { LXFI_LOG_DEBUG("printk: %s", msg); });

  // --- observability ---------------------------------------------------------
  // Both exports only ever *read* runtime state and copy into the caller's
  // buffer, so the module must prove WRITE over exactly the bytes it offers
  // (the annotation language has no multiply, hence byte counts rather than
  // record counts). A module can poll metrics and drain trace records, but
  // no export hands out a pointer into the rings themselves.
  const char* buf_contract = "pre(check(write, buf, bytes))";
  Export(k, rt, kLxfiStats, {"buf", "bytes"}, buf_contract, [rt](char* buf, size_t bytes) -> long {
    if (rt == nullptr || buf == nullptr || bytes == 0) {
      return -1;
    }
    std::string json = LxfiStats::DumpJson(*rt);
    size_t n = json.size() < bytes - 1 ? json.size() : bytes - 1;
    std::memcpy(buf, json.data(), n);
    buf[n] = '\0';
    return static_cast<long>(json.size());
  });
  Export(k, rt, kLxfiTraceRead, {"buf", "bytes"}, buf_contract,
         [](void* buf, size_t bytes) -> long {
           if (buf == nullptr) {
             return -1;
           }
           size_t max = bytes / sizeof(TraceRecord);
           return static_cast<long>(
               TraceBuffer::Global().DrainInto(static_cast<TraceRecord*>(buf), max));
         });

  // --- uaccess ---------------------------------------------------------------
  // The checked copy validates the user pointer itself; the unchecked
  // __copy_to_user shifts the burden to the caller, hence the WRITE check —
  // exactly what the RDS module forgot (CVE-2010-3904).
  Export(k, rt, kern::kCopyToUser, {"dst", "src", "n"}, "",
         [k](uintptr_t dst, const void* src, size_t n) -> int {
           return k->user().CopyToUser(dst, src, n);
         });
  Export(k, rt, kern::kCopyFromUser, {"dst", "src", "n"}, "pre(check(write, dst, n))",
         [k](void* dst, uintptr_t src, size_t n) -> int {
           return k->user().CopyFromUser(dst, src, n);
         });
  Export(k, rt, kern::kCopyToUserUnchecked, {"dst", "src", "n"}, "pre(check(write, dst, n))",
         [k](uintptr_t dst, const void* src, size_t n) -> int {
           return k->user().CopyToUserUnchecked(dst, src, n);
         });

  // --- process ---------------------------------------------------------------
  Export(k, rt, kern::kDetachPid, {"task"}, "pre(check(ref(struct task_struct), task))",
         [k](kern::Task* task) { k->procs().DetachPid(task); });

  // --- network ----------------------------------------------------------------
  Export(k, rt, kern::kAllocSkb, {"size"}, "post(if (return != 0) transfer(skb_caps(return)))",
         [k](uint32_t size) -> kern::SkBuff* { return kern::AllocSkb(k, size); });
  Export(k, rt, kern::kNetdevAllocSkb, {"dev", "size"},
         "pre(check(ref(struct net_device), dev)) "
         "post(if (return != 0) transfer(skb_caps(return)))",
         [k](kern::NetDevice* dev, uint32_t size) -> kern::SkBuff* {
           kern::SkBuff* skb = kern::AllocSkb(k, size);
           if (skb != nullptr && dev != nullptr) {
             skb->ifindex = dev->ifindex;
           }
           return skb;
         });
  Export(k, rt, kern::kKfreeSkb, {"skb"}, "pre(transfer(skb_caps(skb)))",
         [k](kern::SkBuff* skb) { kern::FreeSkb(k, skb); });
  Export(k, rt, kern::kSkbPut, {"skb", "len"}, "pre(check(skb_caps(skb)))",
         [](kern::SkBuff* skb, uint32_t len) -> uint8_t* { return kern::SkbPut(skb, len); });
  Export(k, rt, kern::kNetifRx, {"skb"}, "pre(transfer(skb_caps(skb)))",
         [k](kern::SkBuff* skb) -> int {
           kern::GetNetStack(k)->NetifRx(skb);
           return 0;
         });
  Export(k, rt, kern::kAllocEtherdev, {"priv_size"},
         "post(if (return != 0) transfer(etherdev_caps(return)))",
         [k](size_t priv_size) -> kern::NetDevice* { return kern::AllocEtherdev(k, priv_size); });
  Export(k, rt, kern::kFreeNetdev, {"dev"}, "pre(transfer(etherdev_caps(dev)))",
         [k](kern::NetDevice* dev) { kern::FreeNetdev(k, dev); });
  Export(k, rt, kern::kRegisterNetdev, {"dev"}, "pre(check(ref(struct net_device), dev))",
         [k](kern::NetDevice* dev) -> int { return kern::GetNetStack(k)->RegisterNetdev(dev); });
  Export(k, rt, kern::kUnregisterNetdev, {"dev"}, "pre(check(ref(struct net_device), dev))",
         [k](kern::NetDevice* dev) { kern::GetNetStack(k)->UnregisterNetdev(dev); });
  Export(k, rt, kern::kNetifNapiAdd, {"dev", "napi", "poll"},
         "pre(check(ref(struct net_device), dev)) pre(check(napi_caps(napi))) "
         "pre(check(call, poll))",
         [](kern::NetDevice* dev, kern::NapiStruct* napi, uintptr_t poll) {
           napi->dev = dev;
           napi->poll = poll;
           dev->napi = napi;
         });
  Export(k, rt, kern::kNapiSchedule, {"napi"}, "pre(check(napi_caps(napi)))",
         [k](kern::NapiStruct* napi) { kern::GetNetStack(k)->NapiSchedule(napi); });

  // --- PCI ---------------------------------------------------------------------
  Export(k, rt, kern::kPciRegisterDriver, {"drv"}, "pre(check(pcidrv_caps(drv)))",
         [k](kern::PciDriver* drv) -> int {
           return kern::GetPciBus(k)->RegisterDriver(drv) >= 0 ? 0 : -kern::kEnodev;
         });
  Export(k, rt, kern::kPciUnregisterDriver, {"drv"}, "pre(check(pcidrv_caps(drv)))",
         [k](kern::PciDriver* drv) { kern::GetPciBus(k)->UnregisterDriver(drv); });
  Export(k, rt, kern::kPciEnableDevice, {"pcidev"}, "pre(check(ref(struct pci_dev), pcidev))",
         [k](kern::PciDev* dev) -> int { return kern::GetPciBus(k)->EnableDevice(dev); });
  Export(k, rt, kern::kPciDisableDevice, {"pcidev"}, "pre(check(ref(struct pci_dev), pcidev))",
         [](kern::PciDev* dev) { dev->enabled = false; });
  Export(k, rt, kern::kPciIomap, {"pcidev"},
         "pre(check(ref(struct pci_dev), pcidev)) "
         "post(if (return != 0) transfer(pci_regs_caps(pcidev)))",
         [](kern::PciDev* dev) -> void* { return dev->regs; });
  Export(k, rt, kern::kRequestIrq, {"irq", "handler", "dev_id"}, "pre(check(call, handler))",
         [k](int irq, uintptr_t handler, void* dev_id) -> int {
           return kern::GetPciBus(k)->RequestIrq(irq, handler, dev_id);
         });
  Export(k, rt, kern::kFreeIrq, {"irq"}, "", [k](int irq) { kern::GetPciBus(k)->FreeIrq(irq); });

  // --- sockets -------------------------------------------------------------------
  // sock_register only *reads* the net_proto_family (which is usually const
  // data); the create pointer inside it is vetted by the indirect-call check
  // at dispatch time, so no WRITE check is demanded.
  Export(k, rt, kern::kSockRegister, {"fam"}, "", [k](kern::NetProtoFamily* fam) -> int {
    return kern::GetSocketLayer(k)->RegisterFamily(fam);
  });
  Export(k, rt, kern::kSockUnregister, {"family"}, "",
         [k](int family) { kern::GetSocketLayer(k)->UnregisterFamily(family); });

  // --- block / dm ------------------------------------------------------------------
  Export(k, rt, kern::kSubmitBio, {"dev", "bio"},
         "pre(check(ref(struct block_device), dev)) pre(transfer(bio_caps(bio))) "
         "post(transfer(bio_caps(bio)))",
         [k](kern::BlockDevice* dev, kern::Bio* bio) -> int {
           return kern::GetBlockLayer(k)->SubmitBio(dev, bio);
         });
  Export(k, rt, kern::kDmRegisterTarget, {"type"}, "pre(check(dmtt_caps(type)))",
         [k](kern::DmTargetType* t) -> int {
           return kern::GetBlockLayer(k)->RegisterTargetType(t);
         });
  Export(k, rt, kern::kDmUnregisterTarget, {"type"}, "pre(check(dmtt_caps(type)))",
         [k](kern::DmTargetType* t) { kern::GetBlockLayer(k)->UnregisterTargetType(t); });
  Export(k, rt, kern::kDmGetDevice, {"name"},
         "post(if (return != 0) copy(ref(struct block_device), return))",
         [k](const char* name) -> kern::BlockDevice* {
           return kern::GetBlockLayer(k)->FindDevice(name);
         });

  // --- page cache ------------------------------------------------------------------
  // The API is deliberately asymmetric: bget/brelse move REFs only (many
  // holders may share a page, so releasing cannot demand exclusive WRITE),
  // while bwrite/bwrite_done bracket the one window in which a module may
  // store into the payload. mark_dirty demands the window be open (check,
  // not transfer), and sync/invalidate only need the device REF the mount
  // dispatch granted.
  Export(k, rt, kern::kPcBget, {"dev", "block"},
         "pre(check(ref(struct block_device), dev)) "
         "post(if (return != 0) copy(ref(struct cached_page), return))",
         [k](kern::BlockDevice* dev, uint64_t block) -> kern::CachedPage* {
           return kern::GetPageCache(k)->Bget(dev, block);
         });
  Export(k, rt, kern::kPcBrelse, {"page"}, "pre(check(ref(struct cached_page), page))",
         [k](kern::CachedPage* page) -> int { return kern::GetPageCache(k)->Brelse(page); });
  Export(k, rt, kern::kPcBwrite, {"dev", "block"},
         "pre(check(ref(struct block_device), dev)) "
         "post(if (return != 0) copy(ref(struct cached_page), return)) "
         "post(if (return != 0) copy(pcdata_caps(return)))",
         [k](kern::BlockDevice* dev, uint64_t block) -> kern::CachedPage* {
           return kern::GetPageCache(k)->Bwrite(dev, block);
         });
  Export(k, rt, kern::kPcBwriteDone, {"page"},
         "pre(check(ref(struct cached_page), page)) pre(transfer(pcdata_caps(page)))",
         [k](kern::CachedPage* page) -> int { return kern::GetPageCache(k)->BwriteDone(page); });
  Export(k, rt, kern::kPcMarkDirty, {"page"}, "pre(check(pcdata_caps(page)))",
         [k](kern::CachedPage* page) { kern::GetPageCache(k)->MarkDirty(page); });
  Export(k, rt, kern::kPcSync, {"dev"}, "pre(check(ref(struct block_device), dev))",
         [k](kern::BlockDevice* dev) -> int { return kern::GetPageCache(k)->Sync(dev); });
  Export(k, rt, kern::kPcInvalidate, {"dev"}, "pre(check(ref(struct block_device), dev))",
         [k](kern::BlockDevice* dev) { kern::GetPageCache(k)->Invalidate(dev); });

  // --- timers ----------------------------------------------------------------
  // The module must own the timer_list it arms; the function pointer inside
  // it is vetted by the indirect-call check at expiry.
  Export(k, rt, kern::kModTimer, {"timer", "expires"}, "pre(check(timer_caps(timer)))",
         [k](kern::TimerList* t, uint64_t expires) -> int {
           return kern::GetTimerWheel(k)->ModTimer(t, expires);
         });
  Export(k, rt, kern::kDelTimer, {"timer"}, "pre(check(timer_caps(timer)))",
         [k](kern::TimerList* t) -> int { return kern::GetTimerWheel(k)->DelTimer(t); });

  // --- sound ---------------------------------------------------------------------------
  Export(k, rt, kern::kSndCardRegister, {"card"}, "pre(check(sndcard_caps(card)))",
         [k](kern::SoundCard* card) -> int { return kern::GetSoundCore(k)->RegisterCard(card); });
  Export(k, rt, kern::kSndCardUnregister, {"card"}, "pre(check(sndcard_caps(card)))",
         [k](kern::SoundCard* card) { kern::GetSoundCore(k)->UnregisterCard(card); });

  // --- vfs -----------------------------------------------------------------------------
  // Registering a filesystem proves WRITE over the fstype struct (it must
  // live in the module's own sections — its mount/kill_sb slots are
  // indirect-call home slots) and mints a REF as the only unregister
  // ticket: that REF check is what blocks a malicious module from
  // unregistering a filesystem it does not own, and the dispatch-time
  // annotation-hash check vets every ops pointer the kernel fetches from the
  // (module-writable) table.
  Export(k, rt, kern::kRegisterFilesystem, {"fstype"},
         "pre(check(fstype_caps(fstype))) "
         "post(if (return == 0) copy(ref(struct file_system_type), fstype))",
         [k](kern::FileSystemType* fstype) -> int {
           return kern::GetVfs(k)->RegisterFilesystem(fstype);
         });
  Export(k, rt, kern::kUnregisterFilesystem, {"fstype"},
         "pre(transfer(ref(struct file_system_type), fstype)) "
         "post(if (return != 0) copy(ref(struct file_system_type), fstype))",
         [k](kern::FileSystemType* fstype) -> int {
           return kern::GetVfs(k)->UnregisterFilesystem(fstype);
         });
  // Object lifetime: iget hands a fresh inode's WRITE to the calling
  // principal; iput reclaims the inode and whatever module-private region
  // still hangs off it. Dentries stay kernel-owned — modules hold REFs and
  // edit the dcache only through d_alloc/d_instantiate.
  Export(k, rt, kern::kIget, {"sb"},
         "pre(check(ref(struct super_block), sb)) "
         "post(if (return != 0) transfer(inode_caps(return)))",
         [k](kern::SuperBlock* sb) -> kern::Inode* { return kern::GetVfs(k)->Iget(sb); });
  Export(k, rt, kern::kIput, {"inode"}, "pre(transfer(inode_caps(inode)))",
         [k](kern::Inode* inode) { kern::GetVfs(k)->Iput(inode); });
  Export(k, rt, kern::kDAlloc, {"parent", "name"},
         "pre(check(ref(struct dentry), parent)) "
         "post(if (return != 0) copy(ref(struct dentry), return))",
         [k](kern::Dentry* parent, const char* name) -> kern::Dentry* {
           return kern::GetVfs(k)->DAlloc(parent, name);
         });
  Export(k, rt, kern::kDInstantiate, {"dentry", "inode"},
         "pre(check(ref(struct dentry), dentry)) pre(check(inode_caps(inode)))",
         [k](kern::Dentry* dentry, kern::Inode* inode) -> int {
           return kern::GetVfs(k)->DInstantiate(dentry, inode);
         });
  // Filter registration mirrors filesystem registration: prove WRITE over
  // the registration struct, hold a REF as the unregister ticket. The chain
  // records flt->module as the owner quarantine drops by, so a module may
  // name only itself (a kernel-context caller is trusted).
  Export(k, rt, kern::kVfsRegisterFilter, {"flt"},
         "pre(check(filter_caps(flt))) "
         "post(if (return == 0) copy(ref(struct vfs_filter), flt))",
         [k, rt](kern::VfsFilter* flt) -> int {
           lxfi::Principal* caller = rt != nullptr ? rt->CallerPrincipal() : nullptr;
           if (caller != nullptr && (flt == nullptr || caller->module()->kmod() != flt->module)) {
             return -kern::kEinval;
           }
           return kern::GetVfs(k)->filters().Register(flt);
         });
  Export(k, rt, kern::kVfsUnregisterFilter, {"flt"},
         "pre(transfer(ref(struct vfs_filter), flt)) "
         "post(if (return != 0) copy(ref(struct vfs_filter), flt))",
         [k](kern::VfsFilter* flt) -> int { return kern::GetVfs(k)->filters().Unregister(flt); });

  // --- function-pointer types (kernel -> module) ---------------------------
  Annotate(rt, kern::kTimerFn, {"data"}, "principal(data)");
  // Observability: monitoring-module poll entry point (statmon dispatches
  // through a kernel-owned slot, so its hash must be registered here).
  Annotate(rt, kStatmonPoll, {"arg"}, "");
  Annotate(rt, kern::kPciProbe, {"pcidev"},
           "principal(pcidev) pre(copy(ref(struct pci_dev), pcidev)) "
           "post(if (return < 0) transfer(ref(struct pci_dev), pcidev))");
  Annotate(rt, kern::kPciRemove, {"pcidev"},
           "principal(pcidev) pre(check(ref(struct pci_dev), pcidev))");
  Annotate(rt, kern::kNdoOpen, {"dev"}, "principal(dev)");
  Annotate(rt, kern::kNdoStop, {"dev"}, "principal(dev)");
  Annotate(rt, kern::kNdoStartXmit, {"skb", "dev"},
           "principal(dev) pre(transfer(skb_caps(skb))) "
           "post(if (return == 16) transfer(skb_caps(skb)))");
  Annotate(rt, kern::kNapiPoll, {"napi", "budget"}, "principal(napi)");
  Annotate(rt, kern::kIrqHandler, {"irq", "dev_id"}, "principal(dev_id)");
  Annotate(rt, kern::kProtoFamilyCreate, {"sock"}, "principal(sock) pre(copy(sock_caps(sock)))");
  Annotate(rt, kern::kProtoRelease, {"sock"}, "principal(sock) post(transfer(sock_caps(sock)))");
  Annotate(rt, kern::kProtoBind, {"sock", "uaddr", "len"}, "principal(sock)");
  Annotate(rt, kern::kProtoIoctl, {"sock", "cmd", "arg"}, "principal(sock)");
  Annotate(rt, kern::kProtoSendmsg, {"sock", "msg"}, "principal(sock)");
  Annotate(rt, kern::kProtoRecvmsg, {"sock", "msg"}, "principal(sock)");
  Annotate(rt, kern::kDmCtr, {"target", "params"},
           "principal(target) pre(copy(dmtarget_caps(target)))");
  Annotate(rt, kern::kDmDtr, {"target"},
           "principal(target) post(transfer(dmtarget_caps(target)))");
  // map() outcomes: 0 = the target completed (or dispatched) the bio itself,
  // 1 = remapped, core submits to the underlying device, 2 (kill) or a
  // negative errno = the core fails the bio. A target receives only the
  // bio's PAYLOAD (bio_data_caps): the struct — sector, status, and above
  // all the end_io call target — stays with the submitter, so the target
  // never appears in the writer set of the submitter's completion slot.
  // Completion status flows back through the return value and is recorded
  // by the block core, not the target.
  Annotate(rt, kern::kDmMap, {"target", "bio"},
           "principal(target) pre(transfer(bio_data_caps(bio))) "
           "post(if (return == 0) transfer(bio_data_caps(bio))) "
           "post(if (return == 1) transfer(bio_data_caps(bio)))");
  Annotate(rt, kern::kPcmOpen, {"ss"}, "principal(ss) pre(copy(substream_caps(ss)))");
  Annotate(rt, kern::kPcmClose, {"ss"}, "principal(ss) post(transfer(substream_caps(ss)))");
  Annotate(rt, kern::kPcmTrigger, {"ss", "cmd"}, "principal(ss)");
  Annotate(rt, kern::kPcmPointer, {"ss"}, "principal(ss)");
  // Completion callbacks get the bio's capabilities for exactly the
  // completion window: the kernel hands WRITE over the bio struct and its
  // payload in, and reclaims both when the callback returns. Kernel-text
  // end_io targets (the page cache's writeback completion) bypass the
  // annotation machinery entirely — the dispatch never enters a module, so
  // no grant is minted that a module could inherit.
  Annotate(rt, kern::kBioEndIo, {"bio"},
           "principal(bio) pre(copy(bio_caps(bio))) post(transfer(bio_caps(bio)))");

  // --- VFS function-pointer types ------------------------------------------
  // Each mounted superblock is one principal; the mount dispatch endows it
  // with the superblock's WRITE plus the REFs later exports demand. Inodes
  // and files alias onto the same principal (lxfi_princ_alias in the
  // module), so "principal(file)" on read/write lands on the mount's
  // capability set without any extra grants per call.
  Annotate(rt, kern::kFsMount, {"fstype", "sb", "root"},
           "principal(sb) pre(copy(sb_caps(sb))) pre(copy(ref(struct super_block), sb)) "
           "pre(copy(ref(struct dentry), root))");
  Annotate(rt, kern::kFsKillSb, {"fstype", "sb"},
           "principal(sb) post(transfer(sb_caps(sb))) "
           "post(transfer(ref(struct super_block), sb))");
  Annotate(rt, kern::kSuperStatfs, {"sb", "out"},
           "principal(sb) pre(copy(vfsstatfs_caps(out))) post(transfer(vfsstatfs_caps(out)))");
  Annotate(rt, kern::kInodeLookup, {"dir", "dentry"},
           "principal(dir) pre(copy(ref(struct dentry), dentry)) "
           "post(if (return == 0) transfer(ref(struct dentry), dentry))");
  Annotate(rt, kern::kInodeCreate, {"dir", "dentry", "mode"},
           "principal(dir) pre(copy(ref(struct dentry), dentry))");
  Annotate(rt, kern::kInodeMkdir, {"dir", "dentry", "mode"},
           "principal(dir) pre(copy(ref(struct dentry), dentry))");
  Annotate(rt, kern::kInodeUnlink, {"dir", "dentry"},
           "principal(dir) post(if (return == 0) transfer(ref(struct dentry), dentry))");
  Annotate(rt, kern::kInodeRmdir, {"dir", "dentry"},
           "principal(dir) post(if (return == 0) transfer(ref(struct dentry), dentry))");
  // Rename is same-superblock only, so olddir's principal is newdir's too;
  // both dentries are kernel-owned and passed by REF for the dispatch.
  Annotate(rt, kern::kInodeRename, {"olddir", "odent", "newdir", "ndent"},
           "principal(olddir) pre(copy(ref(struct dentry), odent)) "
           "pre(copy(ref(struct dentry), ndent))");
  Annotate(rt, kern::kInodeGetattr, {"inode", "out"},
           "principal(inode) pre(copy(vfsstat_caps(out))) post(transfer(vfsstat_caps(out)))");
  Annotate(rt, kern::kFileOpen, {"inode", "file"}, "principal(inode) pre(copy(file_caps(file)))");
  Annotate(rt, kern::kFileRelease, {"inode", "file"},
           "principal(file) post(transfer(file_caps(file)))");
  Annotate(rt, kern::kFileRead, {"file", "ubuf", "n", "pos"}, "principal(file)");
  Annotate(rt, kern::kFileWrite, {"file", "ubuf", "n", "pos"}, "principal(file)");
  Annotate(rt, kern::kFileFsync, {"file"}, "principal(file)");
  // Filter hooks: each registered filter is its own principal, so one
  // compromised filter cannot reach its neighbours' state. The FilterCtx is
  // granted for the hook's duration only (the chain-position token lives in
  // it); the objects it points to stay off-limits.
  Annotate(rt, kern::kFilterPreOp, {"flt", "ctx"},
           "principal(flt) pre(copy(filterctx_caps(ctx))) post(transfer(filterctx_caps(ctx)))");
  Annotate(rt, kern::kFilterPostOp, {"flt", "ctx"},
           "principal(flt) pre(copy(filterctx_caps(ctx))) post(transfer(filterctx_caps(ctx)))");
}

}  // namespace lxfi
