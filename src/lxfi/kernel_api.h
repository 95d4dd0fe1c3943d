// The annotated core-kernel API surface.
//
// InstallKernelApi registers every kernel export the 10 modules use —
// implementations on the Kernel's symbol/dispatch tables, plus (when a
// runtime is supplied) the LXFI annotations from the paper's Figures 2–4 and
// the programmer-written capability iterators. A stock kernel installs the
// same exports with no annotations, which is the uninstrumented baseline of
// Figure 12.
#pragma once

#include <cstddef>
#include <cstdint>

namespace kern {
class Kernel;
struct SkBuff;
struct NetDevice;
struct NapiStruct;
struct PciDev;
struct PciDriver;
struct Socket;
struct NetProtoFamily;
struct Bio;
struct BlockDevice;
struct DmTargetType;
struct SoundCard;
struct Task;
struct TimerList;
struct FileSystemType;
struct SuperBlock;
struct Inode;
struct Dentry;
struct VfsFilter;
struct CachedPage;
}  // namespace kern

namespace lxfi {

class Runtime;

// Signature aliases of the exports. Function-pointer types (kernel ->
// module) are kern::FnPtrType handles next to the ops structs they type.
using KmallocSig = void*(size_t);
using KreallocSig = void*(void*, size_t);
using KfreeSig = void(void*);
using KsizeSig = size_t(const void*);
using SpinlockSig = void(uintptr_t*);
using PrintkSig = void(const char*);
using CopyToUserSig = int(uintptr_t, const void*, size_t);
using CopyFromUserSig = int(void*, uintptr_t, size_t);
// Observability exports: read-only snapshots copied into a module-supplied
// buffer the annotation has verified the module may WRITE (copy_from_user
// pattern). lxfi_stats fills a NUL-terminated JSON snapshot and returns the
// full length; lxfi_trace_read drains whole TraceRecords and returns the
// record count.
using LxfiStatsSig = long(char*, size_t);
using LxfiTraceReadSig = long(void*, size_t);
using DetachPidSig = void(kern::Task*);
using ModTimerSig = int(kern::TimerList*, uint64_t);
using DelTimerSig = int(kern::TimerList*);
using TimerFnSig = void(void*);

using AllocSkbSig = kern::SkBuff*(uint32_t);
using NetdevAllocSkbSig = kern::SkBuff*(kern::NetDevice*, uint32_t);
using KfreeSkbSig = void(kern::SkBuff*);
using SkbPutSig = uint8_t*(kern::SkBuff*, uint32_t);
using NetifRxSig = int(kern::SkBuff*);
using AllocEtherdevSig = kern::NetDevice*(size_t);
using FreeNetdevSig = void(kern::NetDevice*);
using RegisterNetdevSig = int(kern::NetDevice*);
using UnregisterNetdevSig = void(kern::NetDevice*);
using NetifNapiAddSig = void(kern::NetDevice*, kern::NapiStruct*, uintptr_t);
using NapiScheduleSig = void(kern::NapiStruct*);

using PciRegisterDriverSig = int(kern::PciDriver*);
using PciUnregisterDriverSig = void(kern::PciDriver*);
using PciEnableDeviceSig = int(kern::PciDev*);
using PciDisableDeviceSig = void(kern::PciDev*);
using PciIomapSig = void*(kern::PciDev*);
using RequestIrqSig = int(int, uintptr_t, void*);
using FreeIrqSig = void(int);

using SockRegisterSig = int(kern::NetProtoFamily*);
using SockUnregisterSig = void(int);

using SubmitBioSig = int(kern::BlockDevice*, kern::Bio*);
using DmRegisterTargetSig = int(kern::DmTargetType*);
using DmUnregisterTargetSig = void(kern::DmTargetType*);
using DmGetDeviceSig = kern::BlockDevice*(const char*);

using SndCardRegisterSig = int(kern::SoundCard*);
using SndCardUnregisterSig = void(kern::SoundCard*);

// VFS (kernel/fs): filesystem registration, inode/dentry lifetime services
// and the stackable-filter registry.
using RegisterFilesystemSig = int(kern::FileSystemType*);
using UnregisterFilesystemSig = int(kern::FileSystemType*);
using IgetSig = kern::Inode*(kern::SuperBlock*);
using IputSig = void(kern::Inode*);
using DAllocSig = kern::Dentry*(kern::Dentry*, const char*);
using DInstantiateSig = int(kern::Dentry*, kern::Inode*);
using VfsRegisterFilterSig = int(kern::VfsFilter*);
using VfsUnregisterFilterSig = int(kern::VfsFilter*);

// Page cache (kernel/fs/pagecache): buffer heads for block-backed
// filesystems. bget/brelse move REFs only; bwrite/bwrite_done bracket the
// exclusive WRITE window over the page payload.
using PcGetSig = kern::CachedPage*(kern::BlockDevice*, uint64_t);
using PcPageSig = int(kern::CachedPage*);
using PcMarkDirtySig = void(kern::CachedPage*);
using PcSyncSig = int(kern::BlockDevice*);
using PcInvalidateSig = void(kern::BlockDevice*);

// kern::kProtoIoctl's signature, for the exploits' user-space payloads.
using SockIoctlSig = int(kern::Socket*, unsigned, uintptr_t);

// Installs exports (always) and annotations + iterators (when rt != null).
void InstallKernelApi(kern::Kernel* kernel, Runtime* rt);

}  // namespace lxfi
