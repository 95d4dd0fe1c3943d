// Network devices, NAPI, and the core network stack.
//
// This reproduces the structure of Figure 1 in the paper: net_device holds a
// pointer to a module-owned net_device_ops table whose fields are function
// pointers written by the module; the core kernel transmits by indirect call
// through ndo_start_xmit; NAPI poll callbacks are registered through
// netif_napi_add; received packets enter the kernel via netif_rx. All
// function-pointer fields are uintptr_t text addresses so they can be
// corrupted by exploit code and checked by LXFI's indirect-call guard.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/net/skbuff.h"
#include "src/kernel/types.h"

namespace kern {

class Kernel;
struct NetDevice;

// Function-pointer table. Lives in module memory (allocated by the module or
// in its data sections), exactly the layout attackers overwrite.
struct NetDeviceOps {
  uintptr_t ndo_open = 0;
  uintptr_t ndo_stop = 0;
  uintptr_t ndo_start_xmit = 0;
};
inline constexpr FnPtrType<int(NetDevice*)> kNdoOpen{"net_device_ops::ndo_open"};
inline constexpr FnPtrType<int(NetDevice*)> kNdoStop{"net_device_ops::ndo_stop"};
inline constexpr FnPtrType<int(SkBuff*, NetDevice*)> kNdoStartXmit{
    "net_device_ops::ndo_start_xmit"};

struct NapiStruct {
  NetDevice* dev = nullptr;
  uintptr_t poll = 0;
  int weight = 64;
  bool scheduled = false;
};
inline constexpr FnPtrType<int(NapiStruct*, int budget)> kNapiPoll{"napi_struct::poll"};

// The transmit and receive paths' kernel-owned hops (NetStack's slots).
inline constexpr FnPtrType<int(NetDevice*, SkBuff*)> kDstOutput{"dst_ops::output"};
inline constexpr FnPtrType<int(NetDevice*, SkBuff*)> kQdiscEnqueue{"qdisc::enqueue"};
inline constexpr FnPtrType<void(SkBuff*)> kPacketTypeFunc{"packet_type::func"};

struct NetDevice {
  char name[16] = {};
  int ifindex = -1;
  NetDeviceOps* ops = nullptr;
  void* priv = nullptr;  // driver-private area (module-owned)
  NapiStruct* napi = nullptr;
  bool up = false;

  // Stats maintained by the core kernel.
  uint64_t tx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_packets = 0;
  uint64_t rx_bytes = 0;
  uint64_t tx_busy = 0;
};

// Protocol handler: trusted kernel-side consumer keyed by skb->protocol.
using ProtoHandler = std::function<void(SkBuff*)>;

class NetStack {
 public:
  explicit NetStack(Kernel* kernel) : kernel_(kernel) {}

  Kernel* kernel() const { return kernel_; }

  // register_netdev / unregister_netdev.
  int RegisterNetdev(NetDevice* dev);
  void UnregisterNetdev(NetDevice* dev);
  NetDevice* DevByIndex(int ifindex) const;

  // netif_rx: module -> kernel packet handoff. Queues on the backlog; the
  // backlog drains either immediately (default) or on ProcessBacklog().
  void NetifRx(SkBuff* skb);

  // dev_queue_xmit: kernel -> module transmit through ndo_start_xmit.
  // Returns the driver's netdev_tx code.
  int DevQueueXmit(NetDevice* dev, SkBuff* skb);

  // Registers the kernel-internal dispatch hops (dst_output, qdisc enqueue)
  // if not yet installed. Idempotent; must run before DevQueueXmit can be
  // called from simulated CPUs (GetNetStack does it at creation — lazy
  // installation from N CPUs at once would race the function registry).
  void EnsureKernelDispatch() {
    if (dst_output_slot_ == 0) {
      InstallKernelDispatch();
    }
  }

  // NAPI.
  void NapiSchedule(NapiStruct* napi);
  // Runs pending NAPI polls (the softirq); returns packets the polls claimed.
  int RunSoftirq(int budget_per_poll = 64);

  // Registers the handler as kernel text and dispatches to it through an
  // indirect call from a kernel-owned slot — like a packet_type::func in
  // Linux. These slots are never module-writable, so the writer-set fast
  // path covers them (§4.1).
  void SetProtocolHandler(uint16_t protocol, ProtoHandler handler);

  // Deferred-backlog mode queues netif_rx packets until ProcessBacklog.
  void set_defer_backlog(bool defer) { defer_backlog_ = defer; }
  int ProcessBacklog(int max_packets = 1 << 30);

  uint64_t backlog_drops() const { return backlog_drops_; }

 private:
  void DeliverOne(SkBuff* skb);
  void InstallKernelDispatch();

  Kernel* kernel_;
  std::vector<NetDevice*> devices_;
  int next_ifindex_ = 1;
  SkBuffQueue backlog_;
  bool defer_backlog_ = false;
  uint64_t backlog_drops_ = 0;
  std::vector<NapiStruct*> poll_list_;
  // Kernel-owned function-pointer slots (the real stack's dst_output /
  // qdisc->enqueue / ptype->func hops), dispatched via IndirectCall.
  std::unordered_map<uint16_t, uintptr_t> ptype_slots_;
  uintptr_t dst_output_slot_ = 0;
  uintptr_t qdisc_enqueue_slot_ = 0;
};

// Convenience: the kernel's NetStack subsystem (created on first use).
NetStack* GetNetStack(Kernel* kernel);

// alloc_etherdev(): allocates a NetDevice plus `priv_size` bytes of driver
// private state from the slab. Exported to modules with capability
// annotations granting WRITE over the private area and REF over the device.
NetDevice* AllocEtherdev(Kernel* kernel, size_t priv_size);
void FreeNetdev(Kernel* kernel, NetDevice* dev);

inline constexpr KernelSymbol<SkBuff*(NetDevice*, uint32_t size)> kNetdevAllocSkb{
    "netdev_alloc_skb"};
inline constexpr KernelSymbol<int(SkBuff*)> kNetifRx{"netif_rx"};
inline constexpr KernelSymbol<NetDevice*(size_t priv_size)> kAllocEtherdev{"alloc_etherdev"};
inline constexpr KernelSymbol<void(NetDevice*)> kFreeNetdev{"free_netdev"};
inline constexpr KernelSymbol<int(NetDevice*)> kRegisterNetdev{"register_netdev"};
inline constexpr KernelSymbol<void(NetDevice*)> kUnregisterNetdev{"unregister_netdev"};
inline constexpr KernelSymbol<void(NetDevice*, NapiStruct*, uintptr_t poll)> kNetifNapiAdd{
    "netif_napi_add"};
inline constexpr KernelSymbol<void(NapiStruct*)> kNapiSchedule{"napi_schedule"};

}  // namespace kern
