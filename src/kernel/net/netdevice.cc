#include "src/kernel/net/netdevice.h"

#include <cstring>

#include "src/base/log.h"
#include "src/kernel/kernel.h"
#include "src/kernel/panic.h"

namespace kern {

namespace {
constexpr size_t kMaxBacklog = 4096;
}

int NetStack::RegisterNetdev(NetDevice* dev) {
  dev->ifindex = next_ifindex_++;
  devices_.push_back(dev);
  dev->up = true;
  if (dev->ops != nullptr && dev->ops->ndo_open != 0) {
    kernel_->IndirectCall(&dev->ops->ndo_open, kNdoOpen, dev);
  }
  return 0;
}

void NetStack::UnregisterNetdev(NetDevice* dev) {
  dev->up = false;
  if (dev->ops != nullptr && dev->ops->ndo_stop != 0) {
    kernel_->IndirectCall(&dev->ops->ndo_stop, kNdoStop, dev);
  }
  for (auto it = devices_.begin(); it != devices_.end(); ++it) {
    if (*it == dev) {
      devices_.erase(it);
      break;
    }
  }
}

NetDevice* NetStack::DevByIndex(int ifindex) const {
  for (NetDevice* dev : devices_) {
    if (dev->ifindex == ifindex) {
      return dev;
    }
  }
  return nullptr;
}

void NetStack::NetifRx(SkBuff* skb) {
  if (backlog_.count >= kMaxBacklog) {
    ++backlog_drops_;
    FreeSkb(kernel_, skb);
    return;
  }
  backlog_.Push(skb);
  if (!defer_backlog_) {
    ProcessBacklog();
  }
}

int NetStack::ProcessBacklog(int max_packets) {
  int n = 0;
  while (n < max_packets) {
    SkBuff* skb = backlog_.Pop();
    if (skb == nullptr) {
      break;
    }
    DeliverOne(skb);
    ++n;
  }
  return n;
}

void NetStack::SetProtocolHandler(uint16_t protocol, ProtoHandler handler) {
  uintptr_t addr = kernel_->funcs().Register<void(SkBuff*)>(TextKind::kKernelText, "ptype_handler",
                                                            std::move(handler));
  ptype_slots_[protocol] = addr;
}

void NetStack::DeliverOne(SkBuff* skb) {
  NetDevice* dev = DevByIndex(skb->ifindex);
  if (dev != nullptr) {
    ++dev->rx_packets;
    dev->rx_bytes += skb->len;
  }
  auto it = ptype_slots_.find(skb->protocol);
  if (it != ptype_slots_.end()) {
    // ptype->func: a kernel-written slot; its writer set is empty, so the
    // LXFI indirect-call guard takes the fast path here.
    kernel_->IndirectCall(&it->second, kPacketTypeFunc, skb);
    return;
  }
  FreeSkb(kernel_, skb);  // no handler: drop
}

void NetStack::InstallKernelDispatch() {
  // The transmit path's kernel-internal hops: dst_output -> qdisc enqueue ->
  // driver. Both slots live in kernel memory and hold kernel text, so their
  // indirect-call checks ride the writer-set fast path; only the final
  // module dispatch needs a full check. This mirrors the 1/3-vs-2/3 split
  // the paper measures on the netperf path (§8.4).
  qdisc_enqueue_slot_ = kernel_->funcs().Register<int(NetDevice*, SkBuff*)>(
      TextKind::kKernelText, "pfifo_fast_enqueue", [this](NetDevice* dev, SkBuff* skb) -> int {
        uint32_t len = skb->len;
        int rc = kernel_->IndirectCall(&dev->ops->ndo_start_xmit, kNdoStartXmit, skb, dev);
        if (rc == kNetdevTxOk) {
          ++dev->tx_packets;
          dev->tx_bytes += len;
        } else {
          ++dev->tx_busy;
        }
        return rc;
      });
  dst_output_slot_ = kernel_->funcs().Register<int(NetDevice*, SkBuff*)>(
      TextKind::kKernelText, "ip_output", [this](NetDevice* dev, SkBuff* skb) -> int {
        return kernel_->IndirectCall(&qdisc_enqueue_slot_, kQdiscEnqueue, dev, skb);
      });
}

int NetStack::DevQueueXmit(NetDevice* dev, SkBuff* skb) {
  if (!dev->up || dev->ops == nullptr || dev->ops->ndo_start_xmit == 0) {
    FreeSkb(kernel_, skb);
    return -kEnodev;
  }
  EnsureKernelDispatch();  // single-threaded fallback; SMP paths installed
                           // eagerly via GetNetStack
  // dst->output: the first of the kernel-internal indirect hops.
  return kernel_->IndirectCall(&dst_output_slot_, kDstOutput, dev, skb);
}

void NetStack::NapiSchedule(NapiStruct* napi) {
  if (napi->scheduled) {
    return;
  }
  napi->scheduled = true;
  poll_list_.push_back(napi);
}

int NetStack::RunSoftirq(int budget_per_poll) {
  int total = 0;
  std::vector<NapiStruct*> polls;
  polls.swap(poll_list_);
  for (NapiStruct* napi : polls) {
    napi->scheduled = false;
    if (napi->poll == 0) {
      continue;
    }
    total += kernel_->IndirectCall(&napi->poll, kNapiPoll, napi, budget_per_poll);
  }
  return total;
}

NetStack* GetNetStack(Kernel* kernel) {
  NetStack* stack = kernel->EnsureSubsystem<NetStack>(kernel);
  stack->EnsureKernelDispatch();
  return stack;
}

NetDevice* AllocEtherdev(Kernel* kernel, size_t priv_size) {
  void* mem = kernel->slab().Alloc(sizeof(NetDevice));
  if (mem == nullptr) {
    return nullptr;
  }
  NetDevice* dev = new (mem) NetDevice();
  if (priv_size > 0) {
    dev->priv = kernel->slab().Alloc(priv_size);
    if (dev->priv == nullptr) {
      kernel->slab().Free(mem);
      return nullptr;
    }
  }
  return dev;
}

void FreeNetdev(Kernel* kernel, NetDevice* dev) {
  if (dev == nullptr) {
    return;
  }
  kernel->slab().Free(dev->priv);
  kernel->slab().Free(dev);
}

}  // namespace kern
