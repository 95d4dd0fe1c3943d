#include "src/modules/e1000/e1000.h"

#include <cstring>

#include "src/kernel/kernel.h"
#include "src/kernel/net/skbuff.h"
#include "src/kernel/timer.h"
#include "src/kernel/types.h"
#include "src/lxfi/mem.h"
#include "src/lxfi/wrap.h"

namespace mods {
namespace {

E1000Data* DataOf(E1000State& st) { return static_cast<E1000Data*>(st.m->data()); }

// int e1000_probe(struct pci_dev *pcidev) — runs as principal(pcidev).
int Probe(E1000State& st, kern::PciDev* pdev) {
  kern::Module& m = *st.m;
  lxfi::Runtime* rt = lxfi::RuntimeOf(m);

  kern::NetDevice* ndev = st.alloc_etherdev(sizeof(E1000Priv));
  if (ndev == nullptr) {
    return -kern::kEnomem;
  }

  // Figure 4 lines 72–73: check ownership of the pci_dev before aliasing the
  // new net_device name onto this principal. Control-flow integrity makes
  // the check-then-alias pairing unforgeable.
  if (rt != nullptr) {
    rt->LxfiCheck(lxfi::Capability::Ref("pci_dev", pdev));
    rt->PrincAlias(pdev, ndev);
  }

  int rc = st.pci_enable_device(pdev);
  if (rc != 0) {
    st.free_netdev(ndev);
    return rc;
  }

  auto* regs = static_cast<kern::NicRegs*>(st.pci_iomap(pdev));
  if (regs == nullptr) {
    st.free_netdev(ndev);
    return -kern::kEnodev;
  }

  auto* priv = static_cast<E1000Priv*>(ndev->priv);
  lxfi::Store(m, &priv->pdev, pdev);
  lxfi::Store(m, &priv->ndev, ndev);
  lxfi::Store(m, &priv->regs, regs);

  // Descriptor rings and bounce buffers ("DMA" memory).
  auto* tx_ring = static_cast<kern::NicTxDesc*>(st.dma_alloc(kE1000TxRing * sizeof(kern::NicTxDesc)));
  auto* rx_ring = static_cast<kern::NicRxDesc*>(st.dma_alloc(kE1000RxRing * sizeof(kern::NicRxDesc)));
  auto** tx_bufs = static_cast<uint8_t**>(st.kmalloc(kE1000TxRing * sizeof(uint8_t*)));
  auto** rx_bufs = static_cast<uint8_t**>(st.kmalloc(kE1000RxRing * sizeof(uint8_t*)));
  if (tx_ring == nullptr || rx_ring == nullptr || tx_bufs == nullptr || rx_bufs == nullptr) {
    st.free_netdev(ndev);
    return -kern::kEnomem;
  }
  lxfi::Store(m, &priv->tx_ring, tx_ring);
  lxfi::Store(m, &priv->rx_ring, rx_ring);
  lxfi::Store(m, &priv->tx_bufs, tx_bufs);
  lxfi::Store(m, &priv->rx_bufs, rx_bufs);
  for (uint32_t i = 0; i < kE1000TxRing; ++i) {
    auto* buf = static_cast<uint8_t*>(st.kmalloc(kE1000BufSize));
    lxfi::Store(m, &tx_bufs[i], buf);
    lxfi::Store(m, &tx_ring[i].buf_addr, reinterpret_cast<uint64_t>(buf));
  }
  for (uint32_t i = 0; i < kE1000RxRing; ++i) {
    auto* buf = static_cast<uint8_t*>(st.kmalloc(kE1000BufSize));
    lxfi::Store(m, &rx_bufs[i], buf);
    lxfi::Store(m, &rx_ring[i].buf_addr, reinterpret_cast<uint64_t>(buf));
  }

  // Program the device (MMIO stores into the iomapped window).
  lxfi::Store(m, &regs->tdba, reinterpret_cast<uint64_t>(tx_ring));
  lxfi::Store(m, &regs->tdlen, kE1000TxRing);
  lxfi::Store(m, &regs->tdh, 0u);
  lxfi::Store(m, &regs->tdt, 0u);
  lxfi::Store(m, &regs->rdba, reinterpret_cast<uint64_t>(rx_ring));
  lxfi::Store(m, &regs->rdlen, kE1000RxRing);
  lxfi::Store(m, &regs->rdh, 0u);
  // Publish all but one RX descriptor to the device (ring-full convention).
  lxfi::Store(m, &regs->rdt, kE1000RxRing - 1);

  // NAPI context: a third name for the same logical principal.
  auto* napi = static_cast<kern::NapiStruct*>(st.kmalloc(sizeof(kern::NapiStruct)));
  if (napi == nullptr) {
    st.free_netdev(ndev);
    return -kern::kEnomem;
  }
  lxfi::Store(m, &priv->napi, napi);
  if (rt != nullptr) {
    rt->LxfiCheck(lxfi::Capability::Write(ndev, sizeof(kern::NetDevice)));
    rt->PrincAlias(ndev, napi);
  }
  st.netif_napi_add(ndev, napi, m.FuncAddr("e1000_poll"));

  // Hook up the ops table (module .data) and register with the stack.
  E1000Data* data = DataOf(st);
  lxfi::Store(m, &data->ops.ndo_open, m.FuncAddr("e1000_open"));
  lxfi::Store(m, &data->ops.ndo_stop, m.FuncAddr("e1000_stop"));
  lxfi::Store(m, &data->ops.ndo_start_xmit, m.FuncAddr("e1000_xmit"));
  lxfi::Store(m, &ndev->ops, &data->ops);

  rc = st.request_irq(pdev->irq, m.FuncAddr("e1000_intr"), ndev);
  if (rc != 0) {
    st.free_netdev(ndev);
    return rc;
  }

  rc = st.register_netdev(ndev);
  if (rc != 0) {
    st.free_irq(pdev->irq);
    st.free_netdev(ndev);
    return rc;
  }

  // Arm the watchdog: the timer's function slot holds module text, so every
  // expiry is vetted by the kernel's indirect-call check.
  auto* watchdog = static_cast<kern::TimerList*>(st.kmalloc(sizeof(kern::TimerList)));
  if (watchdog != nullptr) {
    lxfi::Store(m, &priv->watchdog, watchdog);
    lxfi::Store(m, &watchdog->function, m.FuncAddr("e1000_watchdog"));
    lxfi::Store(m, &watchdog->data, static_cast<void*>(ndev));
    st.mod_timer(watchdog, kern::GetTimerWheel(m.kernel())->now() + 10);
  }

  st.privs.push_back(priv);
  return 0;
}

void Remove(E1000State& st, kern::PciDev* pdev) {
  E1000Priv* priv = st.priv_for(pdev);
  if (priv == nullptr) {
    return;
  }
  if (priv->watchdog != nullptr) {
    st.del_timer(priv->watchdog);
  }
  st.unregister_netdev(priv->ndev);
  st.free_irq(pdev->irq);
  for (auto it = st.privs.begin(); it != st.privs.end(); ++it) {
    if (*it == priv) {
      st.privs.erase(it);
      break;
    }
  }
}

// Watchdog callback (timer_fn, principal(data=ndev)): checks the device is
// alive and rearms itself — the periodic-callback idiom real drivers use.
void Watchdog(E1000State& st, void* data) {
  auto* dev = static_cast<kern::NetDevice*>(data);
  auto* priv = static_cast<E1000Priv*>(dev->priv);
  lxfi::Store(*st.m, &priv->watchdog_runs, priv->watchdog_runs + 1);
  if (dev->up && priv->watchdog != nullptr) {
    st.mod_timer(priv->watchdog, kern::GetTimerWheel(st.m->kernel())->now() + 10);
  }
}

int Open(E1000State& st, kern::NetDevice* dev) { return 0; }

int Stop(E1000State& st, kern::NetDevice* dev) { return 0; }

// netdev_tx_t e1000_xmit(struct sk_buff *skb, struct net_device *dev) —
// runs as principal(dev); pre actions transferred the skb's capabilities to
// this principal.
int Xmit(E1000State& st, kern::SkBuff* skb, kern::NetDevice* dev) {
  kern::Module& m = *st.m;
  auto* priv = static_cast<E1000Priv*>(dev->priv);
  kern::NicRegs* regs = priv->regs;

  uint32_t tdt = regs->tdt;
  uint32_t next = (tdt + 1) % kE1000TxRing;
  if (next == regs->tdh) {
    // Ring full; the post(if (return == 16) ...) annotation hands the skb's
    // capabilities back to the kernel with the packet.
    return kern::kNetdevTxBusy;
  }

  uint16_t len = static_cast<uint16_t>(skb->len > kE1000BufSize ? kE1000BufSize : skb->len);
  uint8_t* buf = priv->tx_bufs[tdt];
  lxfi::MemCopy(m, buf, skb->data, len);
  lxfi::Store(m, &priv->tx_ring[tdt].len, len);
  lxfi::Store(m, &priv->tx_ring[tdt].cmd, uint8_t{1});
  lxfi::Store(m, &priv->tx_ring[tdt].status, uint8_t{0});
  // MMIO: bump the tail register; the device owns [tdh, tdt).
  lxfi::Store(m, &regs->tdt, next);

  lxfi::Store(m, &priv->tx_count, priv->tx_count + 1);
  st.kfree_skb(skb);
  return kern::kNetdevTxOk;
}

// irqreturn e1000_intr(int irq, void *dev_id) — runs as principal(dev_id).
void Intr(E1000State& st, int irq, void* dev_id) {
  auto* dev = static_cast<kern::NetDevice*>(dev_id);
  auto* priv = static_cast<E1000Priv*>(dev->priv);
  uint32_t icr = priv->regs->icr;
  lxfi::Store(*st.m, &priv->regs->icr, 0u);
  if ((icr & kern::kNicIntRx) != 0) {
    st.napi_schedule(priv->napi);
  }
  // TX-done needs no cleanup: packets are copied into bounce buffers and the
  // skb is freed at xmit time.
}

// int e1000_poll(struct napi_struct *napi, int budget) — principal(napi).
int Poll(E1000State& st, kern::NapiStruct* napi, int budget) {
  kern::Module& m = *st.m;
  kern::NetDevice* dev = napi->dev;
  auto* priv = static_cast<E1000Priv*>(dev->priv);
  kern::NicRegs* regs = priv->regs;

  int done = 0;
  while (done < budget) {
    uint32_t idx = priv->rx_next_clean;
    kern::NicRxDesc* desc = &priv->rx_ring[idx];
    if ((desc->status & kern::kNicDescDone) == 0) {
      break;
    }
    uint16_t len = desc->len;
    kern::SkBuff* skb = st.netdev_alloc_skb(dev, len);
    if (skb == nullptr) {
      break;
    }
    uint8_t* dst = st.skb_put(skb, len);
    lxfi::MemCopy(m, dst, priv->rx_bufs[idx], len);
    // Ethertype demux key lives in the first two payload bytes of our
    // simulated frames.
    uint16_t proto = len >= 2 ? static_cast<uint16_t>(dst[0] | (dst[1] << 8)) : 0;
    lxfi::Store(m, &skb->protocol, proto);
    st.netif_rx(skb);

    lxfi::Store(m, &desc->status, uint8_t{0});
    lxfi::Store(m, &priv->rx_next_clean, (idx + 1) % kE1000RxRing);
    // Return the descriptor to the device.
    lxfi::Store(m, &regs->rdt, (regs->rdt + 1) % kE1000RxRing);
    lxfi::Store(m, &priv->rx_count, priv->rx_count + 1);
    ++done;
  }
  return done;
}

}  // namespace

kern::ModuleDef E1000ModuleDef() {
  auto st = std::make_shared<E1000State>();
  kern::ModuleDef def;
  def.name = "e1000";
  def.data_size = sizeof(E1000Data);
  def.imports = {kern::kKmalloc, kern::kKfree, kern::kDmaAllocCoherent, kern::kDmaFreeCoherent,
                 kern::kAllocEtherdev, kern::kFreeNetdev, kern::kRegisterNetdev,
                 kern::kUnregisterNetdev, kern::kNetdevAllocSkb, kern::kKfreeSkb, kern::kSkbPut,
                 kern::kNetifRx, kern::kNetifNapiAdd, kern::kNapiSchedule, kern::kPciEnableDevice,
                 kern::kPciDisableDevice, kern::kPciIomap, kern::kRequestIrq, kern::kFreeIrq,
                 kern::kPciRegisterDriver, kern::kPciUnregisterDriver, kern::kPrintk,
                 kern::kSpinLockInit, kern::kSpinLock, kern::kSpinUnlock, kern::kModTimer,
                 kern::kDelTimer};
  def.functions = {
      lxfi::DeclareFunction("e1000_probe", kern::kPciProbe,
                            [st](kern::PciDev* pdev) { return Probe(*st, pdev); }),
      lxfi::DeclareFunction("e1000_remove", kern::kPciRemove,
                            [st](kern::PciDev* pdev) { Remove(*st, pdev); }),
      lxfi::DeclareFunction("e1000_open", kern::kNdoOpen,
                            [st](kern::NetDevice* dev) { return Open(*st, dev); }),
      lxfi::DeclareFunction("e1000_stop", kern::kNdoStop,
                            [st](kern::NetDevice* dev) { return Stop(*st, dev); }),
      lxfi::DeclareFunction(
          "e1000_xmit", kern::kNdoStartXmit,
          [st](kern::SkBuff* skb, kern::NetDevice* dev) { return Xmit(*st, skb, dev); }),
      lxfi::DeclareFunction("e1000_intr", kern::kIrqHandler,
                            [st](int irq, void* dev_id) { Intr(*st, irq, dev_id); }),
      lxfi::DeclareFunction(
          "e1000_poll", kern::kNapiPoll,
          [st](kern::NapiStruct* napi, int budget) { return Poll(*st, napi, budget); }),
      lxfi::DeclareFunction("e1000_watchdog", kern::kTimerFn,
                            [st](void* data) { Watchdog(*st, data); }),
  };
  def.init = [st](kern::Module& m) -> int {
    st->m = &m;
    m.state_any() = st;
    st->kmalloc = lxfi::GetImport(m, kern::kKmalloc);
    st->kfree = lxfi::GetImport(m, kern::kKfree);
    st->dma_alloc = lxfi::GetImport(m, kern::kDmaAllocCoherent);
    st->alloc_etherdev = lxfi::GetImport(m, kern::kAllocEtherdev);
    st->free_netdev = lxfi::GetImport(m, kern::kFreeNetdev);
    st->register_netdev = lxfi::GetImport(m, kern::kRegisterNetdev);
    st->unregister_netdev = lxfi::GetImport(m, kern::kUnregisterNetdev);
    st->netdev_alloc_skb = lxfi::GetImport(m, kern::kNetdevAllocSkb);
    st->kfree_skb = lxfi::GetImport(m, kern::kKfreeSkb);
    st->skb_put = lxfi::GetImport(m, kern::kSkbPut);
    st->netif_rx = lxfi::GetImport(m, kern::kNetifRx);
    st->netif_napi_add = lxfi::GetImport(m, kern::kNetifNapiAdd);
    st->napi_schedule = lxfi::GetImport(m, kern::kNapiSchedule);
    st->pci_enable_device = lxfi::GetImport(m, kern::kPciEnableDevice);
    st->pci_iomap = lxfi::GetImport(m, kern::kPciIomap);
    st->request_irq = lxfi::GetImport(m, kern::kRequestIrq);
    st->free_irq = lxfi::GetImport(m, kern::kFreeIrq);
    st->pci_register_driver = lxfi::GetImport(m, kern::kPciRegisterDriver);
    st->pci_unregister_driver = lxfi::GetImport(m, kern::kPciUnregisterDriver);
    st->mod_timer = lxfi::GetImport(m, kern::kModTimer);
    st->del_timer = lxfi::GetImport(m, kern::kDelTimer);

    E1000Data* data = static_cast<E1000Data*>(m.data());
    lxfi::Store(m, &data->drv.vendor, kE1000Vendor);
    lxfi::Store(m, &data->drv.device, kE1000Device);
    lxfi::Store(m, &data->drv.probe, m.FuncAddr("e1000_probe"));
    lxfi::Store(m, &data->drv.remove, m.FuncAddr("e1000_remove"));
    lxfi::Store(m, &data->drv.module, &m);
    return st->pci_register_driver(&data->drv);
  };
  def.exit_fn = [st](kern::Module& m) {
    E1000Data* data = static_cast<E1000Data*>(m.data());
    st->pci_unregister_driver(&data->drv);
  };
  return def;
}

std::shared_ptr<E1000State> GetE1000(kern::Module& m) {
  auto* sp = std::any_cast<std::shared_ptr<E1000State>>(&m.state_any());
  return sp != nullptr ? *sp : nullptr;
}

kern::NicHw* PlugInE1000Device(kern::Kernel* kernel, int irq) {
  kern::PciBus* bus = kern::GetPciBus(kernel);
  kern::PciDev* pdev = bus->AddDevice(kE1000Vendor, kE1000Device, sizeof(kern::NicRegs), irq);
  auto* regs = static_cast<kern::NicRegs*>(pdev->regs);
  auto hw = std::make_shared<kern::NicHw>(regs);
  bus->AttachModel(pdev, hw);
  hw->SetIrqRaiser([kernel, bus, irq](uint32_t cause) { bus->FireIrq(irq); });
  return hw.get();
}

}  // namespace mods
